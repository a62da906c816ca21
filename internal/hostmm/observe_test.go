package hostmm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"faasnap/internal/metrics"
)

// referenceFaultLines is the reflection-based encoder: one map and one
// json.Marshal per line. It is the byte-for-byte oracle for
// FaultTimeline.Encode.
func referenceFaultLines(tl *FaultTimeline) [][]byte {
	var lines [][]byte
	put := func(v interface{}) {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		lines = append(lines, raw)
	}
	put(map[string]interface{}{
		"event":    "invocation",
		"function": tl.Function,
		"mode":     tl.Mode,
		"input":    tl.Input,
		"trace_id": tl.TraceID,
		"setup_us": tl.Setup.Microseconds(),
		"total_us": tl.Total.Microseconds(),
	})
	for _, ev := range tl.Events {
		put(map[string]interface{}{
			"event":  "fault",
			"at_us":  ev.At.Microseconds(),
			"page":   ev.Page,
			"kind":   ev.Kind.String(),
			"dur_us": float64(ev.Duration) / float64(time.Microsecond),
			"write":  ev.Write,
		})
	}
	put(map[string]interface{}{
		"event":  "end",
		"faults": len(tl.Events),
	})
	return lines
}

// syntheticEvents returns n fault events cycling through every kind,
// both write values and a spread of durations.
func syntheticEvents(n int) []FaultEvent {
	durs := []time.Duration{
		0, 1, 999, 1500, 2500, 3700, 32 * time.Microsecond, 2500 * time.Microsecond,
		123456789, 7 * time.Second, 1<<62 + 12345,
	}
	evs := make([]FaultEvent, n)
	for i := range evs {
		evs[i] = FaultEvent{
			At:       time.Duration(i) * 1700 * time.Nanosecond,
			Page:     int64(i*37) % 524288,
			Kind:     metrics.FaultKind(i % int(metrics.NumFaultKinds)),
			Duration: durs[i%len(durs)],
			Write:    i%3 == 0,
		}
	}
	return evs
}

// TestEncodeFaultTimelineMatchesReference pins Encode to the
// reflection-based one line for line: every fault kind, write true and
// false, durations from zero and sub-microsecond to seconds, and header
// strings that need JSON and HTML escaping.
func TestEncodeFaultTimelineMatchesReference(t *testing.T) {
	for _, tl := range []*FaultTimeline{
		{Function: "image", Mode: "faasnap", Input: "B", TraceID: "0123456789abcdef",
			Setup: 45678 * time.Microsecond, Total: 139 * time.Millisecond,
			Events: syntheticEvents(5 * 11 * 3)},
		{Function: "a\"b\\c<d>&e é\x01\xff", Mode: "mode(9)", Input: "ratio:0.5", TraceID: "",
			Events: syntheticEvents(3)},
		{Function: "empty", Mode: "warm", Input: "A"},
	} {
		want := bytes.Join(referenceFaultLines(tl), []byte("\n"))
		if got := tl.Encode(); !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := range wl {
				if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("%s: line %d differs:\n got %s\nwant %s", tl.Mode, i, gl[min(i, len(gl)-1)], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", tl.Mode, len(gl), len(wl))
		}
	}
	// A kind outside the enum prints as metrics does, quoted.
	odd := &FaultTimeline{Events: []FaultEvent{{Kind: 17}}}
	if got, want := odd.Encode(), bytes.Join(referenceFaultLines(odd), []byte("\n")); !bytes.Equal(got, want) {
		t.Fatalf("unknown kind: got %s, want %s", got, want)
	}
}

// TestEncodeFaultTimelineAllocations: encoding a 20 000-event timeline
// allocates a handful of objects, not the ~20 per line the
// map encoder did (417 k for this size).
func TestEncodeFaultTimelineAllocations(t *testing.T) {
	tl := &FaultTimeline{Function: "image", Mode: "faasnap", Input: "B", TraceID: "t", Events: syntheticEvents(20000)}
	if allocs := testing.AllocsPerRun(5, func() { tl.Encode() }); allocs > 8 {
		t.Fatalf("encoding 20k events allocates %.0f objects, want a handful", allocs)
	}
}

// TestDecodeFaultTimelines: the decoder reads back what Encode wrote,
// one timeline or a stream of them, at the format's resolution (times
// in whole microseconds, durations to the nanosecond), and refuses a
// line it cannot read instead of analyzing a partial timeline.
func TestDecodeFaultTimelines(t *testing.T) {
	var events []FaultEvent
	for _, ev := range syntheticEvents(5 * 11 * 3) {
		if ev.Duration < 1<<53 { // past 2^53 ns, a float64 of microseconds rounds
			events = append(events, ev)
		}
	}
	tls := []*FaultTimeline{
		{Function: "image", Mode: "faasnap", Input: "B", TraceID: "0123456789abcdef",
			Setup: 45678 * time.Microsecond, Total: 139 * time.Millisecond, Events: events},
		{Function: "a\"b<c>", Mode: "warm", Input: "A"},
	}
	var stream []byte
	for _, tl := range tls {
		stream = append(append(stream, tl.Encode()...), '\n')
	}
	var got []*FaultTimeline
	if err := DecodeFaultTimelines(bytes.NewReader(stream), func(tl *FaultTimeline) error {
		got = append(got, tl)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tls) {
		t.Fatalf("decoded %d timelines, want %d", len(got), len(tls))
	}
	for i, want := range tls {
		g := got[i]
		if g.Function != want.Function || g.Mode != want.Mode || g.Input != want.Input ||
			g.TraceID != want.TraceID || g.Setup != want.Setup || g.Total != want.Total || len(g.Events) != len(want.Events) {
			t.Fatalf("timeline %d header = %+v, want %+v", i, *g, *want)
		}
		for j, ev := range want.Events {
			ev.At = ev.At.Truncate(time.Microsecond)
			if g.Events[j] != ev {
				t.Fatalf("timeline %d event %d = %+v, want %+v", i, j, g.Events[j], ev)
			}
		}
	}
	// The last timeline without its trailing newline still ends.
	n := 0
	if err := DecodeFaultTimelines(bytes.NewReader(tls[0].Encode()), func(*FaultTimeline) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("unterminated timeline: %d decoded, err %v", n, err)
	}
	for _, bad := range []string{
		`{"event":"fault","kind":"major"}`,
		`{"event":"invocation"}` + "\n" + `{"event":"fault","kind":"bogus"}`,
		`{"event":"invocation"}` + "\n" + `not json`,
	} {
		if err := DecodeFaultTimelines(strings.NewReader(bad), func(*FaultTimeline) error { return nil }); err == nil {
			t.Fatalf("decoded %q without error", bad)
		}
	}
}
