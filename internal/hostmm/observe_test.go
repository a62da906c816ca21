package hostmm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"faasnap/internal/metrics"
)

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

// faultLinesDigest is the SHA-256 of what the reflection-based encoder
// (one map and one json.Marshal per line) wrote for the timelines of
// TestEncodeFaultTimelineMatchesReference, each followed by a newline;
// it was recorded before that encoder was retired.
const faultLinesDigest = "6516ff8724f490f3a865582a3eda7c1e1dfac372468bf78493d6929c1dbb50fb"

// TestEncodeFaultTimelineMatchesReference pins Encode byte for byte to
// the reflection-based encoder's output by its committed digest: every
// fault kind, one outside the enum, write true and false, durations from
// zero and sub-microsecond to seconds, and header strings that need JSON
// and HTML escaping (U+2028 among them). Each line must also be one JSON object, framed by
// the invocation and end lines.
func TestEncodeFaultTimelineMatchesReference(t *testing.T) {
	h := sha256.New()
	for _, tl := range []*FaultTimeline{
		{Function: "image", Mode: "faasnap", Input: "B", TraceID: "0123456789abcdef",
			Setup: 45678 * time.Microsecond, Total: 139 * time.Millisecond,
			Events: syntheticEvents(5 * 11 * 3)},
		{Function: "a\"b\\c<d>&e\u2028é\x01\xff", Mode: "mode(9)", Input: "ratio:0.5", TraceID: "",
			Events: syntheticEvents(3)},
		{Function: "empty", Mode: "warm", Input: "A"},
		{Events: []FaultEvent{{Kind: 17}}},
	} {
		got := tl.Encode()
		lines := bytes.Split(got, []byte("\n"))
		if len(lines) != len(tl.Events)+2 {
			t.Fatalf("%s: %d lines, want %d", tl.Mode, len(lines), len(tl.Events)+2)
		}
		for i, line := range lines {
			var obj struct{ Event string }
			want := "fault"
			switch i {
			case 0:
				want = "invocation"
			case len(lines) - 1:
				want = "end"
			}
			if err := json.Unmarshal(line, &obj); err != nil || obj.Event != want {
				t.Fatalf("%s: line %d = %s (%v), want a %q object", tl.Mode, i, line, err, want)
			}
		}
		h.Write(append(got, '\n'))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != faultLinesDigest {
		t.Fatalf("encoded timelines hash to %s, want %s", got, faultLinesDigest)
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
