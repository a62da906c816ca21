package events

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestAppendAssignsMonotonicSeq(t *testing.T) {
	l := NewLedger(8)
	a := l.Append(Event{Type: GCSweep})
	b := l.Append(Event{Type: Repair, Function: "fn"})
	if a.Seq != 1 || b.Seq != 2 {
		t.Fatalf("seqs = %d, %d, want 1, 2", a.Seq, b.Seq)
	}
	if a.UnixMs == 0 || b.UnixMs == 0 {
		t.Fatal("events not timestamped")
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", l.LastSeq())
	}
}

func TestRingBoundAndSeqContinuity(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{Type: GCSweep})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want ring-bounded 4", l.Len())
	}
	got := l.Since(0, "", "")
	if len(got) != 4 {
		t.Fatalf("Since(0) = %d events, want 4", len(got))
	}
	// Oldest retained is seq 7; sequence numbers keep counting across
	// overwrites.
	for i, e := range got {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestSinceFilters(t *testing.T) {
	l := NewLedger(16)
	l.Append(Event{Type: Repair, Function: "a"})
	l.Append(Event{Type: Repair, Function: "b"})
	l.Append(Event{Type: GCSweep})
	l.Append(Event{Type: Repair, Function: "a"})

	if got := l.Since(0, Repair, ""); len(got) != 3 {
		t.Fatalf("type filter = %d, want 3", len(got))
	}
	if got := l.Since(0, Repair, "a"); len(got) != 2 {
		t.Fatalf("type+function filter = %d, want 2", len(got))
	}
	if got := l.Since(2, "", ""); len(got) != 2 || got[0].Seq != 3 {
		t.Fatalf("since_seq filter = %+v, want seqs 3,4", got)
	}
	if got := l.Since(99, "", ""); len(got) != 0 {
		t.Fatalf("future since_seq returned %d events", len(got))
	}
}

func TestCauseLinkRoundTrips(t *testing.T) {
	l := NewLedger(8)
	def := l.Append(Event{Type: ManifestDeficit, Function: "fn", Origin: "127.0.0.1:1"})
	rep := l.Append(Event{
		Type: Repair, Function: "fn", Origin: "gateway",
		CauseSeq: def.Seq, CauseOrigin: def.Origin, TraceID: "abc",
	})
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.CauseSeq != def.Seq || back.CauseOrigin != "127.0.0.1:1" || back.TraceID != "abc" {
		t.Fatalf("cause link lost in round trip: %+v", back)
	}
}

func TestWatchDeliversAndSlowSubscriberDrops(t *testing.T) {
	l := NewLedger(8)
	var drops int
	l.OnDrop = func() { drops++ }

	fast := l.Subscribe("", "")
	l.Append(Event{Type: GCSweep})
	select {
	case line := <-fast:
		var e Event
		if err := json.Unmarshal(line, &e); err != nil || e.Type != GCSweep {
			t.Fatalf("bad line %q: %v", line, err)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber got nothing")
	}
	l.Unsubscribe(fast)

	// A subscriber that never reads must not block Append past its
	// buffer; overflow increments the drop counter.
	slow := l.Subscribe("", "")
	for i := 0; i < lineDepth+50; i++ {
		l.Append(Event{Type: Repair})
	}
	if drops != 50 {
		t.Fatalf("dropped = %d, want 50", drops)
	}
	l.Unsubscribe(slow)
}

func TestConcurrentAppendAndSubscribe(t *testing.T) {
	l := NewLedger(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(Event{Type: ChaosInjected})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ch := l.Subscribe("", "")
				l.Since(0, "", "")
				l.Unsubscribe(ch)
			}
		}()
	}
	wg.Wait()
	if l.LastSeq() != 400 {
		t.Fatalf("LastSeq = %d, want 400", l.LastSeq())
	}
}

func TestCloseIdempotent(t *testing.T) {
	l := NewLedger(4)
	l.Append(Event{Type: GCSweep})
	l.Close()
	l.Close()
	select {
	case <-l.Done():
	default:
		t.Fatal("Done not closed")
	}
	if got := l.Since(0, "", ""); len(got) != 1 {
		t.Fatal("ring unreadable after Close")
	}
}

// TestAppendCostIndependentOfCapacity: once full, an append evicts in
// O(1) — it must not shift the whole ring — and with nobody watching it
// must not encode the event either. A 1024x larger ring may not make a
// full-ring append measurably slower.
func TestAppendCostIndependentOfCapacity(t *testing.T) {
	perAppend := func(capacity int) time.Duration {
		l := NewLedger(capacity)
		for i := 0; i < capacity; i++ {
			l.Append(Event{Type: GCSweep})
		}
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			const n = 2000
			start := time.Now()
			for i := 0; i < n; i++ {
				l.Append(Event{Type: GCSweep})
			}
			if d := time.Since(start) / n; d < best {
				best = d
			}
		}
		return best
	}
	small, large := perAppend(64), perAppend(64*1024)
	if large > 8*small+time.Microsecond {
		t.Fatalf("append at capacity: %v per event with a 64Ki ring vs %v with 64 — cost grows with capacity", large, small)
	}
}

// TestWatchFiltersBeforeEncoding: a subscriber receives only the events
// its (type, function) filter passes, and an event nobody is watching
// for is never marshalled.
func TestWatchFiltersBeforeEncoding(t *testing.T) {
	l := NewLedger(8)
	ch := l.Subscribe(Repair, "a")
	defer l.Unsubscribe(ch)
	l.Append(Event{Type: GCSweep})
	l.Append(Event{Type: Repair, Function: "b"})
	want := l.Append(Event{Type: Repair, Function: "a"})
	select {
	case line := <-ch:
		var e Event
		if err := json.Unmarshal(line, &e); err != nil || e.Seq != want.Seq {
			t.Fatalf("filtered watcher got %q (%v), want seq %d", line, err, want.Seq)
		}
	default:
		t.Fatal("matching event was not delivered")
	}
	if len(ch) != 0 {
		t.Fatalf("watcher received %d lines its filter should have excluded", len(ch))
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Append(Event{Type: GCSweep}) }); allocs != 0 {
		t.Fatalf("appending an unwatched event allocates %.0f times; it is being encoded for nobody", allocs)
	}
}

// TestHubMessageIsTheUnit: a multi-line message arrives as one channel
// item, and a subscriber with no room loses it whole — one drop,
// whatever the line count — never a prefix of it.
func TestHubMessageIsTheUnit(t *testing.T) {
	h := NewHub(2)
	var drops int
	h.OnDrop = func() { drops++ }
	ch := h.Subscribe("", "fn")
	defer h.Unsubscribe(ch)
	other := h.Subscribe("", "other-fn")
	defer h.Unsubscribe(other)

	timeline := []byte("{\"event\":\"invocation\"}\n{\"event\":\"fault\"}\n{\"event\":\"end\"}")
	for i := 0; i < 5; i++ {
		h.Publish("", "fn", timeline)
	}
	if len(ch) != 2 || len(other) != 0 {
		t.Fatalf("buffered %d messages (other: %d), want 2 and 0", len(ch), len(other))
	}
	if got := <-ch; !bytes.Equal(got, timeline) {
		t.Fatalf("delivered %q, want the whole message", got)
	}
	if drops != 3 {
		t.Fatalf("dropped = %d, want 3: one per message, not per line", drops)
	}
}
