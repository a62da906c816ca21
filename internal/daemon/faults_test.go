package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/hostmm"
	"faasnap/internal/trace"
)

// getFaults returns the body of GET /functions/{fn}/faults.
func getFaults(t *testing.T, base, fn string) []byte {
	t.Helper()
	var body string
	doJSON(t, "GET", base+"/functions/"+fn+"/faults", nil, &body)
	return []byte(body)
}

// TestFaultTimelineEncodedOnDemand: with nobody watching, an invoke
// parks the raw trace and encodes nothing; the GET that follows returns
// what the eager encoder would have produced; with a watcher subscribed
// the published message is that same timeline.
func TestFaultTimelineEncodedOnDemand(t *testing.T) {
	d, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	if body := getFaults(t, srv.URL, "hello-world"); len(body) != 0 {
		t.Fatalf("timeline before any invocation = %q, want empty", body)
	}
	fs, _ := d.idx.lookup("hello-world")

	// The publish step with no watcher: a 20k-event trace costs the
	// holder struct and nothing per event.
	big := &core.InvokeResult{Mode: core.ModeFaaSnap, Input: "B", FaultTrace: make([]hostmm.FaultEvent, 20000)}
	if allocs := testing.AllocsPerRun(10, func() { d.publishFaults(fs, trace.ID("t"), big) }); allocs > 2 {
		t.Fatalf("publishFaults with no watcher allocates %.0f objects: the timeline is being encoded for nobody", allocs)
	}

	var inv InvokeResponse
	doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	tl := fs.faults()
	if tl == nil || tl.TraceID != inv.TraceID || int64(len(tl.Events)) != inv.Faults {
		t.Fatalf("parked timeline = %+v, want the raw trace of invocation %s (%d faults)", tl, inv.TraceID, inv.Faults)
	}
	want := append(tl.Encode(), '\n')
	if got := getFaults(t, srv.URL, "hello-world"); !bytes.Equal(got, want) {
		t.Fatalf("GET after an unwatched invoke differs from the eager encoding (%d vs %d bytes)", len(got), len(want))
	}

	ch := d.faults.Subscribe("", "hello-world")
	defer d.faults.Unsubscribe(ch)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "reap", "input": "A"}, &inv)
	select {
	case msg := <-ch:
		if got := getFaults(t, srv.URL, "hello-world"); !bytes.Equal(got, append(msg[:len(msg):len(msg)], '\n')) {
			t.Fatal("watched message and GET disagree about the same invocation")
		}
		if !bytes.Contains(msg, []byte(`"trace_id":"`+inv.TraceID+`"`)) || !bytes.Contains(msg, []byte(`"mode":"reap"`)) {
			t.Fatalf("watched message is not invocation %s: %.200s", inv.TraceID, msg)
		}
	default:
		t.Fatal("a subscribed watcher received no timeline")
	}
}

// TestFaultWatchLargeTimelineComplete: a timeline with more lines than
// any per-line buffer (image/faasnap/B is ~9k faults; the hub used to
// hold 4 096 lines and drop the rest, "end" marker included) reaches a
// watcher whole. Two invocations give two complete invocation … end
// groups whose fault lines match the end line's count.
func TestFaultWatchLargeTimelineComplete(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/image", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/image/record", nil, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/functions/image/faults?watch=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type line struct {
		Event  string `json:"event"`
		Faults int    `json:"faults"`
	}
	lines := make(chan line, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var ln line
			if json.Unmarshal(sc.Bytes(), &ln) == nil {
				lines <- ln
			}
		}
	}()

	var want []int64
	for i := 0; i < 2; i++ {
		var inv InvokeResponse
		doJSON(t, "POST", srv.URL+"/functions/image/invoke",
			map[string]string{"mode": "faasnap", "input": "B"}, &inv)
		if inv.Faults <= 4096 {
			t.Fatalf("image/faasnap/B took %d faults; the test needs more than the old 4096-line buffer", inv.Faults)
		}
		want = append(want, inv.Faults)
	}

	groups, faults, open := 0, int64(0), false
	for ln := range lines {
		switch ln.Event {
		case "invocation":
			if open {
				t.Fatal("a new group started before the previous one ended")
			}
			open, faults = true, 0
		case "fault":
			faults++
		case "end":
			if !open || faults != int64(ln.Faults) || faults != want[groups] {
				t.Fatalf("group %d: open %v, %d fault lines, end says %d, invoke reported %d", groups, open, faults, ln.Faults, want[groups])
			}
			open = false
			if groups++; groups == len(want) {
				cancel()
			}
		}
	}
	if groups != len(want) {
		t.Fatalf("received %d complete groups, want %d", groups, len(want))
	}
	if n := metricSum(t, srv.URL, "faasnap_fault_watch_dropped_total", ""); n != 0 {
		t.Fatalf("%v timelines dropped on a watcher that was reading", n)
	}
}
