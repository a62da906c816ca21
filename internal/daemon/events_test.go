package daemon

// Tests for the daemon's event-ledger endpoint: backlog and filters
// over GET /events, NDJSON watch mode, and the bounded-buffer drop
// discipline both watch hubs (the event ledger and the fault hub)
// share — a stalled subscriber loses lines, it never stalls the
// publisher. Run under -race: the flood halves exercise concurrent
// Append/publish against a registered subscriber.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"faasnap/internal/events"
)

func TestEventsEndpointBacklogAndFilters(t *testing.T) {
	d, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})

	// A daemon with a state dir replays its manifest at start and leaves
	// a recovery_replay event carrying the replay's trace id.
	var reply struct {
		Events  []events.Event `json:"events"`
		LastSeq uint64         `json:"last_seq"`
	}
	if resp := doJSON(t, "GET", srv.URL+"/events", nil, &reply); resp.StatusCode != 200 {
		t.Fatalf("GET /events = %d", resp.StatusCode)
	}
	if reply.LastSeq == 0 || len(reply.Events) == 0 {
		t.Fatalf("fresh daemon ledger is empty: %+v", reply)
	}
	var replay *events.Event
	for i := range reply.Events {
		if reply.Events[i].Type == events.RecoveryReplay {
			replay = &reply.Events[i]
		}
	}
	if replay == nil {
		t.Fatalf("no recovery_replay event in %+v", reply.Events)
	}
	if replay.TraceID == "" {
		t.Fatal("recovery_replay event carries no trace id")
	}
	if resp := doJSON(t, "GET", srv.URL+"/traces/"+replay.TraceID, nil, nil); resp.StatusCode != 200 {
		t.Fatalf("recovery trace %s = %d, want 200", replay.TraceID, resp.StatusCode)
	}

	mark := reply.LastSeq
	d.Events().Append(events.Event{Type: events.GCSweep})
	d.Events().Append(events.Event{Type: events.Repair, Function: "fn-a"})

	var tail struct {
		Events []events.Event `json:"events"`
	}
	doJSON(t, "GET", srv.URL+"/events?since_seq="+strconv.FormatUint(mark, 10), nil, &tail)
	if len(tail.Events) != 2 {
		t.Fatalf("since_seq=%d returned %d events, want 2", mark, len(tail.Events))
	}
	if tail.Events[0].Seq != mark+1 || tail.Events[1].Seq != mark+2 {
		t.Fatalf("tail seqs = %d,%d, want %d,%d", tail.Events[0].Seq, tail.Events[1].Seq, mark+1, mark+2)
	}

	var byType struct {
		Events []events.Event `json:"events"`
	}
	doJSON(t, "GET", srv.URL+"/events?type=gc_sweep", nil, &byType)
	if len(byType.Events) != 1 || byType.Events[0].Type != events.GCSweep {
		t.Fatalf("type filter returned %+v", byType.Events)
	}
	var byFn struct {
		Events []events.Event `json:"events"`
	}
	doJSON(t, "GET", srv.URL+"/events?function=fn-a", nil, &byFn)
	if len(byFn.Events) != 1 || byFn.Events[0].Function != "fn-a" {
		t.Fatalf("function filter returned %+v", byFn.Events)
	}

	if resp := doJSON(t, "GET", srv.URL+"/events?since_seq=bogus", nil, nil); resp.StatusCode != 400 {
		t.Fatalf("bad since_seq = %d, want 400", resp.StatusCode)
	}
}

func TestEventsWatchStreamsNDJSON(t *testing.T) {
	d, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})

	resp, err := http.Get(srv.URL + "/events?watch=1&type=gc_sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("watch = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type = %q", ct)
	}

	// The subscription is registered before the handler writes headers,
	// so an append after the response starts must reach the stream.
	appended := d.Events().Append(events.Event{Type: events.GCSweep, Fields: map[string]string{"k": "v"}})
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var got events.Event
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", line, err)
	}
	if got.Type != events.GCSweep || got.Seq != appended.Seq || got.Fields["k"] != "v" {
		t.Fatalf("streamed event = %+v, want the appended gc_sweep (seq %d)", got, appended.Seq)
	}
}

// TestSlowSubscribersDropNotBlock floods both watch hubs past their
// buffer depth with a registered subscriber that never reads: appends
// and publishes must complete (nothing blocks), and both hubs' losses
// must surface in their drop counters in the scrape.
func TestSlowSubscribersDropNotBlock(t *testing.T) {
	d, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})

	led := d.Events()
	slow := led.Subscribe("", "")
	defer led.Unsubscribe(slow)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				led.Append(events.Event{Type: events.GCSweep})
			}
		}()
	}
	wg.Wait()
	if metricSum(t, srv.URL, "faasnap_events_watch_dropped_total", "") == 0 {
		t.Fatal("6000 events into a 4096-line watch buffer counted no drop")
	}

	fslow := d.faults.Subscribe("", "flood-fn")
	defer d.faults.Unsubscribe(fslow)
	line := []byte(`{"event":"fault"}`)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				d.faults.Publish("", "flood-fn", line)
			}
		}()
	}
	wg.Wait()
	if metricSum(t, srv.URL, "faasnap_fault_watch_dropped_total", "") == 0 {
		t.Fatal("6000 messages into a 16-timeline watch buffer counted no drop")
	}
}
