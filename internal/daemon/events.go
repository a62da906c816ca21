package daemon

// The daemon half of the cluster event ledger: GET /events serves the
// retained control-plane events with seq/type/function filters, and
// ?watch=1 streams new events as NDJSON through the same hub type and
// stream loop as the fault timelines — a stalled watcher loses lines,
// never blocks an Append.

import (
	"encoding/json"
	"net/http"
	"strconv"

	"faasnap/internal/events"
)

// publishEvent appends e to the ledger and returns the stamped event.
func (d *Daemon) publishEvent(e events.Event) events.Event {
	return d.events.Append(e)
}

// Events exposes the ledger (for embedding callers like the bench
// harness and tests).
func (d *Daemon) Events() *events.Ledger { return d.events }

// eventsReply is the non-watch GET /events payload.
type eventsReply struct {
	Events  []events.Event `json:"events"`
	LastSeq uint64         `json:"last_seq"`
}

// handleEvents serves the event ledger. Query parameters: since_seq
// (exclusive lower bound), type, function, and watch=1 for an NDJSON
// stream of events as they are appended.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if s := q.Get("since_seq"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad since_seq")
			return
		}
		since = v
	}
	typ := events.Type(q.Get("type"))
	fn := q.Get("function")

	if q.Get("watch") == "" {
		evs := d.events.Since(since, typ, fn)
		if evs == nil {
			evs = []events.Event{}
		}
		writeJSON(w, http.StatusOK, eventsReply{Events: evs, LastSeq: d.events.LastSeq()})
		return
	}

	// Replay the retained backlog first so a watcher with a since_seq
	// cursor misses nothing between its last poll and the subscribe.
	streamLines(w, r, d.events.Hub, typ, fn, func() [][]byte {
		var lines [][]byte
		for _, e := range d.events.Since(since, typ, fn) {
			if line, err := json.Marshal(e); err == nil {
				lines = append(lines, line)
			}
		}
		return lines
	})
}
