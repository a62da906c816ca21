package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/trace"
)

// encodeFaultTimeline renders one traced invocation as NDJSON lines:
// an "invocation" header, one "fault" line per event (the same fields
// faasnap-trace writes with -jsonl), and an "end" line that marks the
// group boundary for watch-mode consumers.
func encodeFaultTimeline(fn string, traceID string, res *core.InvokeResult) [][]byte {
	lines := make([][]byte, 0, len(res.FaultTrace)+2)
	put := func(v interface{}) {
		raw, err := json.Marshal(v)
		if err != nil {
			return
		}
		lines = append(lines, raw)
	}
	put(map[string]interface{}{
		"event":    "invocation",
		"function": fn,
		"mode":     res.Mode.String(),
		"input":    res.Input,
		"trace_id": traceID,
		"setup_us": res.Setup.Microseconds(),
		"total_us": res.Total.Microseconds(),
	})
	for _, ev := range res.FaultTrace {
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
		"faults": len(res.FaultTrace),
	})
	return lines
}

// publishFaults stores the invocation's timeline as the function's
// latest and streams it to watchers.
func (d *Daemon) publishFaults(fs *fnState, id trace.ID, res *core.InvokeResult) {
	lines := encodeFaultTimeline(fs.spec.Name, string(id), res)
	fs.mu.Lock()
	fs.lastFaults = lines
	fs.mu.Unlock()
	d.faults.Publish("", fs.spec.Name, lines...)
}

// handleFaults serves a function's fault timeline. Without ?watch=1 it
// dumps the most recent invocation's timeline; with it, the response
// streams timelines of invocations as they complete (chunked NDJSON)
// until the client disconnects.
func (d *Daemon) handleFaults(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fs, ok := d.fn(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "function not registered")
		return
	}
	if r.URL.Query().Get("watch") != "" {
		streamLines(w, r, d.faults, "", name, nil)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fs.mu.Lock()
	lines := fs.lastFaults
	fs.mu.Unlock()
	for _, ln := range lines {
		if writeLine(w, ln) != nil {
			return
		}
	}
}

// writeLine writes one NDJSON line. The newline is a separate write:
// a published line is shared by every watcher, so nothing may append
// to it.
func writeLine(w io.Writer, line []byte) error {
	if _, err := w.Write(line); err != nil {
		return err
	}
	_, err := w.Write([]byte{'\n'})
	return err
}

// streamLines is the one NDJSON watch loop behind both watch routes
// (fault timelines and the event ledger): subscribe to hub under the
// (typ, function) filter, write the backlog — computed after the
// subscription so nothing falls between the two — then stream lines as
// they are published, until the client leaves or the hub closes.
func streamLines(w http.ResponseWriter, r *http.Request, hub *events.Hub, typ events.Type, function string, backlog func() [][]byte) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	ch := hub.Subscribe(typ, function)
	defer hub.Unsubscribe(ch)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if backlog != nil {
		for _, line := range backlog() {
			if writeLine(w, line) != nil {
				return
			}
		}
	}
	_ = rc.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hub.Done():
			return
		case line := <-ch:
			if writeLine(w, line) != nil || rc.Flush() != nil {
				return
			}
		}
	}
}
