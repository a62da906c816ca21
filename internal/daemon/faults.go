package daemon

import (
	"io"
	"net/http"

	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/hostmm"
	"faasnap/internal/trace"
)

// faultWatchDepth is how many whole timelines a stalled watcher may
// have queued (a timeline of a large function is a few MB encoded).
const faultWatchDepth = 16

// publishFaults keeps the invocation's timeline as the function's
// latest, raw, and encodes it only if a watcher is there to receive it:
// GET /functions/{name}/faults encodes on demand.
func (d *Daemon) publishFaults(fs *fnState, id trace.ID, res *core.InvokeResult) {
	tl := &hostmm.FaultTimeline{
		Function: fs.spec.Name,
		Mode:     res.Mode.String(),
		Input:    res.Input,
		TraceID:  string(id),
		Setup:    res.Setup,
		Total:    res.Total,
		Events:   res.FaultTrace,
	}
	fs.setFaults(tl)
	if d.faults.Watched("", tl.Function) {
		d.faults.Publish("", tl.Function, tl.Encode())
	}
}

// handleFaults serves a function's fault timeline. Without ?watch=1 it
// dumps the most recent invocation's timeline; with it, the response
// streams timelines of invocations as they complete (chunked NDJSON)
// until the client disconnects.
func (d *Daemon) handleFaults(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fs, ok := d.idx.lookup(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "function not registered")
		return
	}
	if r.URL.Query().Get("watch") != "" {
		streamLines(w, r, d.faults, "", name, nil)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if tl := fs.faults(); tl != nil {
		_ = writeLine(w, tl.Encode()) // the client left; nothing to add
	}
}

// writeLine writes one NDJSON message (a line, or lines joined by
// '\n') and its closing newline. The newline is a separate write: a
// published message is shared by every watcher, so nothing may append
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
// subscription so nothing falls between the two — then stream messages
// as they are published, one flush each, until the client leaves or the
// hub closes.
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
