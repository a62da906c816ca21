package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/hostmm"
	"faasnap/internal/trace"
)

// faultTimeline is what the encoder needs from one traced invocation:
// the header fields and the raw events. The daemon keeps the latest per
// function and turns it into NDJSON only when somebody asks.
type faultTimeline struct {
	function, mode, input, traceID string
	setup, total                   time.Duration
	events                         []hostmm.FaultEvent
}

// faultWatchDepth is how many whole timelines a stalled watcher may
// have queued (a timeline of a large function is a few MB encoded).
const faultWatchDepth = 16

// encodeFaultTimeline renders one traced invocation as NDJSON lines
// joined by '\n' (none trailing): an "invocation" header, one "fault"
// line per event (the same fields faasnap-trace writes with -jsonl),
// and an "end" line that marks the group boundary for watch-mode
// consumers. The bytes are what encoding/json makes of a map with these
// keys — sorted keys, its string escaping, its float format — written
// directly, because a timeline is tens of thousands of lines.
func encodeFaultTimeline(tl *faultTimeline) []byte {
	b := make([]byte, 0, 256+len(tl.events)*104)
	b = append(b, `{"event":"invocation","function":`...)
	b = appendJSONString(b, tl.function)
	b = append(b, `,"input":`...)
	b = appendJSONString(b, tl.input)
	b = append(b, `,"mode":`...)
	b = appendJSONString(b, tl.mode)
	b = append(b, `,"setup_us":`...)
	b = strconv.AppendInt(b, tl.setup.Microseconds(), 10)
	b = append(b, `,"total_us":`...)
	b = strconv.AppendInt(b, tl.total.Microseconds(), 10)
	b = append(b, `,"trace_id":`...)
	b = appendJSONString(b, tl.traceID)
	b = append(b, "}\n"...)
	for _, ev := range tl.events {
		b = append(b, `{"at_us":`...)
		b = strconv.AppendInt(b, ev.At.Microseconds(), 10)
		// A duration is whole nanoseconds, so in microseconds it is 0 or
		// at least 0.001 and far below 1e21: the range where
		// encoding/json prints a float64 in %f form, shortest digits.
		b = append(b, `,"dur_us":`...)
		b = strconv.AppendFloat(b, float64(ev.Duration)/float64(time.Microsecond), 'f', -1, 64)
		b = append(b, `,"event":"fault","kind":`...)
		b = appendJSONString(b, ev.Kind.String())
		b = append(b, `,"page":`...)
		b = strconv.AppendInt(b, ev.Page, 10)
		b = append(b, `,"write":`...)
		b = strconv.AppendBool(b, ev.Write)
		b = append(b, "}\n"...)
	}
	b = append(b, `{"event":"end","faults":`...)
	b = strconv.AppendInt(b, int64(len(tl.events)), 10)
	return append(b, '}')
}

// appendJSONString appends s as encoding/json encodes a string. The
// plain case — printable ASCII with nothing JSON or HTML escapes — is
// copied; anything else goes through encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// publishFaults keeps the invocation's timeline as the function's
// latest, raw, and encodes it only if a watcher is there to receive it:
// GET /functions/{name}/faults encodes on demand.
func (d *Daemon) publishFaults(fs *fnState, id trace.ID, res *core.InvokeResult) {
	tl := &faultTimeline{
		function: fs.spec.Name,
		mode:     res.Mode.String(),
		input:    res.Input,
		traceID:  string(id),
		setup:    res.Setup,
		total:    res.Total,
		events:   res.FaultTrace,
	}
	fs.setFaults(tl)
	if d.faults.Watched("", tl.function) {
		d.faults.Publish("", tl.function, encodeFaultTimeline(tl))
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
		_ = writeLine(w, encodeFaultTimeline(tl)) // the client left; nothing to add
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
