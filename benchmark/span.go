package main

// In-memory spans recorded by the benchmark around its own calls into
// each layer. Spans of one op share its id; a span's self time is its
// duration minus the part of it its children cover.

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call. Start and End are offsets from the start of
// the traced run.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0: a root span of its op
	Op     int           `json:"op"`
	Cell   string        `json:"cell"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	cell int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanLog collects the spans of a traced run. The traced run is
// single-client, so the log is not locked.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// opSpans records the spans of one op.
type opSpans struct {
	log  *spanLog
	op   int
	cell int
	key  string
}

func (l *spanLog) forOp(op, cell int, key string) opSpans {
	return opSpans{log: l, op: op, cell: cell, key: key}
}

// begin opens a span under parent (0: none) and returns its id.
func (o opSpans) begin(parent int, name string) int {
	l := o.log
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: o.op, Cell: o.key, Name: name, cell: o.cell, Start: time.Since(l.t0)})
	return id
}

func (o opSpans) end(id int) { o.log.spans[id-1].End = time.Since(o.log.t0) }

// within runs fn inside a new span under parent. A nil log (tracing
// off) just runs fn.
func (o opSpans) within(parent int, name string, fn func()) {
	if o.log == nil {
		fn()
		return
	}
	id := o.begin(parent, name)
	fn()
	o.end(id)
}

// byCell returns the durations in ms of the spans called name, grouped
// by cell.
func (l *spanLog) byCell(name string) map[int][]float64 {
	out := map[int][]float64{}
	for _, s := range l.spans {
		if s.Name == name {
			out[s.cell] = append(out[s.cell], ms(s.dur()))
		}
	}
	return out
}

// typical is the per-cell-median mean of the spans called name, the
// same statistic wall_p50_ms is.
func (l *spanLog) typical(name string) float64 { return perCellMedian(l.byCell(name)) }

// covered is the length of the union of the children's intervals,
// clipped to [start, end): overlapping children count once.
func covered(start, end time.Duration, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach time.Duration
	reach = start
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			total += x[1] - reach
			reach = x[1]
		}
	}
	return total
}

// selfTime is s's duration minus what its children cover.
func selfTime(s span, children []span) time.Duration {
	return s.dur() - covered(s.Start, s.End, children)
}

// write dumps the spans as a JSON array, in start order.
func (l *spanLog) write(path string) error {
	raw, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
