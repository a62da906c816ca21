// Package telemetry is the daemon's unified observability substrate: a
// dependency-free Prometheus-style metrics registry (counters, gauges,
// log₂-bucketed latency histograms reusing the Figure 2 bucketing of
// internal/metrics) with text-format exposition, plus W3C
// traceparent-style context propagation over the in-memory pipenet
// HTTP hops so one Zipkin trace stitches spans from the daemon, the
// VMM, and the in-guest agent.
//
// The registry is safe for concurrent use: counter, gauge, and
// histogram updates are lock-free atomics; registration and exposition
// take short locks. Exposition output is deterministic — families and
// series are sorted — so two scrapes with no traffic in between are
// byte-identical.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/metrics"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// Labels is an unordered label set; rendering sorts by name.
type Labels []Label

// L builds a label set from alternating name/value pairs:
// L("mode", "faasnap", "input", "B").
func L(pairs ...string) Labels {
	if len(pairs)%2 != 0 {
		panic("telemetry: L takes alternating name/value pairs")
	}
	ls := make(Labels, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return ls
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// appendKey appends ls's series key, {a="b",c="d"} sorted by name, or
// nothing for no labels. It sorts a stack copy by insertion, as
// sort.Slice (whose closure moved the copy to the heap) does for up to
// 12 labels, so even a repeated name keeps its place.
func appendKey(dst []byte, ls Labels) []byte {
	var arr [8]Label
	s := append(arr[:0], ls...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Name < s[j-1].Name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	sep := byte('{')
	for _, l := range s {
		dst = append(dst, sep)
		sep = ','
		dst = append(dst, l.Name...)
		dst = append(dst, `="`...)
		dst = append(dst, escapeLabel(l.Value)...)
		dst = append(dst, '"')
	}
	if len(s) > 0 {
		dst = append(dst, '}')
	}
	return dst
}

// withExtraLabel inserts one more pair into an already-rendered label
// string (used for histogram le buckets).
func withExtraLabel(rendered, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// Counter is a monotonically increasing metric.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decrease")
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// histBuckets is the number of finite exposition buckets: the
// underflow bucket plus the metrics package's log₂ ladder; the last
// metrics bucket is the +Inf catch-all.
const histBuckets = metrics.HistBuckets + 1

// Histogram is a log₂ latency histogram sharing the bucket boundaries
// of internal/metrics (0.5 µs doubling to ~0.5 s, Figure 2's axis).
type Histogram struct {
	counts [histBuckets]atomic.Int64 // same layout as metrics.Histogram.Counts
	n      atomic.Int64
	sumNs  atomic.Int64
}

// Observe records one latency observation.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[metrics.BucketFor(d)].Add(1)
	h.n.Add(1)
	h.sumNs.Add(int64(d))
}

// ObserveBucketed merges a finished metrics.Histogram into h
// bucket-for-bucket — the bridge from the simulator's per-run fault
// statistics into the long-lived registry.
func (h *Histogram) ObserveBucketed(m *metrics.Histogram) {
	if m == nil || m.N == 0 {
		return
	}
	for i, c := range m.Counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(m.N)
	h.sumNs.Add(int64(m.Sum))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the summed observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// ratioBuckets is the exposition resolution of a RatioHistogram:
// fixed 0.1-wide buckets over [0,1] plus the +Inf catch-all.
const ratioBuckets = 10

// RatioHistogram is a histogram for dimensionless values in [0,1]
// (precision, recall, hit ratios). The log₂ latency ladder of
// Histogram is useless for ratios — every observation would land in
// the top buckets — so this uses fixed linear 0.1-wide buckets
// (le 0.1 … 1) plus +Inf.
type RatioHistogram struct {
	counts [ratioBuckets + 1]atomic.Int64
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one ratio observation; values outside [0,1] land in
// the first bucket (below) or the +Inf overflow (above) but are summed
// as given.
func (h *RatioHistogram) Observe(v float64) {
	i := int(math.Ceil(v * ratioBuckets))
	if i < 0 || math.IsNaN(v) {
		i = 0
	}
	// i is the index of the first bucket whose upper bound >= v:
	// v=0 -> bucket le=0.1 (index 0 after shift), v=1 -> le=1, and
	// anything above 1 overflows into the +Inf bucket.
	if i > 0 {
		i--
	}
	if i > ratioBuckets {
		i = ratioBuckets
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *RatioHistogram) Count() int64 { return h.n.Load() }

// Sum returns the summed observed values.
func (h *RatioHistogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric kinds for the registry's family table.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type family struct {
	name string
	help string
	kind string

	mu     sync.Mutex
	series map[string]interface{} // rendered labels -> *Counter | *Gauge | *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// exposition format.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]interface{})}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// series returns (creating if needed) the series name{labels}. The key
// is built on the stack and the map indexed with it unconverted, so
// only creating a series allocates.
func series[M any](r *Registry, name, help, kind string, labels Labels) *M {
	f := r.family(name, help, kind)
	var buf [128]byte
	key := appendKey(buf[:0], labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[string(key)]; ok {
		return m.(*M)
	}
	m := new(M)
	f.series[string(key)] = m
	return m
}

// Counter returns (creating if needed) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return series[Counter](r, name, help, kindCounter, labels)
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return series[Gauge](r, name, help, kindGauge, labels)
}

// Histogram returns (creating if needed) the histogram series
// name{labels}.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return series[Histogram](r, name, help, kindHistogram, labels)
}

// RatioHistogram returns (creating if needed) the ratio-histogram
// series name{labels}. It exposes as a Prometheus histogram with
// linear [0,1] buckets.
func (r *Registry) RatioHistogram(name, help string, labels Labels) *RatioHistogram {
	return series[RatioHistogram](r, name, help, kindHistogram, labels)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format
// (version 0.0.4), with families and series sorted for stable output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			switch m := f.series[k].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, k, formatFloat(m.Value()))
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, k, formatFloat(m.Value()))
			case *Histogram: // at the internal/metrics bounds, in seconds
				writeHistogram(w, f.name, k, m.counts[:], func(i int) float64 { return metrics.BucketBound(i).Seconds() }, m.Sum().Seconds(), m.Count())
			case *RatioHistogram: // linear bounds 0.1 … 1
				writeHistogram(w, f.name, k, m.counts[:], func(i int) float64 { return float64(i+1) / ratioBuckets }, m.Sum(), m.Count())
			}
		}
		f.mu.Unlock()
	}
}

// writeHistogram renders one histogram series: cumulative le buckets,
// the last +Inf and each other at bound(i), then sum and count.
func writeHistogram(w io.Writer, name, labels string, counts []atomic.Int64, bound func(int) float64, sum float64, n int64) {
	var cum int64
	for i := range counts {
		cum += counts[i].Load()
		le := "+Inf"
		if i < len(counts)-1 {
			le = formatFloat(bound(i))
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withExtraLabel(labels, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, n)
}
