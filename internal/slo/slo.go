// Package slo judges every function against one service-level
// objective, with multi-window burn-rate computation in the Google SRE
// style: a pair of paired windows (fast 5m/1h, slow 30m/6h) over
// sliding bucketed counters. A burn rate of 1 means the function is consuming error
// budget at exactly the rate that exhausts it at the objective
// horizon; a fast-window burn > threshold with the paired long window
// also burning is the page condition. Reports are mergeable so the
// gateway can roll up daemon-local engines into a cluster view by
// summing good/bad counts per function and window before recomputing
// rates.
package slo

import (
	"sort"
	"sync"
	"time"
)

// Objective is the service objective every function is judged
// against. Latency is judged against real server wall time;
// availability against the HTTP outcome class.
type Objective struct {
	// Latency is the per-request latency bound; a served request slower
	// than this is "bad" even when it succeeds.
	Latency time.Duration `json:"latency"`
	// Target is the objective attainment target in (0,1), e.g. 0.99.
	// The error budget is 1-Target.
	Target float64 `json:"target"`
}

// DefaultObjective is the objective a function gets unless configured:
// 500ms at a 99% target.
func DefaultObjective() Objective {
	return Objective{Latency: 500 * time.Millisecond, Target: 0.99}
}

func (o Objective) withDefaults() Objective {
	d := DefaultObjective()
	if o.Latency <= 0 {
		o.Latency = d.Latency
	}
	if o.Target <= 0 || o.Target >= 1 {
		o.Target = d.Target
	}
	return o
}

// windows are the burn-rate window pairs, {5m, 1h} and {30m, 6h}: each
// fast window catches a burn quickly, and its confirming slow window
// keeps a short blip from paging.
var windows = [...]struct{ fast, slow time.Duration }{
	{5 * time.Minute, time.Hour},
	{30 * time.Minute, 6 * time.Hour},
}

// windowBuckets is the resolution of each sliding window: counts are
// kept in windowBuckets fixed-width buckets, so Record is O(1) and a
// window's error is at most one bucket width.
const windowBuckets = 60

// slidingWindow counts good/bad outcomes over the trailing span.
type slidingWindow struct {
	span    time.Duration
	width   time.Duration
	good    [windowBuckets]int64
	bad     [windowBuckets]int64
	current int   // bucket index of `stamp`
	stamp   int64 // bucket epoch (unix nanos / width) of the current bucket
}

func newSlidingWindow(span time.Duration) *slidingWindow {
	w := span / windowBuckets
	if w <= 0 {
		w = time.Second
	}
	return &slidingWindow{span: span, width: w}
}

// advance rotates the ring forward to the bucket containing now,
// zeroing skipped buckets.
func (s *slidingWindow) advance(now time.Time) {
	epoch := now.UnixNano() / int64(s.width)
	if s.stamp == 0 {
		s.stamp = epoch
		return
	}
	steps := epoch - s.stamp
	if steps <= 0 {
		return
	}
	if steps > windowBuckets {
		steps = windowBuckets
	}
	for i := int64(0); i < steps; i++ {
		s.current = (s.current + 1) % windowBuckets
		s.good[s.current] = 0
		s.bad[s.current] = 0
	}
	s.stamp = epoch
}

func (s *slidingWindow) record(now time.Time, good bool) {
	s.advance(now)
	if good {
		s.good[s.current]++
	} else {
		s.bad[s.current]++
	}
}

func (s *slidingWindow) totals(now time.Time) (good, bad int64) {
	s.advance(now)
	for i := 0; i < windowBuckets; i++ {
		good += s.good[i]
		bad += s.bad[i]
	}
	return good, bad
}

// WindowReport is one window's counts and derived burn rate.
type WindowReport struct {
	Window   string  `json:"window"` // e.g. "5m"
	Good     int64   `json:"good"`
	Bad      int64   `json:"bad"`
	BurnRate float64 `json:"burn_rate"`
}

// FunctionReport is one function's SLO state.
type FunctionReport struct {
	Function  string  `json:"function"`
	LatencyMs float64 `json:"latency_ms"`
	Target    float64 `json:"target"`
	Good      int64   `json:"good"` // lifetime
	Bad       int64   `json:"bad"`
	// Attainment is the lifetime good fraction (1 when nothing served).
	Attainment float64        `json:"attainment"`
	Windows    []WindowReport `json:"windows"`
	// Burning is true when any fast window burns > 1 with its paired
	// slow window also > 1 — the "page someone" condition.
	Burning bool `json:"burning"`
}

// Report is the GET /slo payload.
type Report struct {
	Functions []FunctionReport `json:"functions"`
}

// fnState holds one function's engine state.
type fnState struct {
	good, bad int64            // lifetime
	windows   []*slidingWindow // flattened pairs: fast0, slow0, fast1, slow1, ...
	burning   bool             // last page-condition state, for Record's observer
}

// Engine tracks outcomes and computes burn rates.
type Engine struct {
	mu  sync.Mutex
	obj Objective
	now func() time.Time // time.Now; the package's tests advance a fake clock
	fns map[string]*fnState
}

// New returns an engine that judges every function against obj; zero
// fields of obj take DefaultObjective's.
func New(obj Objective) *Engine {
	return &Engine{obj: obj.withDefaults(), now: time.Now, fns: make(map[string]*fnState)}
}

func (e *Engine) state(fn string) *fnState {
	st, ok := e.fns[fn]
	if !ok {
		st = &fnState{}
		for _, p := range windows {
			st.windows = append(st.windows, newSlidingWindow(p.fast), newSlidingWindow(p.slow))
		}
		e.fns[fn] = st
	}
	return st
}

// Judge classifies one served request against the objective: good
// means a 2xx answered within the latency bound. Client errors
// (4xx other than 429) are excluded from the SLO — they do not count
// at all — so Judge returns (counted, good).
func (e *Engine) Judge(status int, wall time.Duration) (counted, good bool) {
	switch {
	case status/100 == 2:
		return true, wall <= e.obj.Latency
	case status == 429 || status == 504 || status/100 == 5:
		return true, false
	default: // 4xx client errors: not the platform's SLO
		return false, false
	}
}

// Record counts one outcome for fn and evaluates fn's state once. When
// observe is non-nil it receives that state and whether the page
// condition changed with this outcome. observe runs under the engine
// lock, so observers see evaluations in the order the engine made
// them; it must not call back into the engine.
func (e *Engine) Record(fn string, good bool, observe func(fr FunctionReport, pageChanged bool)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	st := e.state(fn)
	if good {
		st.good++
	} else {
		st.bad++
	}
	for _, w := range st.windows {
		w.record(now, good)
	}
	fr := e.reportLocked(fn, st, now)
	changed := fr.Burning != st.burning
	st.burning = fr.Burning
	if observe != nil {
		observe(fr, changed)
	}
}

// burnRate converts window counts to a burn rate: the bad fraction
// divided by the error budget. Zero traffic burns nothing.
func burnRate(good, bad int64, target float64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// evaluate derives everything a report states beyond its counts: the
// lifetime attainment, each window's burn rate, and the page condition —
// a fast window burning above 1 with its paired slow window (the next
// one) also above 1.
func (r *FunctionReport) evaluate() {
	r.Attainment = 1
	if r.Good+r.Bad > 0 {
		r.Attainment = float64(r.Good) / float64(r.Good+r.Bad)
	}
	for i := range r.Windows {
		r.Windows[i].BurnRate = burnRate(r.Windows[i].Good, r.Windows[i].Bad, r.Target)
	}
	r.Burning = false
	for i := 0; i+1 < len(r.Windows); i += 2 {
		if r.Windows[i].BurnRate > 1 && r.Windows[i+1].BurnRate > 1 {
			r.Burning = true
		}
	}
}

func (e *Engine) reportLocked(fn string, st *fnState, now time.Time) FunctionReport {
	fr := FunctionReport{
		Function:  fn,
		LatencyMs: float64(e.obj.Latency) / float64(time.Millisecond),
		Target:    e.obj.Target,
		Good:      st.good,
		Bad:       st.bad,
		Windows:   make([]WindowReport, len(st.windows)),
	}
	for i, w := range st.windows {
		fr.Windows[i].Window = w.span.Truncate(time.Second).String()
		fr.Windows[i].Good, fr.Windows[i].Bad = w.totals(now)
	}
	fr.evaluate()
	return fr
}

// Report snapshots every tracked function, sorted by name.
func (e *Engine) Report() *Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	names := make([]string, 0, len(e.fns))
	for n := range e.fns {
		names = append(names, n)
	}
	sort.Strings(names)
	rep := &Report{}
	for _, n := range names {
		rep.Functions = append(rep.Functions, e.reportLocked(n, e.fns[n], now))
	}
	return rep
}

// Merge combines daemon-local reports into a cluster view: counts sum
// per function and per window label, windows keep the order they were
// first seen in (so the fast/slow pairing survives), and the objective
// is taken from the first report mentioning the function (they agree
// when daemons share configuration). Attainment, burn rates and the
// page condition are then evaluated from the merged counts.
func Merge(reports []*Report) *Report {
	fns := make(map[string]*FunctionReport)
	var names []string
	for _, r := range reports {
		if r == nil {
			continue
		}
		for _, fr := range r.Functions {
			agg, ok := fns[fr.Function]
			if !ok {
				agg = &FunctionReport{Function: fr.Function, LatencyMs: fr.LatencyMs, Target: fr.Target}
				fns[fr.Function] = agg
				names = append(names, fr.Function)
			}
			agg.Good += fr.Good
			agg.Bad += fr.Bad
		next:
			for _, w := range fr.Windows {
				for i := range agg.Windows {
					if aw := &agg.Windows[i]; aw.Window == w.Window {
						aw.Good += w.Good
						aw.Bad += w.Bad
						continue next
					}
				}
				agg.Windows = append(agg.Windows, WindowReport{Window: w.Window, Good: w.Good, Bad: w.Bad})
			}
		}
	}
	sort.Strings(names)
	out := &Report{}
	for _, n := range names {
		agg := fns[n]
		agg.evaluate()
		out.Functions = append(out.Functions, *agg)
	}
	return out
}

// Burning lists the names of budget-burning functions in r.
func (r *Report) Burning() []string {
	var out []string
	for _, f := range r.Functions {
		if f.Burning {
			out = append(out, f.Function)
		}
	}
	return out
}
