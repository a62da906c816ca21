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
	burning   bool             // last page-condition state, for transition callbacks
}

// Gauges receives burn-rate/attainment updates as they change; wired
// to the telemetry registry by the daemon (kept as an interface so the
// package stays dependency-free and testable).
type Gauges interface {
	SetBurnRate(function, window string, v float64)
	SetAttainment(function string, v float64)
}

// Config configures an Engine.
type Config struct {
	// Default is the objective every function is judged against; zero
	// fields take DefaultObjective's.
	Default Objective
	// Now is the clock (time.Now if nil) — injectable for tests.
	Now func() time.Time
	// Gauges, when set, receives burn-rate/attainment updates on Record.
	Gauges Gauges
	// OnPage, when set, fires on page-condition transitions: burning
	// true when fn enters the page condition (a fast window burning > 1
	// with its paired slow window also > 1), false when it recovers.
	// Called under the engine lock; must not call back into the engine.
	OnPage func(function string, burning bool)
}

// Engine tracks outcomes and computes burn rates.
type Engine struct {
	mu  sync.Mutex
	cfg Config
	fns map[string]*fnState
}

// New returns an engine with cfg's defaults applied.
func New(cfg Config) *Engine {
	cfg.Default = cfg.Default.withDefaults()
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Engine{cfg: cfg, fns: make(map[string]*fnState)}
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
		return true, wall <= e.cfg.Default.Latency
	case status == 429 || status == 504 || status/100 == 5:
		return true, false
	default: // 4xx client errors: not the platform's SLO
		return false, false
	}
}

// Record counts one outcome for fn and refreshes gauges.
func (e *Engine) Record(fn string, good bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Now()
	st := e.state(fn)
	if good {
		st.good++
	} else {
		st.bad++
	}
	for _, w := range st.windows {
		w.record(now, good)
	}
	if e.cfg.Gauges != nil {
		e.publishLocked(fn, st, now)
	}
	if e.cfg.OnPage != nil {
		if burning := e.burningLocked(st, now); burning != st.burning {
			st.burning = burning
			e.cfg.OnPage(fn, burning)
		}
	}
}

// burningLocked evaluates the page condition: any fast window burning
// above 1 with its paired slow window also above 1.
func (e *Engine) burningLocked(st *fnState, now time.Time) bool {
	for i := range windows {
		fg, fb := st.windows[2*i].totals(now)
		sg, sb := st.windows[2*i+1].totals(now)
		if burnRate(fg, fb, e.cfg.Default.Target) > 1 && burnRate(sg, sb, e.cfg.Default.Target) > 1 {
			return true
		}
	}
	return false
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

func windowLabel(d time.Duration) string {
	return d.Truncate(time.Second).String()
}

func (e *Engine) publishLocked(fn string, st *fnState, now time.Time) {
	for i, p := range windows {
		for j, span := range []time.Duration{p.fast, p.slow} {
			g, b := st.windows[2*i+j].totals(now)
			e.cfg.Gauges.SetBurnRate(fn, windowLabel(span), burnRate(g, b, e.cfg.Default.Target))
		}
	}
	att := 1.0
	if st.good+st.bad > 0 {
		att = float64(st.good) / float64(st.good+st.bad)
	}
	e.cfg.Gauges.SetAttainment(fn, att)
}

func (e *Engine) reportLocked(fn string, st *fnState, now time.Time) FunctionReport {
	fr := FunctionReport{
		Function:  fn,
		LatencyMs: float64(e.cfg.Default.Latency) / float64(time.Millisecond),
		Target:    e.cfg.Default.Target,
		Good:      st.good,
		Bad:       st.bad,
	}
	fr.Attainment = 1
	if st.good+st.bad > 0 {
		fr.Attainment = float64(st.good) / float64(st.good+st.bad)
	}
	for i, p := range windows {
		fg, fb := st.windows[2*i].totals(now)
		sg, sb := st.windows[2*i+1].totals(now)
		fastBurn := burnRate(fg, fb, e.cfg.Default.Target)
		slowBurn := burnRate(sg, sb, e.cfg.Default.Target)
		fr.Windows = append(fr.Windows,
			WindowReport{Window: windowLabel(p.fast), Good: fg, Bad: fb, BurnRate: fastBurn},
			WindowReport{Window: windowLabel(p.slow), Good: sg, Bad: sb, BurnRate: slowBurn},
		)
		if fastBurn > 1 && slowBurn > 1 {
			fr.Burning = true
		}
	}
	return fr
}

// Report snapshots every tracked function, sorted by name.
func (e *Engine) Report() *Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Now()
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
// per function and window label, burn rates and attainment are
// recomputed from the merged counts, and the objective is taken from
// the first report mentioning the function (they agree when daemons
// share configuration).
func Merge(reports []*Report) *Report {
	type winKey struct{ fn, win string }
	type winAgg struct {
		good, bad int64
		order     int
	}
	fns := make(map[string]*FunctionReport)
	wins := make(map[winKey]*winAgg)
	order := 0
	for _, r := range reports {
		if r == nil {
			continue
		}
		for i := range r.Functions {
			fr := &r.Functions[i]
			agg, ok := fns[fr.Function]
			if !ok {
				agg = &FunctionReport{Function: fr.Function, LatencyMs: fr.LatencyMs, Target: fr.Target}
				fns[fr.Function] = agg
			}
			agg.Good += fr.Good
			agg.Bad += fr.Bad
			for _, w := range fr.Windows {
				k := winKey{fr.Function, w.Window}
				wa, ok := wins[k]
				if !ok {
					wa = &winAgg{order: order}
					order++
					wins[k] = wa
				}
				wa.good += w.Good
				wa.bad += w.Bad
			}
		}
	}
	names := make([]string, 0, len(fns))
	for n := range fns {
		names = append(names, n)
	}
	sort.Strings(names)
	out := &Report{}
	for _, n := range names {
		agg := fns[n]
		agg.Attainment = 1
		if agg.Good+agg.Bad > 0 {
			agg.Attainment = float64(agg.Good) / float64(agg.Good+agg.Bad)
		}
		// Collect this function's windows in first-seen order so the
		// fast/slow pairing from the source reports is preserved.
		type kw struct {
			key winKey
			agg *winAgg
		}
		var ks []kw
		for k, wa := range wins {
			if k.fn == n {
				ks = append(ks, kw{k, wa})
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].agg.order < ks[j].agg.order })
		for _, k := range ks {
			agg.Windows = append(agg.Windows, WindowReport{
				Window:   k.key.win,
				Good:     k.agg.good,
				Bad:      k.agg.bad,
				BurnRate: burnRate(k.agg.good, k.agg.bad, agg.Target),
			})
		}
		// Re-derive the page condition from merged adjacent pairs.
		for i := 0; i+1 < len(agg.Windows); i += 2 {
			if agg.Windows[i].BurnRate > 1 && agg.Windows[i+1].BurnRate > 1 {
				agg.Burning = true
			}
		}
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
