package slo

import (
	"reflect"
	"testing"
	"time"
)

// near reports |a-b| within float rounding slack.
func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// fakeClock is an injectable, manually-advanced clock.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }
func newTestEngine(c *fakeClock, obj Objective) *Engine {
	e := New(obj)
	e.now = c.Now
	return e
}

func TestJudgeClassification(t *testing.T) {
	e := New(Objective{Latency: 100 * time.Millisecond, Target: 0.99})
	cases := []struct {
		status        int
		wall          time.Duration
		counted, good bool
	}{
		{200, 50 * time.Millisecond, true, true},
		{200, 150 * time.Millisecond, true, false}, // slow success burns budget
		{429, 0, true, false},
		{504, 0, true, false},
		{500, 0, true, false},
		{503, 0, true, false},
		{404, 0, false, false}, // client error: excluded
		{400, 0, false, false},
	}
	for _, c := range cases {
		counted, good := e.Judge(c.status, c.wall)
		if counted != c.counted || good != c.good {
			t.Errorf("Judge(%d, %v) = (%v, %v), want (%v, %v)",
				c.status, c.wall, counted, good, c.counted, c.good)
		}
	}
}

func TestBurnRateMath(t *testing.T) {
	// With target 0.99 the budget is 1%; a 2% bad fraction burns at 2x.
	clk := newFakeClock()
	e := newTestEngine(clk, Objective{Latency: time.Second, Target: 0.99})
	for i := 0; i < 98; i++ {
		e.Record("f", true, nil)
	}
	e.Record("f", false, nil)
	e.Record("f", false, nil)
	rep := e.Report()
	if len(rep.Functions) != 1 {
		t.Fatalf("functions = %d, want 1", len(rep.Functions))
	}
	f := rep.Functions[0]
	if f.Good != 98 || f.Bad != 2 {
		t.Fatalf("lifetime = %d/%d, want 98/2", f.Good, f.Bad)
	}
	if got, want := f.Attainment, 0.98; got != want {
		t.Fatalf("attainment = %g, want %g", got, want)
	}
	// All four windows see all 100 outcomes: burn = 0.02/0.01 = 2.
	if len(f.Windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(f.Windows))
	}
	for _, w := range f.Windows {
		if w.BurnRate < 1.99 || w.BurnRate > 2.01 {
			t.Errorf("window %s burn = %g, want ~2", w.Window, w.BurnRate)
		}
	}
	if !f.Burning {
		t.Error("fast+slow both over 1x should set Burning")
	}
}

func TestWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	e := newTestEngine(clk, Objective{Latency: time.Second, Target: 0.99})
	for i := 0; i < 10; i++ {
		e.Record("f", false, nil)
	}
	// Past both fast windows (5m and 30m) the errors fall out of them
	// but remain in the 1h slow window, so the page condition clears.
	clk.advance(35 * time.Minute)
	f := e.Report().Functions[0]
	if fast := f.Windows[0]; fast.Good+fast.Bad != 0 {
		t.Errorf("5m window still holds %d outcomes after 35m", fast.Good+fast.Bad)
	}
	if slow := f.Windows[1]; slow.Bad != 10 {
		t.Errorf("1h window bad = %d, want 10", slow.Bad)
	}
	if f.Burning {
		t.Error("Burning should clear once the fast window drains")
	}
	// Lifetime counts never expire.
	if f.Bad != 10 {
		t.Errorf("lifetime bad = %d, want 10", f.Bad)
	}
}

// TestRecordObserver: Record hands its one evaluation to the per-call
// observer — every window's burn rate and the attainment the daemon
// publishes as gauges — and flags exactly the outcomes that change the
// page condition.
func TestRecordObserver(t *testing.T) {
	clk := newFakeClock()
	e := newTestEngine(clk, Objective{Latency: time.Second, Target: 0.9})
	var seen []FunctionReport
	var changes []bool
	observe := func(fr FunctionReport, changed bool) {
		seen = append(seen, fr)
		changes = append(changes, changed)
	}
	e.Record("f", false, observe)
	if len(seen) != 1 {
		t.Fatalf("observer ran %d times for one outcome, want 1", len(seen))
	}
	f := seen[0]
	if f.Function != "f" || len(f.Windows) != 4 {
		t.Fatalf("observed %+v, want f with 4 windows", f)
	}
	if w := f.Windows[0]; w.Window != "5m0s" || !near(w.BurnRate, 10) { // 100% bad / 10% budget
		t.Errorf("5m window = %+v, want burn 10", w)
	}
	if f.Attainment != 0 {
		t.Errorf("attainment = %g, want 0", f.Attainment)
	}
	if !f.Burning || !changes[0] {
		t.Errorf("first bad outcome: burning %v, changed %v; want a page", f.Burning, changes[0])
	}

	// Good outcomes dilute the lone bad one below the 10% budget: the
	// page clears once, and stays cleared.
	for i := 0; i < 20; i++ {
		e.Record("f", true, observe)
	}
	var flips []int
	for i, c := range changes {
		if c {
			flips = append(flips, i)
		}
	}
	if len(flips) != 2 || flips[0] != 0 || seen[flips[1]].Burning || seen[len(seen)-1].Burning {
		t.Fatalf("page changed at outcomes %v, want the first and the one that clears it", flips)
	}
	if rep := e.Report().Functions[0]; !reflect.DeepEqual(rep, seen[len(seen)-1]) {
		t.Errorf("Report() = %+v, differs from the last observed evaluation %+v", rep, seen[len(seen)-1])
	}
}

func TestMerge(t *testing.T) {
	mkReport := func(fn string, good, bad int64) *Report {
		return &Report{Functions: []FunctionReport{{
			Function: fn, LatencyMs: 500, Target: 0.99, Good: good, Bad: bad,
			Windows: []WindowReport{
				{Window: "5m0s", Good: good, Bad: bad},
				{Window: "1h0m0s", Good: good, Bad: bad},
			},
		}}}
	}
	merged := Merge([]*Report{mkReport("f", 90, 10), mkReport("f", 100, 0), nil, mkReport("g", 50, 0)})
	if len(merged.Functions) != 2 {
		t.Fatalf("merged functions = %d, want 2", len(merged.Functions))
	}
	f := merged.Functions[0]
	if f.Function != "f" || f.Good != 190 || f.Bad != 10 {
		t.Fatalf("merged f = %+v, want good 190 bad 10", f)
	}
	// 10/200 bad over a 1% budget: burn recomputed from merged counts.
	if w := f.Windows[0]; w.Window != "5m0s" || !near(w.BurnRate, 5) {
		t.Fatalf("merged 5m window = %+v, want burn 5", w)
	}
	if !f.Burning {
		t.Error("merged fast+slow both over 1x should set Burning")
	}
	if got := merged.Burning(); len(got) != 1 || got[0] != "f" {
		t.Errorf("Burning() = %v, want [f]", got)
	}
	if g := merged.Functions[1]; g.Burning || g.Attainment != 1 {
		t.Errorf("merged g = %+v, want healthy", g)
	}
}
