package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got, err := percentile(v, 95); err != nil || got != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if _, err := percentile(v, 99); err == nil {
		t.Fatal("p99 of 200 samples has 2 beyond it and was not refused")
	}
	if _, err := percentile(v[:199], 95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and was not refused")
	}
	if got := percentileOrZero(v, 99); got != 0 {
		t.Fatalf("percentileOrZero of a refused tail = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 3 values = %v, %v; want 1, 3", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of 2 values = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, 27.5/13.5)
	}
}

func TestPerCellMedianWeightsCellsEqually(t *testing.T) {
	got := perCellMedian(map[int][]float64{
		0: {10, 10, 10, 10, 10, 10, 10, 10, 1000}, // many samples, one outlier
		1: {100},
	})
	if got != 55 {
		t.Fatalf("perCellMedian = %v, want 55", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadDefs {
		a, err := inputsFor(w.Name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := inputsFor(w.Name, 7)
		c, _ := inputsFor(w.Name, 8)
		if !reflect.DeepEqual(a.fns, b.fns) || !reflect.DeepEqual(a.cells, b.cells) {
			t.Errorf("%s: specs differ between two builds of seed 7", w.Name)
		}
		differs := false
		for blk := 0; blk < 3; blk++ {
			if !reflect.DeepEqual(a.block(blk), b.block(blk)) {
				t.Errorf("%s: block %d differs between two builds of seed 7", w.Name, blk)
			}
			if !reflect.DeepEqual(a.block(blk), c.block(blk)) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same op sequence", w.Name)
		}
		if reflect.DeepEqual(a.block(0), a.block(1)) {
			t.Errorf("%s: blocks 0 and 1 of one seed are in the same order", w.Name)
		}
	}
}

// Every block holds the same multiset of cells, each cell at least
// once, whatever the seed: that is what makes virt_total_ms and the
// exact counts independent of the seed.
func TestBlocksHoldTheSameMixForEverySeed(t *testing.T) {
	count := func(ops []op) map[int]int {
		m := map[int]int{}
		for _, o := range ops {
			m[o.Cell]++
		}
		return m
	}
	for _, w := range workloadDefs {
		a, _ := inputsFor(w.Name, 1)
		b, _ := inputsFor(w.Name, 99)
		want := count(a.block(0))
		if len(want) != len(a.cells) {
			t.Errorf("%s: a block covers %d of %d cells", w.Name, len(want), len(a.cells))
		}
		if len(a.block(0)) != a.blockLen {
			t.Errorf("%s: block of %d ops, blockLen %d", w.Name, len(a.block(0)), a.blockLen)
		}
		for _, got := range []map[int]int{count(a.block(5)), count(b.block(0))} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cell mix differs between blocks or seeds", w.Name)
			}
		}
	}
}

// A shared-image group must record its first member first on every
// seed, or which function pays for the shared chunks would move.
func TestRecordSyncGroupsKeepTheirOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := recordSyncInputs(seed)
		last := map[int]int{} // group -> index within the group last seen
		group := map[int][2]int{}
		for g, cells := range in.groups {
			for i, c := range cells {
				group[c] = [2]int{g, i}
			}
		}
		for _, o := range in.block(0) {
			g, i := group[o.Cell][0], group[o.Cell][1]
			if prev, seen := last[g]; (seen && i != prev+1) || (!seen && i != 0) {
				t.Fatalf("seed %d: group %d out of order", seed, g)
			}
			last[g] = i
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	at := func(a, b int) (time.Duration, time.Duration) {
		return time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond
	}
	mk := func(a, b int) span { s, e := at(a, b); return span{Start: s, End: e} }
	parent := mk(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{mk(10, 20), mk(50, 70)}, 70},
		{"overlapping", []span{mk(10, 40), mk(30, 60)}, 50},
		{"nested", []span{mk(10, 60), mk(20, 30)}, 50},
		{"unsorted and touching", []span{mk(50, 60), mk(40, 50)}, 80},
		{"clipped to the parent", []span{mk(-20, 10), mk(90, 150)}, 80},
		{"outside the parent", []span{mk(120, 150)}, 100},
		{"covering", []span{mk(-5, 200)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %d ms", tc.name, got, tc.want)
		}
	}
}

func TestSpanLogGroupsByCellAndJudgesTheReplay(t *testing.T) {
	l := newSpanLog()
	o := l.forOp(0, 3, "cell-3")
	o.within(0, "daemon.handler", func() { time.Sleep(4 * time.Millisecond) })
	id := o.begin(0, "replay")
	o.within(id, "core.invoke", func() { time.Sleep(2 * time.Millisecond) })
	o.end(id)
	if got := l.byCell("core.invoke")[3]; len(got) != 1 || got[0] < 2 {
		t.Fatalf("core.invoke under cell 3: %v", got)
	}
	// The replayed step took about half of the handler.
	if ex, n := l.replayExcess(); n != 1 || ex > -0.2 || ex < -0.8 {
		t.Fatalf("replay excess %v over %d ops, want about -0.5 over 1", ex, n)
	}
	// A nil log is tracing off: the function still runs.
	ran := false
	(*spanLog)(nil).forOp(0, 0, "").within(0, "x", func() { ran = true })
	if !ran {
		t.Fatal("within on a nil log did not run the function")
	}
}

func TestGoldenMissingCellIsAFailure(t *testing.T) {
	g := &golden{cells: map[string]virtuals{"a/faasnap/B": {TotalMs: 10, Faults: 3}}, fresh: map[string]bool{}}
	if !g.check("a/faasnap/B", virtuals{TotalMs: 10 * (1 + 1e-12), Faults: 3}) {
		t.Error("a value within the relative tolerance was rejected")
	}
	if g.check("a/faasnap/B", virtuals{TotalMs: 10.001, Faults: 3}) || g.check("a/faasnap/B", virtuals{TotalMs: 10, Faults: 4}) {
		t.Error("a changed value was accepted")
	}
	if g.check("b/faasnap/B", virtuals{}) {
		t.Error("a cell the golden does not hold was accepted")
	}
	// Updating: the first reply of a cell is recorded, the next must repeat it.
	u := &golden{cells: map[string]virtuals{}, fresh: map[string]bool{}, updating: true}
	if !u.check("c", virtuals{TotalMs: 1}) || !u.check("c", virtuals{TotalMs: 1}) || u.check("c", virtuals{TotalMs: 2}) {
		t.Error("update mode did not pin a cell to its first reply")
	}
}

func TestGoldenHoldsEveryCell(t *testing.T) {
	g, err := loadGolden(false)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, w := range workloadDefs {
		in, _ := inputsFor(w.Name, 1)
		for _, c := range in.cells {
			want++
			if v, ok := g.cells[c.key()]; !ok || v.TotalMs <= 0 {
				t.Errorf("golden.json has no entry for %s cell %s", w.Name, c.key())
			}
		}
	}
	if len(g.cells) != want {
		t.Errorf("golden.json holds %d cells, the workloads run %d", len(g.cells), want)
	}
}

// BENCHMARK.json is what the driver reads; spec.go is what the program
// prints. They must agree on every name, unit, direction and bound,
// and stay inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n json %v\n spec %v", doc.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n spec %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n spec %v", doc.PerLayer, perLayer)
	}
	if doc.RunSeconds != defaultSeconds || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d, program default %d, allowed 1..60", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}

	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, allowed 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, allowed 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, allowed 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1..64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}

func TestResultLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	wr := &workloadReport{Attempted: 12, Failed: 1,
		EndToEnd: measured{"setup_s": 1.5}, PerLayer: measured{"core.share": 0.5}}
	for trace, defs := range map[int][]metricDef{0: endToEnd, 1: perLayer} {
		var got struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(wr.resultLine(trace)), &got); err != nil {
			t.Fatal(err)
		}
		if got.Correct || got.Attempted != 12 || got.Failed != 1 || len(got.Metrics) != len(defs) {
			t.Errorf("trace %d: %+v", trace, got)
		}
		for _, d := range defs {
			if mv, ok := got.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
				t.Errorf("trace %d: metric %s missing or in the wrong unit", trace, d.Name)
			}
		}
	}
}
