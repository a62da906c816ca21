package core

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"faasnap/internal/pagebits"
	"faasnap/internal/sim"
	"faasnap/internal/snapshot"
	"faasnap/internal/workingset"
	"faasnap/internal/workload"
)

// referenceMappingPlan is MappingPlan as it was when every restore
// rebuilt it: a scan of the memory file and a fresh slice per call.
func referenceMappingPlan(a *Artifacts, withLoadingSet bool) []MapRegion {
	plan := []MapRegion{{Start: 0, Pages: a.Fn.GuestConfig().Pages, Backing: MapAnon}}
	for _, reg := range a.Mem.NonZeroRegions() {
		plan = append(plan, MapRegion{Start: reg.Start, Pages: reg.Len, Backing: MapMemoryFile, FileOff: reg.Start})
	}
	if withLoadingSet {
		for i, reg := range a.LS.Regions {
			plan = append(plan, MapRegion{Start: reg.Start, Pages: reg.Len, Backing: MapLoadingSet, FileOff: a.LS.Offsets[i]})
		}
	}
	return plan
}

// referencePrefetchSet is prefetchSet as it was when every traced
// invoke rebuilt the bitmap a page at a time.
func referencePrefetchSet(arts *Artifacts, mode Mode, lsDegraded bool) *pagebits.Set {
	set := pagebits.New(arts.Fn.GuestConfig().Pages)
	addRegions := func(regions []snapshot.Region) {
		for _, reg := range regions {
			for p := reg.Start; p < reg.End(); p++ {
				set.Add(p)
			}
		}
	}
	switch mode {
	case ModeFaaSnap:
		if lsDegraded {
			addRegions(arts.LSUnmerged.Regions)
		} else {
			addRegions(arts.LS.Regions)
		}
	case ModePerRegion:
		addRegions(arts.LSUnmerged.Regions)
	case ModeConcurrentPaging:
		for _, g := range arts.WS.Groups {
			for _, p := range g {
				set.Add(p)
			}
		}
	case ModeREAP:
		for _, p := range arts.ReapWS.Pages {
			set.Add(p)
		}
	default:
		return nil
	}
	return set
}

// setRuns lists a page set's runs, nil for no set.
func setRuns(s *pagebits.Set) [][2]int64 {
	if s == nil {
		return nil
	}
	runs := [][2]int64{}
	s.Runs(func(start, end int64) { runs = append(runs, [2]int64{start, end}) })
	return runs
}

// checkDerived compares everything the holder serves with the per-call
// derivations, twice: the first call fills, the second reads.
func checkDerived(t *testing.T, what string, a *Artifacts) {
	t.Helper()
	for call := 1; call <= 2; call++ {
		if got, want := a.NonZeroRegions(), a.Mem.NonZeroRegions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: call %d: NonZeroRegions differs from a scan", what, call)
		}
		for _, withLS := range []bool{false, true} {
			if got, want := a.MappingPlan(withLS), referenceMappingPlan(a, withLS); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: call %d: MappingPlan(%v) has %d regions, reference %d", what, call, withLS, len(got), len(want))
			}
		}
		for mode := Mode(0); mode < numModes; mode++ {
			for _, degraded := range []bool{false, true} {
				if got, want := setRuns(a.prefetchSet(mode, degraded)), setRuns(referencePrefetchSet(a, mode, degraded)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: call %d: prefetchSet(%v, degraded=%v) differs from the reference", what, call, mode, degraded)
				}
			}
		}
	}
}

// TestCloneStartsWithNothingDerived: a clone whose LS (or WS) is
// replaced serves plans and prefetch sets of the new sets, the original
// keeps serving its own, and Clone carries every exported field over.
func TestCloneStartsWithNothingDerived(t *testing.T) {
	base := artifactsFor(t, "hello-world")
	checkDerived(t, "base", base)
	basePlan := base.MappingPlan(true)

	variant := base.Clone()
	bv, vv := reflect.ValueOf(base).Elem(), reflect.ValueOf(variant).Elem()
	for i := 0; i < bv.NumField(); i++ {
		if f := bv.Type().Field(i); f.IsExported() && !reflect.DeepEqual(bv.Field(i).Interface(), vv.Field(i).Interface()) {
			t.Fatalf("Clone dropped field %s", f.Name)
		}
	}
	variant.LS = workingset.BuildLoadingSet(base.WS, base.Mem, 0)
	first := base.WS.Groups[0]
	variant.WS = &workingset.WorkingSet{Groups: [][]int64{first[:len(first)/2]}}
	if len(variant.LS.Regions) == len(base.LS.Regions) {
		t.Fatal("gap-0 loading set has as many regions as the merged one; the test needs them to differ")
	}
	checkDerived(t, "variant", variant)
	lsMaps := 0
	for _, m := range variant.MappingPlan(true) {
		if m.Backing == MapLoadingSet {
			lsMaps++
		}
	}
	if lsMaps != len(variant.LS.Regions) {
		t.Fatalf("variant plan maps %d loading-set regions, its LS has %d (the original's has %d)", lsMaps, len(variant.LS.Regions), len(base.LS.Regions))
	}
	checkDerived(t, "base after variant", base)
	if after := base.MappingPlan(true); &after[0] != &basePlan[0] {
		t.Fatal("the original's plan was rebuilt; it should be the one shared slice")
	}
}

// TestDerivedConcurrentFirstUse races 16 goroutines on one Artifacts
// whose holder is still empty (run with -race): plans, regions and full
// traced invocations, all of which must agree.
func TestDerivedConcurrentFirstUse(t *testing.T) {
	arts := artifactsFor(t, "hello-world").Clone()
	cfg := DefaultHostConfig()
	want := referenceMappingPlan(arts, true)
	totals := make([]int64, 16)
	var wg sync.WaitGroup
	for i := range totals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !reflect.DeepEqual(arts.MappingPlan(i%2 == 0), referenceMappingPlan(arts, i%2 == 0)) ||
				!reflect.DeepEqual(arts.MappingPlan(true), want) {
				t.Error("concurrent MappingPlan differs from the reference")
			}
			arts.NonZeroRegions()
			mode := []Mode{ModeFaaSnap, ModeREAP}[i%2]
			var r *InvokeResult
			if i%4 < 2 {
				r = RunSingleTraced(cfg, arts, mode, arts.Fn.B)
			} else {
				r = RunSingle(cfg, arts, mode, arts.Fn.B)
			}
			totals[i] = int64(r.Total)
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(totals); i++ {
		if totals[i] != totals[i%2] {
			t.Fatalf("invocation %d took %d ns, invocation %d (same mode) %d", i, totals[i], i%2, totals[i%2])
		}
	}
}

// TestInvokeAllocationBudget is the CI-visible half of the benchmark's
// alloc_mb_per_op: one traced image/B invocation must stay within
// 0.75 MB and 2 500 heap objects in each paper mode, and FaaSnap's few
// hundred mmaps may not cost more than a quarter over Firecracker's
// one; a small function's FaaSnap invoke (the small-gateway shape)
// must stay within 0.035 MB (0.037 MB while every simulation allocated
// its own random source). (Before the page state moved onto sparse
// pagebits leaves and the fault event shrank to 32 bytes: 1.07 / 1.03
// / 1.03 / 0.92 MB for faasnap / firecracker / reap / cached, and
// 0.34 MB for the small function; before the VMA splice and the
// per-snapshot derivations: 55.5 / 12.1 / 11.5 / 11.6 MB; before the
// direct hand-off kernel: 1.8–2.2 MB and 29k–48k objects.)
func TestInvokeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	// The budgets were read on go1.24; allocation sizes move between
	// releases.
	if v := runtime.Version(); !strings.HasPrefix(v, "go1.24") {
		t.Logf("the budgets were read on go1.24 and this is %s: a miss is a finding about the toolchain, not a flake", v)
	}
	const budgetMallocs = 2500
	cfg := DefaultHostConfig()
	perInvoke := func(arts *Artifacts, mode Mode, in workload.Input) (mb, mallocs float64) {
		RunSingleTraced(cfg, arts, mode, in) // fill what is derived once
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			RunSingleTraced(cfg, arts, mode, in)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20),
			float64(after.Mallocs-before.Mallocs) / runs
	}
	image, small := artifactsFor(t, "image"), smallArtifacts(t, 7)
	mb := map[Mode]float64{}
	for _, c := range []struct {
		arts     *Artifacts
		mode     Mode
		in       workload.Input
		budgetMB float64
	}{
		{image, ModeFaaSnap, image.Fn.B, 0.75},
		{image, ModeFirecracker, image.Fn.B, 0.75},
		{image, ModeREAP, image.Fn.B, 0.75},
		{image, ModeCached, image.Fn.B, 0.75},
		{small, ModeFaaSnap, small.Fn.A, 0.035},
	} {
		cellMB, mallocs := perInvoke(c.arts, c.mode, c.in)
		t.Logf("%-12s %-12s %.3f MB, %.0f objects per traced invoke", c.arts.Fn.Name, c.mode, cellMB, mallocs)
		if cellMB > c.budgetMB {
			t.Errorf("%s %v allocates %.3f MB per invoke, budget %.2f MB", c.arts.Fn.Name, c.mode, cellMB, c.budgetMB)
		}
		if mallocs > budgetMallocs {
			t.Errorf("%s %v allocates %.0f objects per invoke, budget %d", c.arts.Fn.Name, c.mode, mallocs, budgetMallocs)
		}
		if c.arts == image {
			mb[c.mode] = cellMB
		}
	}
	if mb[ModeFaaSnap] > 1.25*mb[ModeFirecracker] {
		t.Errorf("faasnap allocates %.1f MB per invoke, more than 1.25x firecracker's %.1f MB", mb[ModeFaaSnap], mb[ModeFirecracker])
	}
}

// TestInvokeSwitchBudget pins the DES kernel's work for one image/B
// invocation in each paper mode. When every processor-sharing wake
// resumed its burst's goroutine, the invocations made 3 615 / 4 737 /
// 4 642 / 3 623 hand-offs; deciding those wakes on the kernel's stack
// must keep them within budget and deliver exactly the same events.
func TestInvokeSwitchBudget(t *testing.T) {
	arts := artifactsFor(t, "image")
	for _, c := range []struct {
		mode             Mode
		events, handoffs uint64
	}{
		{ModeFaaSnap, 11576, 250},
		{ModeFirecracker, 19939, 1500},
		{ModeREAP, 19619, 1500},
		{ModeCached, 16619, 250},
	} {
		h := NewHost(DefaultHostConfig())
		d := h.Deploy(arts, "")
		h.Env.Go("invoke-driver", func(p *sim.Proc) { d.Invoke(p, c.mode, arts.Fn.B) })
		h.Env.Run()
		events, handoffs := h.Env.Work()
		t.Logf("%-12s %d events, %d hand-offs", c.mode, events, handoffs)
		if events != c.events {
			t.Errorf("%v delivers %d events, want exactly %d", c.mode, events, c.events)
		}
		if handoffs > c.handoffs {
			t.Errorf("%v makes %d hand-offs, budget %d", c.mode, handoffs, c.handoffs)
		}
	}
}

// TestBurstCellWork pins the DES kernel's work and the virtual result of
// one burst-direct cell: 16 json/B invocations in Firecracker mode, each
// VM on its own snapshot files, contending for the host's cores through
// cpu.PS. The processor-sharing share moves at every start and end of a
// compute burst, so the cell checks that each broadcast reaches its
// waiters in order and re-arms every timer under the key it had when
// each signal was a heap event of its own.
func TestBurstCellWork(t *testing.T) {
	arts := artifactsFor(t, "json")
	br, env := runBurst(DefaultHostConfig(), arts, ModeFirecracker, arts.Fn.B, 16, false)
	events, handoffs := env.Work()
	var total time.Duration
	for _, r := range br.Results {
		total += r.Total
	}
	t.Logf("%d events, %d hand-offs, Σ total %v", events, handoffs, total)
	if events != 871713 || handoffs != 144501 {
		t.Errorf("%d events and %d hand-offs, want exactly 871713 and 144501", events, handoffs)
	}
	if want := 5632752337 * time.Nanosecond; total != want {
		t.Errorf("Σ total = %v, want exactly %v", total, want)
	}
}
