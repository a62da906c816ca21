package core

import (
	"testing"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/metrics"
	"faasnap/internal/sim"
	"faasnap/internal/workload"
)

// rec caches record-phase artifacts per function for the test binary.
var recCache = map[string]*Artifacts{}

func artifactsFor(t testing.TB, name string) *Artifacts {
	t.Helper()
	if a, ok := recCache[name]; ok {
		return a
	}
	fn, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	arts, _ := Record(DefaultHostConfig(), fn, fn.A)
	recCache[name] = arts
	return arts
}

func run(t testing.TB, name string, mode Mode, useB bool) *InvokeResult {
	t.Helper()
	arts := artifactsFor(t, name)
	in := arts.Fn.A
	if useB {
		in = arts.Fn.B
	}
	return RunSingle(DefaultHostConfig(), arts, mode, in)
}

func TestModeStringsRoundTrip(t *testing.T) {
	for m := Mode(0); m < numModes; m++ {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode(bogus) did not error")
	}
}

func TestRecordProducesArtifacts(t *testing.T) {
	fn, _ := workload.ByName("hello-world")
	arts, res := Record(DefaultHostConfig(), fn, fn.A)
	if arts.WS.Pages() == 0 || arts.LS.Total == 0 || arts.ReapWS.PageCount() == 0 {
		t.Fatalf("empty artifacts: ws=%d ls=%d reap=%d", arts.WS.Pages(), arts.LS.Total, arts.ReapWS.PageCount())
	}
	// Host page recording captures at least what uffd recording does.
	if arts.WS.Pages() < arts.ReapWS.PageCount() {
		t.Fatalf("mincore WS (%d) smaller than uffd WS (%d)", arts.WS.Pages(), arts.ReapWS.PageCount())
	}
	// The loading set excludes zero pages, so it can't exceed the
	// non-zero page count.
	if arts.LS.Total > arts.Mem.NonZeroPages() {
		t.Fatalf("loading set (%d pages) larger than non-zero set (%d)", arts.LS.Total, arts.Mem.NonZeroPages())
	}
	if res.MincoreScans < 1 || res.LSRegions < 1 {
		t.Fatalf("record result = %+v", res)
	}
	// Merged loading set must have manageably few regions (§4.6).
	if res.LSRegions > 300 {
		t.Fatalf("loading-set regions = %d, want < 300 after merging", res.LSRegions)
	}
	// Freed input pages were sanitized, so the snapshot has zero pages
	// in the heap.
	heap := fn.GuestConfig().HeapStart
	if arts.Mem.IsZero(heap) == (fn.RetainFrac > 0) {
		// First allocated page: retained allocations keep the earliest
		// pages live only if nothing was freed before them; just check
		// the snapshot is not fully non-zero in the heap.
		_ = heap
	}
	if arts.Mem.NonZeroPages() >= arts.Mem.Pages {
		t.Fatal("snapshot has no zero pages at all")
	}
}

func TestHelloWorldModeOrdering(t *testing.T) {
	warm := run(t, "hello-world", ModeWarm, true)
	fc := run(t, "hello-world", ModeFirecracker, true)
	cached := run(t, "hello-world", ModeCached, true)
	reap := run(t, "hello-world", ModeREAP, true)
	fs := run(t, "hello-world", ModeFaaSnap, true)
	t.Logf("warm=%v fc=%v cached=%v reap=%v faasnap=%v", warm.Total, fc.Total, cached.Total, reap.Total, fs.Total)
	t.Logf("faasnap setup=%v invoke=%v fetch=%v mmaps=%d faults: %v", fs.Setup, fs.Invoke, fs.Fetch, fs.MmapCalls, fs.Faults)
	t.Logf("fc faults: %v", fc.Faults)
	t.Logf("reap setup=%v fetch=%v invoke=%v faults: %v", reap.Setup, reap.Fetch, reap.Invoke, reap.Faults)

	if warm.Total >= 20*time.Millisecond {
		t.Errorf("warm hello-world = %v, want a few ms", warm.Total)
	}
	if warm.Total >= fs.Total || warm.Total >= cached.Total {
		t.Error("warm is not fastest")
	}
	if fc.Total <= fs.Total {
		t.Errorf("firecracker (%v) not slower than faasnap (%v)", fc.Total, fs.Total)
	}
	if fc.Total <= reap.Total {
		t.Errorf("firecracker (%v) not slower than reap (%v)", fc.Total, reap.Total)
	}
	// hello-world: FaaSnap and REAP land near Cached (Figure 7).
	if fs.Total > cached.Total*3/2 {
		t.Errorf("faasnap (%v) much slower than cached (%v)", fs.Total, cached.Total)
	}
}

func TestImageDiffFaaSnapBeatsREAP(t *testing.T) {
	// Figure 6 / Table 3: with a different, larger input in the test
	// phase, FaaSnap substantially outperforms REAP on image.
	reap := run(t, "image", ModeREAP, true)
	fs := run(t, "image", ModeFaaSnap, true)
	fc := run(t, "image", ModeFirecracker, true)
	cached := run(t, "image", ModeCached, true)
	t.Logf("image-diff: fc=%v reap=%v faasnap=%v cached=%v", fc.Total, reap.Total, fs.Total, cached.Total)
	t.Logf("  reap: setup=%v fetch=%v invoke=%v faults=%v wait=%v", reap.Setup, reap.Fetch, reap.Invoke, reap.Faults, reap.Faults.WaitingTime())
	t.Logf("  faasnap: setup=%v fetch=%v invoke=%v faults=%v wait=%v", fs.Setup, fs.Fetch, fs.Invoke, fs.Faults, fs.Faults.WaitingTime())
	if fs.Total >= reap.Total {
		t.Errorf("faasnap (%v) not faster than reap (%v) on changed input", fs.Total, reap.Total)
	}
	if fs.Total >= fc.Total {
		t.Errorf("faasnap (%v) not faster than firecracker (%v)", fs.Total, fc.Total)
	}
	// FaaSnap ≈ Cached (within ~25% on this function).
	if fs.Total > cached.Total*5/4 {
		t.Errorf("faasnap (%v) more than 25%% slower than cached (%v)", fs.Total, cached.Total)
	}
}

func TestMmapFaaSnapBeatsCached(t *testing.T) {
	// §6.2: per-region mapping serves the anonymous mmap workload from
	// anonymous memory, beating even page-cache-resident snapshots.
	fs := run(t, "mmap", ModeFaaSnap, true)
	cached := run(t, "mmap", ModeCached, true)
	fc := run(t, "mmap", ModeFirecracker, true)
	t.Logf("mmap: fc=%v cached=%v faasnap=%v", fc.Total, cached.Total, fs.Total)
	t.Logf("  faasnap faults: %v", fs.Faults)
	if fs.Total >= cached.Total {
		t.Errorf("faasnap (%v) not faster than cached (%v) on mmap", fs.Total, cached.Total)
	}
	if fs.Faults.Count[metrics.FaultAnon] < 100000 {
		t.Errorf("mmap under faasnap had %d anon faults, want ~128k", fs.Faults.Count[metrics.FaultAnon])
	}
	if fc.Faults.Count[metrics.FaultMajor] < 1000 {
		t.Errorf("mmap under firecracker had %d major faults, want many (semantic gap)", fc.Faults.Count[metrics.FaultMajor])
	}
}

func TestCachedHasNoMajorFaults(t *testing.T) {
	r := run(t, "json", ModeCached, true)
	if r.Faults.Count[metrics.FaultMajor] != 0 {
		t.Fatalf("cached run had %d major faults", r.Faults.Count[metrics.FaultMajor])
	}
	if r.BlockRequests != 0 {
		t.Fatalf("cached run issued %d fault-path block requests", r.BlockRequests)
	}
}

func TestWarmFaultsAreAnonymous(t *testing.T) {
	r := run(t, "image", ModeWarm, true)
	if r.Faults.Count[metrics.FaultMajor] != 0 || r.Faults.Count[metrics.FaultMinor] != 0 {
		t.Fatalf("warm run has file-backed faults: %v", r.Faults)
	}
	if r.Faults.Count[metrics.FaultAnon] == 0 {
		t.Fatal("warm run with new input has no anonymous faults")
	}
	if r.Setup != 0 {
		t.Fatalf("warm setup = %v, want 0", r.Setup)
	}
}

func TestREAPSameInputIsFast(t *testing.T) {
	// With the identical input, REAP's working set covers everything:
	// invocation-phase faults are PTE fixups, not uffd round trips.
	r := run(t, "image", ModeREAP, false)
	t.Logf("image same-input reap: setup=%v invoke=%v faults=%v", r.Setup, r.Invoke, r.Faults)
	uffd := r.Faults.Count[metrics.FaultUffd]
	fix := r.Faults.Count[metrics.FaultPTEFix]
	// With identical input the only out-of-WS faults are re-allocations
	// of pages the previous invocation retained (the allocator bumps
	// past them), bounded by RetainFrac of the data pages.
	fn := artifactsFor(t, "image").Fn
	bound := int64(float64(fn.A.DataPages)*fn.RetainFrac) + 100
	if uffd > bound {
		t.Fatalf("same-input REAP: %d uffd faults (bound %d, pte fixups %d)", uffd, bound, fix)
	}
}

func TestREAPDegradesWithInputB(t *testing.T) {
	same := run(t, "image", ModeREAP, false)
	diff := run(t, "image", ModeREAP, true)
	t.Logf("reap image: same=%v diff=%v (uffd %d vs %d)", same.Total, diff.Total,
		same.Faults.Count[metrics.FaultUffd], diff.Faults.Count[metrics.FaultUffd])
	if diff.Faults.Count[metrics.FaultUffd] <= same.Faults.Count[metrics.FaultUffd] {
		t.Fatal("input B did not increase REAP's out-of-WS faults")
	}
}

func TestFaaSnapConcurrentLoaderConvertsMajors(t *testing.T) {
	fs := run(t, "image", ModeFaaSnap, true)
	fc := run(t, "image", ModeFirecracker, true)
	if fs.Faults.Majors() >= fc.Faults.Majors() {
		t.Fatalf("faasnap majors (%d) not below firecracker (%d)", fs.Faults.Majors(), fc.Faults.Majors())
	}
	if fs.Fetch == 0 || fs.FetchBytes == 0 {
		t.Fatal("faasnap loader did not run")
	}
	// The loader must overlap execution rather than block setup: setup
	// stays well below the fetch time plus VMM setup.
	if fs.Setup > 2*DefaultHostConfig().VMMSetup {
		t.Fatalf("faasnap setup = %v, loader appears to block setup", fs.Setup)
	}
}

func TestAblationOrdering(t *testing.T) {
	// Figure 9: each optimization step improves image invocation time.
	fc := run(t, "image", ModeFirecracker, true)
	cp := run(t, "image", ModeConcurrentPaging, true)
	pr := run(t, "image", ModePerRegion, true)
	fs := run(t, "image", ModeFaaSnap, true)
	t.Logf("fig9 invoke: fc=%v cp=%v pr=%v fs=%v", fc.Invoke, cp.Invoke, pr.Invoke, fs.Invoke)
	t.Logf("fig9 majors: fc=%d cp=%d pr=%d fs=%d", fc.Faults.Majors(), cp.Faults.Majors(), pr.Faults.Majors(), fs.Faults.Majors())
	t.Logf("fig9 blockreq: fc=%d cp=%d pr=%d fs=%d", fc.BlockRequests, cp.BlockRequests, pr.BlockRequests, fs.BlockRequests)
	if cp.Invoke >= fc.Invoke {
		t.Errorf("concurrent paging (%v) not faster than firecracker (%v)", cp.Invoke, fc.Invoke)
	}
	if fs.Invoke >= cp.Invoke {
		t.Errorf("full faasnap (%v) not faster than concurrent paging alone (%v)", fs.Invoke, cp.Invoke)
	}
	if fs.Faults.Majors() > cp.Faults.Majors() {
		t.Errorf("faasnap majors (%d) above concurrent paging (%d)", fs.Faults.Majors(), cp.Faults.Majors())
	}
	if fs.BlockRequests >= fc.BlockRequests {
		t.Errorf("faasnap fault-path block requests (%d) not below firecracker (%d)", fs.BlockRequests, fc.BlockRequests)
	}
}

func TestBurstSameSnapshotSingleFlight(t *testing.T) {
	arts := artifactsFor(t, "hello-world")
	br := RunBurst(DefaultHostConfig(), arts, ModeFaaSnap, arts.Fn.A, 4, true)
	loads := 0
	for _, r := range br.Results {
		if r.FetchBytes > 0 {
			loads++
		}
	}
	if loads != 1 {
		t.Fatalf("loading set fetched %d times, want 1 (single flight)", loads)
	}
	if len(br.Results) != 4 || br.Mean == 0 {
		t.Fatalf("burst result = %+v", br)
	}
}

func TestBurstDifferentSnapshotsSlowerForFirecracker(t *testing.T) {
	arts := artifactsFor(t, "hello-world")
	same := RunBurst(DefaultHostConfig(), arts, ModeFirecracker, arts.Fn.A, 8, true)
	diff := RunBurst(DefaultHostConfig(), arts, ModeFirecracker, arts.Fn.A, 8, false)
	t.Logf("fc burst 8: same=%v diff=%v", same.Mean, diff.Mean)
	if diff.Mean <= same.Mean {
		t.Fatal("different snapshots not slower than shared snapshot for firecracker")
	}
}

func TestBurstScalesUp(t *testing.T) {
	arts := artifactsFor(t, "hello-world")
	one := RunBurst(DefaultHostConfig(), arts, ModeFaaSnap, arts.Fn.A, 1, true)
	many := RunBurst(DefaultHostConfig(), arts, ModeFaaSnap, arts.Fn.A, 64, true)
	t.Logf("faasnap burst: 1=%v 64=%v", one.Mean, many.Mean)
	if many.Mean <= one.Mean {
		t.Fatal("64-way burst not slower than single invocation")
	}
}

func TestRemoteStorageSlower(t *testing.T) {
	arts := artifactsFor(t, "json")
	local := RunSingle(DefaultHostConfig(), arts, ModeFaaSnap, arts.Fn.B)
	cfg := DefaultHostConfig()
	cfg.Disk = blockdev.EBSRemote()
	remote := RunSingle(cfg, arts, ModeFaaSnap, arts.Fn.B)
	t.Logf("json faasnap: local=%v remote=%v", local.Total, remote.Total)
	if remote.Total <= local.Total {
		t.Fatal("EBS run not slower than NVMe run")
	}
}

func TestColdStartDominatesEverything(t *testing.T) {
	cold := run(t, "json", ModeCold, true)
	fs := run(t, "json", ModeFaaSnap, true)
	fc := run(t, "json", ModeFirecracker, true)
	t.Logf("json: cold=%v (setup %v) fc=%v faasnap=%v", cold.Total, cold.Setup, fc.Total, fs.Total)
	if cold.Total <= fc.Total {
		t.Errorf("cold start (%v) not slower than firecracker restore (%v)", cold.Total, fc.Total)
	}
	if cold.Setup < 500*time.Millisecond {
		t.Errorf("cold setup = %v, want boot+init to dominate", cold.Setup)
	}
	// The invocation after init behaves like a warm one: stable pages
	// are mapped, so only input pages fault.
	if cold.Faults.Count[metrics.FaultMajor] != 0 {
		t.Errorf("cold invocation phase had %d major faults", cold.Faults.Count[metrics.FaultMajor])
	}
}

func TestColdStartReadsRootfs(t *testing.T) {
	arts := artifactsFor(t, "json")
	h := NewHost(DefaultHostConfig())
	d := h.Deploy(arts, "")
	var r *InvokeResult
	h.Env.Go("driver", func(p *sim.Proc) {
		r = d.Invoke(p, ModeCold, arts.Fn.A)
	})
	h.Env.Run()
	if r.Setup == 0 {
		t.Fatal("no setup time")
	}
	if h.Dev.Stats().Bytes == 0 {
		t.Fatal("cold start read nothing from the rootfs device")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, "json", ModeFaaSnap, true)
	b := RunSingle(DefaultHostConfig(), artifactsFor(t, "json"), ModeFaaSnap, artifactsFor(t, "json").Fn.B)
	if a.Total != b.Total || a.Faults.Total() != b.Faults.Total() {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.Total, a.Faults.Total(), b.Total, b.Faults.Total())
	}
}

func TestProvisionMatchesSyntheticLayout(t *testing.T) {
	// The simulated boot+init pipeline must produce exactly the
	// non-zero footprint the workload model declares: boot image plus
	// the full stable region.
	fn, _ := workload.ByName("json")
	mem, alloc, res := Provision(DefaultHostConfig(), fn)
	want := fn.CleanMemory()
	if mem.NonZeroPages() != want.NonZeroPages() {
		t.Fatalf("provisioned non-zero = %d, synthetic = %d", mem.NonZeroPages(), want.NonZeroPages())
	}
	for p := int64(0); p < mem.Pages; p += 487 {
		if mem.IsZero(p) != want.IsZero(p) {
			t.Fatalf("page %d differs between provisioned and synthetic clean memory", p)
		}
	}
	if res.BootTime < 100*time.Millisecond {
		t.Fatalf("boot time = %v", res.BootTime)
	}
	if res.InitTime < fn.ColdInit()/2 {
		t.Fatalf("init time = %v, want >= half of %v", res.InitTime, fn.ColdInit())
	}
	if len(alloc.Free) != 0 {
		t.Fatalf("clean snapshot has freed pages: %d", len(alloc.Free))
	}
}

// TestLargestAdmittedInputPairFitsHeap runs the case
// workload.Spec.CheckInput is sized for: record with the largest input
// it admits, then serve that size again on top of what the snapshot
// retained. It must fit the guest heap exactly — one page more does not.
func TestLargestAdmittedInputPairFitsHeap(t *testing.T) {
	fn, _ := workload.ByName("image")
	lo, hi := int64(0), int64(workload.GuestPages) // admitted, refused
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; fn.CheckInput(workload.Input{DataPages: mid}) == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	in := workload.Input{Name: "max", DataPages: lo, Seed: 5}
	arts, _ := Record(DefaultHostConfig(), fn, in)
	in.Seed = 6
	if r := RunSingle(DefaultHostConfig(), arts, ModeWarm, in); r.Total <= 0 {
		t.Fatalf("result = %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("%d pages on top of a %d-page recording fit the heap: CheckInput is not tight", lo+1, lo)
		}
	}()
	in.DataPages++
	RunSingle(DefaultHostConfig(), arts, ModeWarm, in)
}

func TestFaultTracing(t *testing.T) {
	arts := artifactsFor(t, "json")
	traced := RunSingleTraced(DefaultHostConfig(), arts, ModeFaaSnap, arts.Fn.B)
	if int64(len(traced.FaultTrace)) != traced.Faults.Total() {
		t.Fatalf("trace has %d events, stats count %d", len(traced.FaultTrace), traced.Faults.Total())
	}
	var sum time.Duration
	for i, ev := range traced.FaultTrace {
		sum += ev.Duration
		if i > 0 && ev.At < traced.FaultTrace[i-1].At {
			t.Fatal("fault trace not time-ordered")
		}
	}
	if sum != traced.Faults.TotalTime() {
		t.Fatalf("trace durations sum to %v, stats say %v", sum, traced.Faults.TotalTime())
	}
	// Tracing must not perturb virtual timing.
	plain := RunSingle(DefaultHostConfig(), arts, ModeFaaSnap, arts.Fn.B)
	if plain.Total != traced.Total {
		t.Fatalf("tracing changed timing: %v vs %v", plain.Total, traced.Total)
	}
	if plain.FaultTrace != nil {
		t.Fatal("untraced run carries a fault trace")
	}
}

func TestMappingPlanInvariants(t *testing.T) {
	arts := artifactsFor(t, "image")
	plan := arts.MappingPlan(true)
	pages := arts.Fn.GuestConfig().Pages
	if plan[0].Backing != MapAnon || plan[0].Start != 0 || plan[0].Pages != pages {
		t.Fatalf("base layer = %+v", plan[0])
	}
	var lsBytes int64
	for _, m := range plan[1:] {
		if m.Start < 0 || m.Start+m.Pages > pages || m.Pages <= 0 {
			t.Fatalf("region out of bounds: %+v", m)
		}
		switch m.Backing {
		case MapMemoryFile:
			if m.FileOff != m.Start {
				t.Fatalf("memory-file region not identity-mapped: %+v", m)
			}
		case MapLoadingSet:
			if m.FileOff < 0 || m.FileOff+m.Pages > arts.LS.Total {
				t.Fatalf("loading-set region outside the LS file: %+v (file %d pages)", m, arts.LS.Total)
			}
			lsBytes += m.Pages
		case MapAnon:
			t.Fatalf("unexpected extra anonymous layer: %+v", m)
		}
	}
	if lsBytes != arts.LS.Total {
		t.Fatalf("loading-set layers cover %d pages, file has %d", lsBytes, arts.LS.Total)
	}
	// Without the loading-set layer, only anon + memory-file regions.
	for _, m := range arts.MappingPlan(false) {
		if m.Backing == MapLoadingSet {
			t.Fatal("loading-set layer present in per-region plan")
		}
	}
}

func TestMixedBurstDifferentApplications(t *testing.T) {
	artsList := []*Artifacts{
		artifactsFor(t, "hello-world"),
		artifactsFor(t, "json"),
		artifactsFor(t, "image"),
	}
	br := RunMixedBurst(DefaultHostConfig(), artsList, ModeFaaSnap, 9)
	if len(br.Results) != 9 || br.Mean == 0 {
		t.Fatalf("burst = %+v", br)
	}
	fns := map[string]int{}
	for _, r := range br.Results {
		fns[r.Fn]++
	}
	if len(fns) != 3 || fns["hello-world"] != 3 {
		t.Fatalf("function mix = %v, want 3 of each", fns)
	}
	// Different applications never share page-cache pages: the mixed
	// FaaSnap burst must still beat mixed vanilla restore.
	fc := RunMixedBurst(DefaultHostConfig(), artsList, ModeFirecracker, 9)
	if br.Mean >= fc.Mean {
		t.Fatalf("mixed faasnap burst (%v) not faster than firecracker (%v)", br.Mean, fc.Mean)
	}
}
