package workingset

import (
	"testing"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/hostmm"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
	"faasnap/internal/snapshot"
)

func TestWorkingSetGrouping(t *testing.T) {
	var ws WorkingSet
	pages := make([]int64, 2500)
	for i := range pages {
		pages[i] = int64(i)
	}
	ws.add(pages)
	if len(ws.Groups) != 3 {
		t.Fatalf("groups = %d, want 3 (1024+1024+452)", len(ws.Groups))
	}
	if len(ws.Groups[0]) != GroupSize || len(ws.Groups[2]) != 452 {
		t.Fatalf("group sizes = %d,%d,%d", len(ws.Groups[0]), len(ws.Groups[1]), len(ws.Groups[2]))
	}
	if ws.Pages() != 2500 {
		t.Fatalf("Pages = %d", ws.Pages())
	}
	pg := ws.PageGroups()
	if pg[0] != 0 || pg[1500] != 1 || pg[2400] != 2 {
		t.Fatalf("PageGroups = %d,%d,%d", pg[0], pg[1500], pg[2400])
	}
}

func TestWorkingSetAddAcrossCalls(t *testing.T) {
	var ws WorkingSet
	ws.add([]int64{1, 2})
	ws.add([]int64{3})
	if len(ws.Groups) != 1 || len(ws.Groups[0]) != 3 {
		t.Fatalf("groups = %+v, want one partially filled group", ws.Groups)
	}
}

func TestMincoreRecorderCapturesResidencyInGroups(t *testing.T) {
	env := sim.NewEnv(1)
	cache := pagecache.New(env)
	dev := blockdev.New(env, blockdev.NVMeLocal())
	file := cache.Register("mem", dev, 8192)
	as := hostmm.New(env, cache, hostmm.DefaultCosts(), 8192)
	as.Mmap(nil, 0, 8192, hostmm.BackFile, file, 0)
	rec := NewMincoreRecorder(env, cache, file, as, 100*time.Microsecond)
	rec.Start(env)
	env.Go("guest", func(p *sim.Proc) {
		// Touch two widely separated batches with a pause between them
		// long enough for the recorder to scan in between.
		for pg := int64(0); pg < 2000; pg += 2 {
			as.Touch(p, pg)
		}
		p.Sleep(5 * time.Millisecond)
		for pg := int64(4000); pg < 6000; pg += 2 {
			as.Touch(p, pg)
		}
		p.Sleep(5 * time.Millisecond)
		rec.Stop()
	})
	env.Run()
	ws := rec.WorkingSet()
	if ws.Pages() == 0 {
		t.Fatal("empty working set")
	}
	// Readahead means more pages than touched are captured.
	if ws.Pages() < 2000 {
		t.Fatalf("working set %d pages, want >= touched count", ws.Pages())
	}
	// Early-touched pages must be in earlier groups than late-touched.
	pg := ws.PageGroups()
	g0, ok0 := pg[0]
	gLate, okLate := pg[4000]
	if !ok0 || !okLate {
		t.Fatal("touched pages missing from working set")
	}
	if g0 >= gLate {
		t.Fatalf("group(page0)=%d >= group(page4000)=%d: order not preserved", g0, gLate)
	}
	if rec.Scans() < 2 {
		t.Fatalf("scans = %d, want >= 2", rec.Scans())
	}
}

func TestMincoreRecorderSeesReadaheadPages(t *testing.T) {
	// Host page recording's defining property: pages pulled in by
	// readahead (never faulted by the guest) are recorded.
	env := sim.NewEnv(1)
	cache := pagecache.New(env)
	dev := blockdev.New(env, blockdev.NVMeLocal())
	file := cache.Register("mem", dev, 4096)
	as := hostmm.New(env, cache, hostmm.DefaultCosts(), 4096)
	as.Mmap(nil, 0, 4096, hostmm.BackFile, file, 0)
	rec := NewMincoreRecorder(env, cache, file, as, 100*time.Microsecond)
	rec.Start(env)
	env.Go("guest", func(p *sim.Proc) {
		as.Touch(p, 100) // readahead brings 101..103
		rec.Stop()
	})
	env.Run()
	pg := rec.WorkingSet().PageGroups()
	if _, ok := pg[101]; !ok {
		t.Fatal("readahead page 101 not captured by mincore recorder")
	}
}

func TestMincoreRecorderUnderMemoryPressure(t *testing.T) {
	// A behavioural caveat of host page recording: mincore only sees
	// pages still resident, so under cache pressure early pages can be
	// reclaimed before the next scan and drop out of the working set.
	// The recorder must not crash or record duplicates; the set simply
	// shrinks toward what survived.
	env := sim.NewEnv(1)
	cache := pagecache.New(env)
	cache.SetLimit(512)
	dev := blockdev.New(env, blockdev.NVMeLocal())
	file := cache.Register("mem", dev, 8192)
	as := hostmm.New(env, cache, hostmm.DefaultCosts(), 8192)
	as.Mmap(nil, 0, 8192, hostmm.BackFile, file, 0)
	rec := NewMincoreRecorder(env, cache, file, as, 100*time.Microsecond)
	rec.Start(env)
	env.Go("guest", func(p *sim.Proc) {
		for pg := int64(0); pg < 4096; pg += 2 {
			as.Touch(p, pg)
		}
		p.Sleep(time.Millisecond)
		rec.Stop()
	})
	env.Run()
	ws := rec.WorkingSet()
	if ws.Pages() == 0 {
		t.Fatal("empty working set")
	}
	seen := map[int64]bool{}
	for _, g := range ws.Groups {
		for _, pg := range g {
			if seen[pg] {
				t.Fatalf("page %d recorded twice", pg)
			}
			seen[pg] = true
		}
	}
	if cache.Stats().Evictions == 0 {
		t.Fatal("test did not create memory pressure")
	}
}

func TestUffdRecorderRecordsFaultOrderOnly(t *testing.T) {
	env := sim.NewEnv(1)
	cache := pagecache.New(env)
	dev := blockdev.New(env, blockdev.NVMeLocal())
	file := cache.Register("mem", dev, 4096)
	as := hostmm.New(env, cache, hostmm.DefaultCosts(), 4096)
	as.Mmap(nil, 0, 4096, hostmm.BackFile, file, 0)
	rec := NewUffdRecorder(cache, file)
	as.RegisterUffd(0, 4096, rec)
	env.Go("guest", func(p *sim.Proc) {
		as.Touch(p, 500)
		as.Touch(p, 100)
		as.Touch(p, 900)
	})
	env.Run()
	want := []int64{500, 100, 900}
	got := rec.Pages()
	if len(got) != 3 {
		t.Fatalf("pages = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fault order = %v, want %v", got, want)
		}
	}
	// uffd recording does NOT see readahead neighbours (501 etc. are in
	// the cache but were never faulted).
	ws := NewWSFile(rec.Pages())
	if ws.Contains()[501] {
		t.Fatal("uffd recorder captured a readahead page")
	}
	if !cache.IsResident(file, 501) {
		t.Fatal("expected page 501 resident via handler readahead")
	}
}

func TestWSFile(t *testing.T) {
	w := NewWSFile([]int64{5, 3, 9})
	if w.PageCount() != 3 || w.Bytes() != 3*snapshot.PageSize {
		t.Fatalf("count=%d bytes=%d", w.PageCount(), w.Bytes())
	}
	m := w.Contains()
	if !m[5] || !m[3] || !m[9] || m[4] {
		t.Fatalf("contains = %v", m)
	}
}

func buildWS(pagesByGroup ...[]int64) *WorkingSet {
	ws := &WorkingSet{}
	ws.Groups = pagesByGroup
	return ws
}

func TestBuildLoadingSetExcludesZeroPages(t *testing.T) {
	mem := snapshot.NewMemoryFile(1024)
	for _, p := range []int64{10, 11, 12} {
		mem.SetZero(p, false)
	}
	ws := buildWS([]int64{10, 11, 12, 500}) // 500 is zero
	ls := BuildLoadingSet(ws, mem, DefaultMergeGap)
	if ls.Total != 3 {
		t.Fatalf("total = %d, want 3 (zero page excluded)", ls.Total)
	}
	if len(ls.Regions) != 1 || ls.Regions[0].Start != 10 || ls.Regions[0].Len != 3 {
		t.Fatalf("regions = %+v", ls.Regions)
	}
}

func TestBuildLoadingSetMergesAcrossSmallGaps(t *testing.T) {
	mem := snapshot.NewMemoryFile(1024)
	for _, p := range []int64{10, 11, 30, 31, 200} {
		mem.SetZero(p, false)
	}
	ws := buildWS([]int64{10, 11, 30, 31, 200})
	ls := BuildLoadingSet(ws, mem, 32)
	// 10-11 and 30-31 merge (gap 18 <= 32) including the in-between
	// pages; 200 is separate (gap > 32).
	if len(ls.Regions) != 2 {
		t.Fatalf("regions = %+v", ls.Regions)
	}
	if ls.Regions[0].Start != 10 || ls.Regions[0].Len != 22 {
		t.Fatalf("merged region = %+v", ls.Regions[0])
	}
	if ls.Total != 23 {
		t.Fatalf("total = %d, want 23 (22 + 1)", ls.Total)
	}
}

func TestBuildLoadingSetSortsByGroupThenAddress(t *testing.T) {
	mem := snapshot.NewMemoryFile(4096)
	// Group 1 pages at low addresses, group 0 pages at high addresses.
	for _, p := range []int64{100, 2000, 3000} {
		mem.SetZero(p, false)
	}
	ws := &WorkingSet{Groups: [][]int64{{2000, 3000}, {100}}}
	ls := BuildLoadingSet(ws, mem, 16)
	if len(ls.Regions) != 3 {
		t.Fatalf("regions = %+v", ls.Regions)
	}
	if ls.Regions[0].Start != 2000 || ls.Regions[1].Start != 3000 || ls.Regions[2].Start != 100 {
		t.Fatalf("region order = %+v, want group 0 regions (by address) then group 1", ls.Regions)
	}
	if ls.Offsets[0] != 0 || ls.Offsets[1] != 1 || ls.Offsets[2] != 2 {
		t.Fatalf("offsets = %v", ls.Offsets)
	}
}

func TestBuildLoadingSetGroupIsMinOfMergedPages(t *testing.T) {
	mem := snapshot.NewMemoryFile(1024)
	mem.SetZero(50, false)
	mem.SetZero(52, false)
	ws := &WorkingSet{Groups: [][]int64{{52}, {50}}}
	ls := BuildLoadingSet(ws, mem, 32)
	if len(ls.Regions) != 1 {
		t.Fatalf("regions = %+v", ls.Regions)
	}
	if ls.Regions[0].Group != 0 {
		t.Fatalf("merged group = %d, want 0", ls.Regions[0].Group)
	}
}

func TestBuildLoadingSetEmpty(t *testing.T) {
	mem := snapshot.NewMemoryFile(64)
	ls := BuildLoadingSet(&WorkingSet{}, mem, 32)
	if ls.Total != 0 || len(ls.Regions) != 0 {
		t.Fatalf("ls = %+v", ls)
	}
}

func TestLoadingSetReducesRegionCount(t *testing.T) {
	// The paper's §4.6 motivation: merging cuts >1000 regions to <100
	// for hello-world-like scatter while adding only a little data.
	mem := snapshot.NewMemoryFile(1 << 19)
	var pages []int64
	// 1000 fragments of 3 pages with 8-page gaps.
	p := int64(1000)
	for i := 0; i < 1000; i++ {
		for j := int64(0); j < 3; j++ {
			mem.SetZero(p+j, false)
			pages = append(pages, p+j)
		}
		p += 11
	}
	ws := buildWS(pages)
	unmerged := BuildLoadingSet(ws, mem, 0)
	merged := BuildLoadingSet(ws, mem, 32)
	if len(unmerged.Regions) != 1000 {
		t.Fatalf("unmerged regions = %d", len(unmerged.Regions))
	}
	if len(merged.Regions) >= 100 {
		t.Fatalf("merged regions = %d, want < 100", len(merged.Regions))
	}
	extra := float64(merged.Total-unmerged.Total) / float64(unmerged.Total)
	if extra > 4 {
		t.Fatalf("merged set grew %.1fx, too much", 1+extra)
	}
}
