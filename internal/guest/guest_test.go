package guest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/cpu"
	"faasnap/internal/hostmm"
	"faasnap/internal/metrics"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
	"faasnap/internal/snapshot"
)

type world struct {
	env   *sim.Env
	ps    *cpu.PS
	cache *pagecache.Cache
	as    *hostmm.AddrSpace
	mem   *snapshot.MemoryFile
	vm    *VM
	cfg   Config
}

func newWorld(t *testing.T) *world {
	t.Helper()
	env := sim.NewEnv(1)
	ps := cpu.New(env, 96)
	cache := pagecache.New(env)
	cfg := Config{
		Pages:             1024,
		HeapStart:         512,
		HeapEnd:           1024,
		SanitizePerPage:   300 * time.Nanosecond,
		ComputeBatchPages: 64,
	}
	as := hostmm.New(env, cache, hostmm.DefaultCosts(), cfg.Pages)
	as.Mmap(nil, 0, cfg.Pages, hostmm.BackAnon, nil, 0)
	mem := snapshot.NewMemoryFile(cfg.Pages)
	vm := NewVM(env, ps, as, mem, AllocState{}, cfg)
	_ = blockdev.NVMeLocal
	return &world{env: env, ps: ps, cache: cache, as: as, mem: mem, vm: vm, cfg: cfg}
}

func TestComputeOpTakesTime(t *testing.T) {
	w := newWorld(t)
	var end sim.Time
	w.env.Go("vcpu", func(p *sim.Proc) {
		w.vm.Exec(p, &Program{Ops: []Op{{Kind: OpCompute, Compute: 4 * time.Millisecond}}})
		end = p.Now()
	})
	w.env.Run()
	// Compute jitters ±2% per environment seed.
	if end < 3900*time.Microsecond || end > 4100*time.Microsecond {
		t.Fatalf("end = %v, want 4ms ±2%%", end)
	}
}

func TestTouchFaultsOncePerPage(t *testing.T) {
	w := newWorld(t)
	prog := &Program{Ops: []Op{
		{Kind: OpTouch, Pages: []int64{1, 2, 3, 1, 2, 3}},
	}}
	w.env.Go("vcpu", func(p *sim.Proc) { w.vm.Exec(p, prog) })
	w.env.Run()
	if got := w.as.Stats().Total(); got != 3 {
		t.Fatalf("faults = %d, want 3 (revisits are free)", got)
	}
}

func TestTouchWriteUpdatesMemoryContent(t *testing.T) {
	w := newWorld(t)
	prog := &Program{Ops: []Op{
		{Kind: OpTouch, Pages: []int64{10}, Write: true, NonZero: true},
		{Kind: OpTouch, Pages: []int64{11}, Write: true, NonZero: false},
		{Kind: OpTouch, Pages: []int64{12}, Write: false},
	}}
	w.env.Go("vcpu", func(p *sim.Proc) { w.vm.Exec(p, prog) })
	w.env.Run()
	if w.mem.IsZero(10) {
		t.Error("written non-zero page still zero")
	}
	if !w.mem.IsZero(11) {
		t.Error("zero-written page became non-zero")
	}
	if !w.mem.IsZero(12) {
		t.Error("read-only touch changed content")
	}
}

func TestAllocWriteUsesHeapSequentially(t *testing.T) {
	w := newWorld(t)
	prog := &Program{Ops: []Op{
		{Kind: OpAllocWrite, Count: 4, Tag: "buf", NonZero: true},
	}}
	w.env.Go("vcpu", func(p *sim.Proc) { w.vm.Exec(p, prog) })
	w.env.Run()
	live := w.vm.LiveAlloc("buf")
	if len(live) != 4 {
		t.Fatalf("live = %v", live)
	}
	for i, pg := range live {
		if pg != w.cfg.HeapStart+int64(i) {
			t.Fatalf("allocated pages = %v, want heap bump from %d", live, w.cfg.HeapStart)
		}
		if w.mem.IsZero(pg) {
			t.Fatalf("allocated page %d still zero", pg)
		}
	}
}

func TestFreeReuseOrder(t *testing.T) {
	w := newWorld(t)
	var firstAlloc []int64
	prog1 := &Program{Ops: []Op{
		{Kind: OpAllocWrite, Count: 4, Tag: "a", NonZero: true},
		{Kind: OpFree, Tag: "a", Frac: 1.0},
	}}
	prog2 := &Program{Ops: []Op{
		{Kind: OpAllocWrite, Count: 2, Tag: "b", NonZero: true},
	}}
	w.env.Go("vcpu", func(p *sim.Proc) {
		w.vm.Exec(p, prog1)
		firstAlloc = append([]int64(nil), w.vm.alloc.Free...)
		w.vm.Exec(p, prog2)
	})
	w.env.Run()
	live := w.vm.LiveAlloc("b")
	// The second allocation must reuse the first two freed pages (FIFO).
	if live[0] != w.cfg.HeapStart || live[1] != w.cfg.HeapStart+1 {
		t.Fatalf("reused pages = %v (freed list was %v)", live, firstAlloc)
	}
}

func TestSanitizeZeroesFreedPages(t *testing.T) {
	w := newWorld(t)
	w.vm.SetSanitize(true)
	prog := &Program{Ops: []Op{
		{Kind: OpAllocWrite, Count: 4, Tag: "a", NonZero: true},
		{Kind: OpFree, Tag: "a", Frac: 0.5},
	}}
	w.env.Go("vcpu", func(p *sim.Proc) { w.vm.Exec(p, prog) })
	w.env.Run()
	// First two pages freed and sanitized; last two retained non-zero.
	if !w.mem.IsZero(w.cfg.HeapStart) || !w.mem.IsZero(w.cfg.HeapStart+1) {
		t.Error("freed pages not sanitized")
	}
	if w.mem.IsZero(w.cfg.HeapStart+2) || w.mem.IsZero(w.cfg.HeapStart+3) {
		t.Error("retained pages were zeroed")
	}
}

func TestNoSanitizeKeepsStaleContent(t *testing.T) {
	w := newWorld(t)
	w.vm.SetSanitize(false)
	prog := &Program{Ops: []Op{
		{Kind: OpAllocWrite, Count: 2, Tag: "a", NonZero: true},
		{Kind: OpFree, Tag: "a", Frac: 1.0},
	}}
	w.env.Go("vcpu", func(p *sim.Proc) { w.vm.Exec(p, prog) })
	w.env.Run()
	if w.mem.IsZero(w.cfg.HeapStart) {
		t.Error("freed page zeroed although sanitizing is off")
	}
}

func TestSanitizeDilatesCompute(t *testing.T) {
	run := func(sanitize bool) sim.Time {
		w := newWorld(t)
		w.vm.SetSanitize(sanitize)
		var end sim.Time
		w.env.Go("vcpu", func(p *sim.Proc) {
			w.vm.Exec(p, &Program{Ops: []Op{{Kind: OpCompute, Compute: 100 * time.Millisecond}}})
			end = p.Now()
		})
		w.env.Run()
		return end
	}
	plain := run(false)
	dilated := run(true)
	if dilated <= plain {
		t.Fatalf("sanitizing run %v not slower than plain %v", dilated, plain)
	}
	ratio := float64(dilated) / float64(plain)
	if ratio < 1.05 || ratio > 1.15 {
		t.Fatalf("dilation ratio = %v, want ~1.1", ratio)
	}
}

func TestPerPageComputeAccumulates(t *testing.T) {
	w := newWorld(t)
	pages := make([]int64, 100)
	for i := range pages {
		pages[i] = int64(i)
	}
	var end sim.Time
	w.env.Go("vcpu", func(p *sim.Proc) {
		w.vm.Exec(p, &Program{Ops: []Op{
			{Kind: OpTouch, Pages: pages, PerPage: 10 * time.Microsecond},
		}})
		end = p.Now()
	})
	w.env.Run()
	// 100 pages × 10µs compute + 100 anon faults × 2.5µs = 1.25ms,
	// within compute jitter.
	want := 100*10*time.Microsecond + 100*hostmm.DefaultCosts().AnonFault
	diff := end - want
	if diff < 0 {
		diff = -diff
	}
	if diff > want/20 {
		t.Fatalf("end = %v, want %v ±5%%", end, want)
	}
}

func TestAllocStateSurvivesCloning(t *testing.T) {
	w := newWorld(t)
	w.env.Go("vcpu", func(p *sim.Proc) {
		w.vm.Exec(p, &Program{Ops: []Op{
			{Kind: OpAllocWrite, Count: 3, Tag: "a", NonZero: true},
			{Kind: OpFree, Tag: "a", Frac: 1.0},
		}})
	})
	w.env.Run()
	st := w.vm.AllocState()
	if len(st.Free) != 3 {
		t.Fatalf("free list = %v", st.Free)
	}
	st.Free[0] = -1
	if w.vm.alloc.Free[0] == -1 {
		t.Fatal("AllocState aliases internal state")
	}
}

// TestAllocStateClonesShareNothingWritable restores one snapshot's
// allocator state into VMs on several goroutines at once, as
// concurrent invocations do (run with -race). Each VM must reuse the
// snapshot's freed pages in FIFO order, then bump-allocate, and the
// snapshot's state must come out as it went in.
func TestAllocStateClonesShareNothingWritable(t *testing.T) {
	snap := AllocState{Free: []int64{600, 601, 700, 512}, Next: 800}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorld(t)
			w.vm = NewVM(w.env, w.ps, w.as, w.mem, snap.Clone(), w.cfg)
			w.vm.SetSanitize(g%2 == 0)
			w.env.Go("vcpu", func(p *sim.Proc) {
				w.vm.Exec(p, &Program{Ops: []Op{
					{Kind: OpAllocWrite, Count: 2, Tag: "a", NonZero: true},
					{Kind: OpFree, Tag: "a", Frac: 1.0},
					{Kind: OpAllocWrite, Count: 6, Tag: "b", NonZero: true},
				}})
			})
			w.env.Run()
			// "a" takes 600 and 601 and frees them to the back of the
			// queue; "b" drains the queue, then bumps.
			if got := fmt.Sprint(w.vm.LiveAlloc("b")); got != "[700 512 600 601 800 801]" {
				t.Errorf("goroutine %d allocated %v", g, got)
			}
		}()
	}
	wg.Wait()
	if fmt.Sprint(snap.Free) != "[600 601 700 512]" || snap.Next != 800 {
		t.Fatalf("snapshot allocator state changed to %+v", snap)
	}
}

func TestAnonAllocSemanticGap(t *testing.T) {
	// When the whole guest is file-mapped (vanilla Firecracker restore),
	// guest anonymous allocation faults become file-backed host faults —
	// the semantic gap of §4.5.
	env := sim.NewEnv(1)
	ps := cpu.New(env, 96)
	cache := pagecache.New(env)
	dev := blockdev.New(env, blockdev.NVMeLocal())
	memFile := cache.Register("memfile", dev, 1024)
	cfg := Config{Pages: 1024, HeapStart: 512, HeapEnd: 1024, ComputeBatchPages: 64}
	as := hostmm.New(env, cache, hostmm.DefaultCosts(), cfg.Pages)
	as.Mmap(nil, 0, cfg.Pages, hostmm.BackFile, memFile, 0)
	vm := NewVM(env, ps, as, snapshot.NewMemoryFile(cfg.Pages), AllocState{}, cfg)
	env.Go("vcpu", func(p *sim.Proc) {
		vm.Exec(p, &Program{Ops: []Op{{Kind: OpAllocWrite, Count: 1, Tag: "x", NonZero: true}}})
	})
	env.Run()
	s := as.Stats()
	if s.Count[metrics.FaultMajor] != 1 {
		t.Fatalf("stats = %v: anon guest alloc should major-fault under full-file mapping", s)
	}
	if dev.Stats().Requests == 0 {
		t.Fatal("no disk read for the semantic-gap fault")
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	w := newWorld(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.env.Go("vcpu", func(p *sim.Proc) {
		w.vm.Exec(p, &Program{Ops: []Op{{Kind: OpAllocWrite, Count: 10000, Tag: "big"}}})
	})
	w.env.Run()
}

func TestProgramTouchedPages(t *testing.T) {
	pr := &Program{Ops: []Op{
		{Kind: OpTouch, Pages: []int64{1, 2, 3}},
		{Kind: OpAllocWrite, Count: 5},
		{Kind: OpCompute, Compute: time.Second},
	}}
	if got := pr.TouchedPages(); got != 8 {
		t.Fatalf("TouchedPages = %d, want 8", got)
	}
}

func TestAllocatorProperty(t *testing.T) {
	// Property: alloc/free sequences never hand out a page twice while
	// it is live, reuse freed pages FIFO, and stay inside the heap.
	f := func(seed int64, ops uint8) bool {
		w := newWorld(t)
		rng := rand.New(rand.NewSource(seed))
		live := map[int64]bool{}
		ok := true
		w.env.Go("vcpu", func(p *sim.Proc) {
			tagN := 0
			tags := []string{}
			for i := 0; i < int(ops%24)+1; i++ {
				if rng.Intn(2) == 0 || len(tags) == 0 {
					tag := fmt.Sprintf("t%d", tagN)
					tagN++
					n := int64(rng.Intn(16) + 1)
					w.vm.Exec(p, &Program{Ops: []Op{{Kind: OpAllocWrite, Count: n, Tag: tag, NonZero: true}}})
					for _, pg := range w.vm.LiveAlloc(tag) {
						if live[pg] {
							ok = false
						}
						live[pg] = true
						if pg < w.cfg.HeapStart || pg >= w.cfg.HeapEnd {
							ok = false
						}
					}
					tags = append(tags, tag)
				} else {
					tag := tags[rng.Intn(len(tags))]
					before := w.vm.LiveAlloc(tag)
					w.vm.Exec(p, &Program{Ops: []Op{{Kind: OpFree, Tag: tag, Frac: 1.0}}})
					for _, pg := range before {
						delete(live, pg)
					}
				}
			}
		})
		w.env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotContentProperty(t *testing.T) {
	// Property: after any alloc/free sequence with sanitizing on, a
	// page is non-zero in the memory map iff it is live (allocated and
	// not freed).
	f := func(seed int64) bool {
		w := newWorld(t)
		w.vm.SetSanitize(true)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		w.env.Go("vcpu", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				tag := fmt.Sprintf("t%d", i)
				n := int64(rng.Intn(12) + 1)
				frac := []float64{0, 0.5, 1}[rng.Intn(3)]
				w.vm.Exec(p, &Program{Ops: []Op{
					{Kind: OpAllocWrite, Count: n, Tag: tag, NonZero: true},
					{Kind: OpFree, Tag: tag, Frac: frac},
				}})
			}
			live := map[int64]bool{}
			for i := 0; i < 10; i++ {
				for _, pg := range w.vm.LiveAlloc(fmt.Sprintf("t%d", i)) {
					live[pg] = true
				}
			}
			for pg := w.cfg.HeapStart; pg < w.vm.alloc.Next; pg++ {
				if w.mem.IsZero(pg) == live[pg] {
					ok = false
				}
			}
		})
		w.env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedProgramConcurrentExec pins the contract on Program: Exec
// only reads it, so two VMs in two simulations may run one Program at
// the same time (run with -race) and both see the same outcome.
func TestSharedProgramConcurrentExec(t *testing.T) {
	prog := &Program{Ops: []Op{
		{Kind: OpCompute, Compute: time.Millisecond},
		{Kind: OpTouch, Pages: []int64{1, 2, 3, 200, 201}, PerPage: time.Microsecond},
		{Kind: OpAllocWrite, Count: 100, Tag: "input", NonZero: true, PerPage: time.Microsecond},
		{Kind: OpFree, Tag: "input", Frac: 0.5},
	}}
	before := fmt.Sprintf("%+v", prog)
	var wg sync.WaitGroup
	ends := make([]sim.Time, 2)
	faults := make([]int64, 2)
	for i := range ends {
		w := newWorld(t)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.env.Go("vcpu", func(p *sim.Proc) {
				w.vm.Exec(p, prog)
				ends[i] = p.Now()
			})
			w.env.Run()
			faults[i] = w.as.Stats().Total()
		}(i)
	}
	wg.Wait()
	if ends[0] != ends[1] || faults[0] != faults[1] || faults[0] != 105 {
		t.Fatalf("shared program ran differently: ends %v, faults %v (want 105 each)", ends, faults)
	}
	if after := fmt.Sprintf("%+v", prog); after != before {
		t.Fatalf("Exec modified the program:\n before %s\n after  %s", before, after)
	}
}
