package hostmm

import (
	"testing"
	"time"
	"unsafe"

	"faasnap/internal/blockdev"
	"faasnap/internal/metrics"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
)

type world struct {
	env   *sim.Env
	cache *pagecache.Cache
	dev   *blockdev.Device
	as    *AddrSpace
	mem   *pagecache.File
}

func newWorld(t *testing.T, pages int64) *world {
	t.Helper()
	env := sim.NewEnv(1)
	cache := pagecache.New(env)
	dev := blockdev.New(env, blockdev.NVMeLocal())
	return &world{
		env:   env,
		cache: cache,
		dev:   dev,
		as:    New(env, cache, DefaultCosts(), pages),
		mem:   cache.Register("memfile", dev, pages),
	}
}

func TestAnonFault(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackAnon, nil, 0)
	w.env.Go("g", func(p *sim.Proc) {
		kind, d := w.as.Touch(p, 5)
		if kind != metrics.FaultAnon {
			t.Errorf("kind = %v, want anon", kind)
		}
		if d != DefaultCosts().AnonFault {
			t.Errorf("duration = %v, want %v", d, DefaultCosts().AnonFault)
		}
	})
	w.env.Run()
	if w.as.RSS() != 1 {
		t.Fatalf("RSS = %d, want 1", w.as.RSS())
	}
}

func TestSecondTouchIsFree(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackAnon, nil, 0)
	w.env.Go("g", func(p *sim.Proc) {
		w.as.Touch(p, 5)
		kind, d := w.as.Touch(p, 5)
		if kind >= 0 || d != 0 {
			t.Errorf("second touch = (%v, %v), want free", kind, d)
		}
	})
	w.env.Run()
	if w.as.Stats().Total() != 1 {
		t.Fatalf("faults = %d, want 1", w.as.Stats().Total())
	}
}

func TestFileMajorThenMinorFault(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackFile, w.mem, 0)
	w.env.Go("g", func(p *sim.Proc) {
		kind, d := w.as.Touch(p, 10)
		if kind != metrics.FaultMajor {
			t.Errorf("first = %v, want major", kind)
		}
		if d < 32*time.Microsecond {
			t.Errorf("major fault = %v, want >= 32µs on NVMe", d)
		}
		// Page 11 was pulled in by readahead: minor fault.
		kind, d = w.as.Touch(p, 11)
		if kind != metrics.FaultMinor {
			t.Errorf("second = %v, want minor", kind)
		}
		if d != DefaultCosts().MinorFault {
			t.Errorf("minor = %v, want %v", d, DefaultCosts().MinorFault)
		}
	})
	w.env.Run()
}

func TestCachedFileFaultIsMinor(t *testing.T) {
	w := newWorld(t, 128)
	w.cache.Populate(w.mem)
	w.as.Mmap(nil, 0, 128, BackFile, w.mem, 0)
	w.env.Go("g", func(p *sim.Proc) {
		kind, _ := w.as.Touch(p, 99)
		if kind != metrics.FaultMinor {
			t.Errorf("kind = %v, want minor with populated cache", kind)
		}
	})
	w.env.Run()
	if w.dev.Stats().Requests != 0 {
		t.Fatal("cached fault hit the device")
	}
}

func TestFileOffsetMapping(t *testing.T) {
	// Guest pages 100.. map to file pages 0..: fault on guest page 105
	// must read file page 5.
	w := newWorld(t, 256)
	w.as.Mmap(nil, 100, 50, BackFile, w.mem, 0)
	w.env.Go("g", func(p *sim.Proc) {
		w.as.Touch(p, 105)
	})
	w.env.Run()
	if !w.cache.IsResident(w.mem, 5) {
		t.Fatal("file page 5 not resident after fault on guest page 105")
	}
	if w.cache.IsResident(w.mem, 105) {
		t.Fatal("file page 105 resident: offset translation wrong")
	}
}

func TestMapFixedOverlayReplacesMiddle(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackAnon, nil, 0)
	w.as.Mmap(nil, 32, 16, BackFile, w.mem, 32)
	vmas := w.as.VMAs()
	if len(vmas) != 3 {
		t.Fatalf("VMAs = %+v, want 3", vmas)
	}
	if vmas[0].Back != BackAnon || vmas[0].Start != 0 || vmas[0].End != 32 {
		t.Fatalf("left = %+v", vmas[0])
	}
	if vmas[1].Back != BackFile || vmas[1].Start != 32 || vmas[1].End != 48 {
		t.Fatalf("middle = %+v", vmas[1])
	}
	if vmas[2].Back != BackAnon || vmas[2].Start != 48 || vmas[2].End != 128 {
		t.Fatalf("right = %+v", vmas[2])
	}
}

func TestHierarchicalOverlappingLayers(t *testing.T) {
	// The §4.8 layering: anonymous base, then non-zero regions on the
	// memory file, then loading-set regions on the loading-set file.
	w := newWorld(t, 128)
	env := w.env
	lsFile := w.cache.Register("lsfile", w.dev, 64)
	w.as.Mmap(nil, 0, 128, BackAnon, nil, 0)
	w.as.Mmap(nil, 10, 50, BackFile, w.mem, 10) // non-zero region
	w.as.Mmap(nil, 20, 10, BackFile, lsFile, 0) // loading-set region on top
	var kinds [4]metrics.FaultKind
	env.Go("g", func(p *sim.Proc) {
		kinds[0], _ = w.as.Touch(p, 5)  // anon base
		kinds[1], _ = w.as.Touch(p, 12) // memfile layer
		kinds[2], _ = w.as.Touch(p, 25) // loading-set layer
		kinds[3], _ = w.as.Touch(p, 59) // memfile layer after the LS region
	})
	env.Run()
	if kinds[0] != metrics.FaultAnon {
		t.Errorf("base layer fault = %v", kinds[0])
	}
	if kinds[1] != metrics.FaultMajor && kinds[1] != metrics.FaultMinor {
		t.Errorf("memfile layer fault = %v", kinds[1])
	}
	if !w.cache.IsResident(lsFile, 5) {
		t.Error("loading-set file page 5 not read for guest page 25")
	}
	// Guest page 59 maps to memfile page 59 (offset preserved across split).
	if !w.cache.IsResident(w.mem, 59) {
		t.Error("memfile page 59 not read for guest page 59: split lost file offset")
	}
}

func TestSplitPreservesFileOffset(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackFile, w.mem, 0)
	w.as.Mmap(nil, 50, 10, BackAnon, nil, 0)
	v, ok := w.as.Lookup(70)
	if !ok || v.Back != BackFile {
		t.Fatalf("lookup(70) = %+v, %v", v, ok)
	}
	if got := v.FileOff + (70 - v.Start); got != 70 {
		t.Fatalf("file page for guest 70 = %d, want 70", got)
	}
}

func TestMmapDiscardsPTEs(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackAnon, nil, 0)
	w.env.Go("g", func(p *sim.Proc) {
		w.as.Touch(p, 7)
		if w.as.RSS() != 1 {
			t.Errorf("RSS = %d", w.as.RSS())
		}
		w.as.Mmap(p, 0, 128, BackAnon, nil, 0)
		if w.as.RSS() != 0 {
			t.Errorf("RSS after remap = %d, want 0", w.as.RSS())
		}
		kind, _ := w.as.Touch(p, 7)
		if kind != metrics.FaultAnon {
			t.Errorf("touch after remap = %v, want anon fault again", kind)
		}
	})
	w.env.Run()
}

func TestMmapCostCharged(t *testing.T) {
	w := newWorld(t, 128)
	var elapsed time.Duration
	w.env.Go("g", func(p *sim.Proc) {
		start := p.Now()
		w.as.Mmap(p, 0, 128, BackAnon, nil, 0)
		elapsed = p.Now() - start
	})
	w.env.Run()
	if elapsed != DefaultCosts().MmapCall {
		t.Fatalf("mmap cost = %v, want %v", elapsed, DefaultCosts().MmapCall)
	}
	if w.as.MmapCalls() != 1 {
		t.Fatalf("MmapCalls = %d", w.as.MmapCalls())
	}
}

type recordingHandler struct {
	cache *pagecache.Cache
	mem   *pagecache.File
	pages []int64
}

func (h *recordingHandler) HandleFault(p *sim.Proc, page int64) {
	h.pages = append(h.pages, page)
	h.cache.FaultRead(p, h.mem, page, blockdev.FaultRead)
}

func TestUffdRouting(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackFile, w.mem, 0)
	h := &recordingHandler{cache: w.cache, mem: w.mem}
	w.as.RegisterUffd(0, 128, h)
	w.env.Go("g", func(p *sim.Proc) {
		kind, d := w.as.Touch(p, 42)
		if kind != metrics.FaultUffd {
			t.Errorf("kind = %v, want uffd", kind)
		}
		c := DefaultCosts()
		if d < c.UffdWake+c.UffdCopy+c.UffdResume {
			t.Errorf("uffd fault = %v, too fast", d)
		}
	})
	w.env.Run()
	if len(h.pages) != 1 || h.pages[0] != 42 {
		t.Fatalf("handler pages = %v", h.pages)
	}
	if w.as.Stats().VCPUBloc == 0 {
		t.Fatal("uffd fault did not add vCPU block time")
	}
}

func TestInstalledPageIsPTEFix(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackFile, w.mem, 0)
	h := &recordingHandler{cache: w.cache, mem: w.mem}
	w.as.RegisterUffd(0, 128, h)
	w.as.InstallPage(42) // UFFDIO_COPY pre-install, like REAP's prefetch
	w.env.Go("g", func(p *sim.Proc) {
		kind, d := w.as.Touch(p, 42)
		if kind != metrics.FaultPTEFix {
			t.Errorf("kind = %v, want pte-fix", kind)
		}
		if d != DefaultCosts().PTEFixup {
			t.Errorf("duration = %v, want %v", d, DefaultCosts().PTEFixup)
		}
	})
	w.env.Run()
	if len(h.pages) != 0 {
		t.Fatal("handler invoked for pre-installed page")
	}
}

func TestUffdRangeBounds(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackFile, w.mem, 0)
	h := &recordingHandler{cache: w.cache, mem: w.mem}
	w.as.RegisterUffd(0, 64, h)
	w.env.Go("g", func(p *sim.Proc) {
		kind, _ := w.as.Touch(p, 100) // outside uffd range
		if kind == metrics.FaultUffd {
			t.Error("fault outside uffd range went to handler")
		}
	})
	w.env.Run()
}

func TestFaultOnUnmappedPagePanics(t *testing.T) {
	w := newWorld(t, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.env.Go("g", func(p *sim.Proc) {
		w.as.Touch(p, 5)
	})
	w.env.Run()
}

func TestStatsAccumulate(t *testing.T) {
	w := newWorld(t, 256)
	w.as.Mmap(nil, 0, 128, BackAnon, nil, 0)
	w.as.Mmap(nil, 128, 128, BackFile, w.mem, 128)
	w.env.Go("g", func(p *sim.Proc) {
		w.as.Touch(p, 1)
		w.as.Touch(p, 2)
		w.as.Touch(p, 130)
	})
	w.env.Run()
	s := w.as.Stats()
	if s.Count[metrics.FaultAnon] != 2 {
		t.Fatalf("anon = %d, want 2", s.Count[metrics.FaultAnon])
	}
	if s.Count[metrics.FaultMajor] != 1 {
		t.Fatalf("major = %d, want 1", s.Count[metrics.FaultMajor])
	}
	w.as.ResetStats()
	if w.as.Stats().Total() != 0 {
		t.Fatal("stats not reset")
	}
}

func TestTimelineBucketing(t *testing.T) {
	events := []FaultEvent{
		{At: 50 * time.Millisecond, Kind: metrics.FaultMinor},
		{At: 52 * time.Millisecond, Kind: metrics.FaultMajor},
		{At: 75 * time.Millisecond, Kind: metrics.FaultAnon},
		{At: 45 * time.Millisecond, Kind: metrics.FaultMinor}, // before offset → bucket 0
	}
	buckets := Timeline(events, 50*time.Millisecond, 10*time.Millisecond)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3 (0-10, 10-20 empty, 20-30)", len(buckets))
	}
	if buckets[0].Counts[metrics.FaultMinor] != 2 || buckets[0].Counts[metrics.FaultMajor] != 1 {
		t.Fatalf("bucket 0 = %+v", buckets[0])
	}
	if buckets[1].Counts != ([metrics.NumFaultKinds]int{}) {
		t.Fatalf("bucket 1 not empty: %+v", buckets[1])
	}
	if buckets[2].Counts[metrics.FaultAnon] != 1 {
		t.Fatalf("bucket 2 = %+v", buckets[2])
	}
	if Timeline(nil, 0, time.Millisecond) != nil {
		t.Fatal("empty events should give nil timeline")
	}
}

func TestFaultHookFiresPerFault(t *testing.T) {
	w := newWorld(t, 128)
	w.as.Mmap(nil, 0, 128, BackAnon, nil, 0)
	var events []FaultEvent
	w.as.SetFaultHook(func(ev FaultEvent) { events = append(events, ev) })
	w.env.Go("g", func(p *sim.Proc) {
		w.as.TouchW(p, 1, true)
		w.as.Touch(p, 1) // revisit: no fault, no event
		w.as.Touch(p, 2)
	})
	w.env.Run()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if !events[0].Write || events[1].Write {
		t.Fatalf("write flags wrong: %+v", events)
	}
	if events[0].Kind != metrics.FaultAnon {
		t.Fatalf("kind = %v", events[0].Kind)
	}
	// A traced invoke preallocates one event per page its program
	// touches (45 026 for ffmpeg/B), so the event's size is its cost.
	if size := unsafe.Sizeof(FaultEvent{}); size != 32 {
		t.Fatalf("FaultEvent is %d bytes, want 32", size)
	}
}
