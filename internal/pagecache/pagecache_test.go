package pagecache

import (
	"testing"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/sim"
)

func newCache(t *testing.T) (*sim.Env, *Cache, *File) {
	t.Helper()
	e := sim.NewEnv(1)
	c := New(e)
	d := blockdev.New(e, blockdev.NVMeLocal())
	f := c.Register("memfile", d, 1024)
	return e, c, f
}

func TestMissThenHit(t *testing.T) {
	e, c, f := newCache(t)
	e.Go("p", func(p *sim.Proc) {
		r1 := c.FaultRead(p, f, 100, blockdev.FaultRead)
		if r1.Hit {
			t.Error("first access was a hit")
		}
		if r1.IOTime == 0 {
			t.Error("miss did no I/O")
		}
		r2 := c.FaultRead(p, f, 100, blockdev.FaultRead)
		if !r2.Hit || r2.IOTime != 0 {
			t.Errorf("second access = %+v, want free hit", r2)
		}
	})
	e.Run()
	s := c.Stats()
	if s.Misses != 1 || s.MinorHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReadaheadPopulatesFollowingPages(t *testing.T) {
	e, c, f := newCache(t)
	e.Go("p", func(p *sim.Proc) {
		r := c.FaultRead(p, f, 10, blockdev.FaultRead)
		if r.RAPages != initialRAPages-1 {
			t.Errorf("RAPages = %d, want %d", r.RAPages, initialRAPages-1)
		}
		for i := int64(10); i < 10+initialRAPages; i++ {
			if !c.IsResident(f, i) {
				t.Errorf("page %d not resident after readahead", i)
			}
		}
		if c.IsResident(f, 10+initialRAPages) {
			t.Error("readahead overshot the window")
		}
	})
	e.Run()
}

func TestReadaheadRampsOnSequentialFaults(t *testing.T) {
	e, c, f := newCache(t)
	var windows []int64
	e.Go("p", func(p *sim.Proc) {
		page := int64(0)
		for i := 0; i < 4; i++ {
			before := c.ResidentPages(f)
			c.FaultRead(p, f, page, blockdev.FaultRead)
			got := c.ResidentPages(f) - before
			windows = append(windows, got)
			page += got // fault at the next non-resident page: sequential
		}
	})
	e.Run()
	// Ramp 4 → 8 → 16 → 32; the fourth fault reaches the full window
	// and also arms async readahead, so only the first three are exact.
	want := []int64{4, 8, 16}
	for i := range want {
		if windows[i] != want[i] {
			t.Fatalf("window sizes = %v, want prefix %v", windows, want)
		}
	}
	if windows[3] < 32 {
		t.Fatalf("fourth window = %d, want >= 32", windows[3])
	}
}

func TestAsyncReadaheadPipelinesSequentialStream(t *testing.T) {
	// A fully ramped sequential reader gets the next windows read in
	// the background: by the time it has walked well past the ramp,
	// pages ahead of it are already resident and async windows fired.
	e, c, f := newCache(t)
	var aheadResident bool
	e.Go("p", func(p *sim.Proc) {
		for page := int64(0); page < 512; page++ {
			c.FaultRead(p, f, page, blockdev.FaultRead)
			p.Sleep(5 * time.Microsecond) // consumption slower than disk
		}
		aheadResident = c.IsResident(f, 520)
	})
	e.Run()
	if c.Stats().AsyncRAWindows == 0 {
		t.Fatal("no async readahead windows issued")
	}
	if !aheadResident {
		t.Fatal("page ahead of the reader not prefetched")
	}
}

func TestAsyncReadaheadMakesSequentialStreamFasterThanSyncOnly(t *testing.T) {
	// Compare a sequential walk against the purely synchronous cost of
	// the same number of device reads: pipelining must hide most I/O.
	e, c, f := newCache(t)
	var end sim.Time
	e.Go("p", func(p *sim.Proc) {
		for page := int64(0); page < 1024; page++ {
			c.FaultRead(p, f, page, blockdev.FaultRead)
			p.Sleep(3 * time.Microsecond)
		}
		end = p.Now()
	})
	e.Run()
	// Synchronous-only lower bound: 1024/32 = 32 blocking window reads
	// ≈ 32 * (70µs + xfer ~85µs) ≈ 5ms, plus 3µs * 1024 ≈ 3ms compute.
	// With pipelining the walk should stay well under the sum.
	if end > 8*time.Millisecond {
		t.Fatalf("sequential walk took %v, async readahead not effective", end)
	}
}

func TestReadaheadResetsOnRandomFaults(t *testing.T) {
	e, c, f := newCache(t)
	e.Go("p", func(p *sim.Proc) {
		c.FaultRead(p, f, 0, blockdev.FaultRead)
		c.FaultRead(p, f, 4, blockdev.FaultRead) // sequential: window 8
		before := c.ResidentPages(f)
		c.FaultRead(p, f, 500, blockdev.FaultRead) // random: reset to 4
		if got := c.ResidentPages(f) - before; got != initialRAPages {
			t.Fatalf("window after random fault = %d, want %d", got, initialRAPages)
		}
	})
	e.Run()
}

func TestConcurrentFaultsCoalesce(t *testing.T) {
	e, c, f := newCache(t)
	results := make([]FaultResult, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Go("p", func(p *sim.Proc) {
			results[i] = c.FaultRead(p, f, 7, blockdev.FaultRead)
		})
	}
	e.Run()
	if results[0].SharedWait == results[1].SharedWait {
		t.Fatalf("results = %+v, want exactly one shared wait", results)
	}
	if got := f.Dev.Stats().Requests; got != 1 {
		t.Fatalf("device requests = %d, want 1 (coalesced)", got)
	}
}

func TestMincore(t *testing.T) {
	e, c, f := newCache(t)
	e.Go("p", func(p *sim.Proc) {
		c.FaultRead(p, f, 64, blockdev.FaultRead)
	})
	e.Run()
	got := c.Mincore(f, 60, 72)
	for i, r := range got {
		page := int64(60 + i)
		want := page >= 64 && page < 64+initialRAPages
		if r != want {
			t.Fatalf("mincore[%d] (page %d) = %v, want %v", i, page, r, want)
		}
	}
}

func TestMincoreSeesReadaheadPages(t *testing.T) {
	// The key enabler of host page recording (§4.4): pages brought in
	// by readahead are visible to mincore even though no guest fault
	// touched them.
	e, c, f := newCache(t)
	e.Go("p", func(p *sim.Proc) {
		c.FaultRead(p, f, 200, blockdev.FaultRead)
	})
	e.Run()
	res := c.Mincore(f, 201, 201+initialRAPages-1)
	for i, r := range res {
		if !r {
			t.Fatalf("readahead page %d not visible to mincore", 201+i)
		}
	}
}

func TestDrop(t *testing.T) {
	e, c, f := newCache(t)
	e.Go("p", func(p *sim.Proc) {
		c.FaultRead(p, f, 0, blockdev.FaultRead)
		c.Drop(f)
		if c.ResidentPages(f) != 0 {
			t.Error("pages resident after drop")
		}
		r := c.FaultRead(p, f, 0, blockdev.FaultRead)
		if r.Hit {
			t.Error("hit after drop")
		}
	})
	e.Run()
}

func TestPopulateMakesEverythingResident(t *testing.T) {
	e, c, f := newCache(t)
	c.Populate(f)
	e.Go("p", func(p *sim.Proc) {
		r := c.FaultRead(p, f, 999, blockdev.FaultRead)
		if !r.Hit {
			t.Error("miss on populated file")
		}
	})
	e.Run()
	if c.ResidentPages(f) != 1024 {
		t.Fatalf("resident = %d, want 1024", c.ResidentPages(f))
	}
	if c.ResidentBytes() != 1024*PageSize {
		t.Fatalf("ResidentBytes = %d", c.ResidentBytes())
	}
}

// TestPopulateCountsOnlyNewPages: Populate over a partly resident
// 100-page file counts only the pages it adds, and sets no bit past
// the file's last page.
func TestPopulateCountsOnlyNewPages(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e)
	f := c.Register("f", blockdev.New(e, blockdev.NVMeLocal()), 100)
	e.Go("p", func(p *sim.Proc) { c.ReadRange(p, f, 60, 10, blockdev.PrefetchRead) })
	e.Run()
	c.Populate(f)
	if got := c.Stats().PopulatedPages; got != 100 || c.ResidentPages(f) != 100 || c.totalPages != 100 {
		t.Fatalf("populated %d (10 read + Populate), resident %d, total %d; want 100 each", got, c.ResidentPages(f), c.totalPages)
	}
	var runs [][2]int64
	c.Resident(f).Runs(func(start, end int64) { runs = append(runs, [2]int64{start, end}) })
	if len(runs) != 1 || runs[0] != [2]int64{0, 100} {
		t.Fatalf("resident runs %v, want pages 0..99 and nothing past them", runs)
	}
}

func TestReadRangeSkipsResident(t *testing.T) {
	e, c, f := newCache(t)
	e.Go("p", func(p *sim.Proc) {
		c.FaultRead(p, f, 8, blockdev.FaultRead) // pages 8..11 resident
		f.Dev.ResetStats()
		read := c.ReadRange(p, f, 0, 16, blockdev.PrefetchRead)
		if read != 12 {
			t.Errorf("ReadRange read %d pages, want 12 (4 already resident)", read)
		}
	})
	e.Run()
	for i := int64(0); i < 16; i++ {
		if !c.IsResident(f, i) {
			t.Fatalf("page %d not resident after ReadRange", i)
		}
	}
}

func TestReadRangeChunksRequests(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e)
	d := blockdev.New(e, blockdev.NVMeLocal())
	f := c.Register("big", d, 2*bulkRequestPages)
	e.Go("p", func(p *sim.Proc) {
		c.ReadRange(p, f, 0, 2*bulkRequestPages, blockdev.PrefetchRead)
	})
	e.Run()
	if got := f.Dev.Stats().Requests; got != 2 {
		t.Fatalf("requests = %d, want 2 bulk requests", got)
	}
}

func TestReadRangeDirectDoesNotPopulate(t *testing.T) {
	e, c, f := newCache(t)
	var dur time.Duration
	e.Go("p", func(p *sim.Proc) {
		dur = c.ReadRangeDirect(p, f, 0, 64, blockdev.FetchRead)
	})
	e.Run()
	if c.ResidentPages(f) != 0 {
		t.Fatal("direct read populated the cache")
	}
	if dur <= 0 {
		t.Fatal("direct read took no time")
	}
	if got := f.Dev.Stats().Bytes; got != 64*PageSize {
		t.Fatalf("device bytes = %d, want %d", got, 64*PageSize)
	}
}

func TestLoaderMakesGuestFaultMinor(t *testing.T) {
	// The concurrent-paging contract: after the loader pulls a page in
	// via ReadRange, a guest fault on it is a free minor hit.
	e, c, f := newCache(t)
	var res FaultResult
	e.Go("loader", func(p *sim.Proc) {
		c.ReadRange(p, f, 100, 32, blockdev.PrefetchRead)
	})
	e.Go("guest", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // loader is long done
		res = c.FaultRead(p, f, 120, blockdev.FaultRead)
	})
	e.Run()
	if !res.Hit {
		t.Fatalf("guest fault = %+v, want minor hit", res)
	}
}

func TestGuestWaitsOnLoaderInflightRead(t *testing.T) {
	// If the guest faults on the exact page the loader is mid-read on,
	// it waits for that I/O instead of issuing a duplicate request.
	e, c, f := newCache(t)
	var res FaultResult
	e.Go("loader", func(p *sim.Proc) {
		c.ReadRange(p, f, 0, 32, blockdev.PrefetchRead)
	})
	e.Go("guest", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // loader's request is in flight
		res = c.FaultRead(p, f, 0, blockdev.FaultRead)
	})
	e.Run()
	if !res.SharedWait {
		t.Fatalf("guest fault = %+v, want shared wait", res)
	}
	if got := f.Dev.Stats().Requests; got != 1 {
		t.Fatalf("device requests = %d, want 1", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e, c, f := newCache(t)
	e.Go("p", func(p *sim.Proc) {
		c.FaultRead(p, f, 1024, blockdev.FaultRead)
	})
	e.Run()
}

func TestMultipleFilesIndependent(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e)
	d := blockdev.New(e, blockdev.NVMeLocal())
	a := c.Register("a", d, 128)
	b := c.Register("b", d, 128)
	e.Go("p", func(p *sim.Proc) {
		c.FaultRead(p, a, 0, blockdev.FaultRead)
	})
	e.Run()
	if c.ResidentPages(b) != 0 {
		t.Fatal("file b gained pages from file a's fault")
	}
	if c.ResidentPages(a) == 0 {
		t.Fatal("file a has no resident pages")
	}
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e)
	d := blockdev.New(e, blockdev.NVMeLocal())
	f := c.Register("big", d, 2048)
	c.SetLimit(256)
	e.Go("p", func(p *sim.Proc) {
		c.ReadRange(p, f, 0, 1024, blockdev.PrefetchRead)
	})
	e.Run()
	if got := c.ResidentPages(f); got > 256 {
		t.Fatalf("resident = %d, want <= limit 256", got)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// Oldest pages went first (FIFO): the tail of the range survives.
	if c.IsResident(f, 0) {
		t.Fatal("oldest page survived FIFO eviction")
	}
	if !c.IsResident(f, 1023) {
		t.Fatal("newest page evicted")
	}
}

func TestEvictedPageFaultsAgain(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e)
	d := blockdev.New(e, blockdev.NVMeLocal())
	f := c.Register("big", d, 2048)
	c.SetLimit(64)
	var second FaultResult
	e.Go("p", func(p *sim.Proc) {
		c.FaultRead(p, f, 0, blockdev.FaultRead)
		c.ReadRange(p, f, 256, 512, blockdev.PrefetchRead) // push page 0 out
		second = c.FaultRead(p, f, 0, blockdev.FaultRead)
	})
	e.Run()
	if second.Hit {
		t.Fatal("evicted page served as a hit")
	}
}

func TestDropResetsPressureAccounting(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e)
	d := blockdev.New(e, blockdev.NVMeLocal())
	f := c.Register("big", d, 1024)
	c.SetLimit(512)
	e.Go("p", func(p *sim.Proc) {
		c.ReadRange(p, f, 0, 400, blockdev.PrefetchRead)
		c.Drop(f)
		// After a drop, there is room again: no evictions needed.
		evBefore := c.Stats().Evictions
		c.ReadRange(p, f, 0, 400, blockdev.PrefetchRead)
		if c.Stats().Evictions != evBefore {
			t.Error("drop did not release pressure accounting")
		}
	})
	e.Run()
}

func TestUnlimitedCacheNeverEvicts(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e)
	d := blockdev.New(e, blockdev.NVMeLocal())
	f := c.Register("big", d, 4096)
	e.Go("p", func(p *sim.Proc) {
		c.ReadRange(p, f, 0, 4096, blockdev.PrefetchRead)
	})
	e.Run()
	if c.Stats().Evictions != 0 || c.ResidentPages(f) != 4096 {
		t.Fatalf("unlimited cache evicted: %+v", c.Stats())
	}
}

// TestEvictionStopsAtInFlightPages: pages made resident before the
// limit was set have no FIFO entry, so the queue can hold nothing but
// the page being read; eviction gives up on it instead of re-queueing
// it forever, and the next insert retries.
func TestEvictionStopsAtInFlightPages(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e)
	d := blockdev.New(e, blockdev.NVMeLocal())
	a, b := c.Register("a", d, 64), c.Register("b", d, 64)
	c.Populate(a)
	c.SetLimit(1)
	e.Go("p", func(p *sim.Proc) { c.FaultRead(p, b, 0, blockdev.FaultRead) })
	e.Run()
	// The fault reads pages 0..3 of b; each insert evicts the one before.
	if c.Stats().Evictions != 3 || !c.IsResident(b, 3) || c.ResidentPages(a) != 64 {
		t.Fatalf("evictions %d, b:3 resident %v, a resident %d; want 3, true, 64", c.Stats().Evictions, c.IsResident(b, 3), c.ResidentPages(a))
	}
}
