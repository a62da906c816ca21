// Package pagecache models the host OS page cache: per-file page
// residency, Linux-style readahead with a ramping window, concurrent
// miss coalescing, mincore-style residency scans, and cache dropping.
//
// The cache is central to three of the paper's observations (§3.4):
// minor faults served from the cache are an order of magnitude cheaper
// than major faults; readahead pulls in pages *near* a faulting page
// that mincore-based host page recording can observe but
// userfaultfd-based recording cannot; and concurrent paging works by
// having the FaaSnap loader populate the cache ahead of the guest so
// guest faults become minor.
package pagecache

import (
	"fmt"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/pagebits"
	"faasnap/internal/sim"
)

// PageSize is the host and guest page size in bytes.
const PageSize = 4096

// Readahead tuning, after Linux's on-demand readahead: an initial
// window that doubles on sequential faults up to 128 KiB.
const (
	initialRAPages = 4
	maxRAPages     = 32
	// bulkRequestPages bounds explicit bulk reads (the FaaSnap loader,
	// REAP's fetch): large sequential preads issue MB-scale transfers.
	bulkRequestPages = 256
)

// FileID identifies a registered file.
type FileID int32

// File is a cacheable file backed by a block device.
type File struct {
	ID    FileID
	Name  string
	Dev   *blockdev.Device
	Pages int64 // file length in pages

	resident *pagebits.Set
	raNext   int64 // next expected sequential fault page
	raWindow int64 // current readahead window in pages

	// Async readahead state: once a stream is fully ramped, the next
	// window is prefetched in the background and re-armed when the
	// reader crosses the trigger page, pipelining disk reads with
	// consumption as Linux's async readahead does.
	asyncTrigger int64 // page whose access kicks the next async window (-1 off)
	asyncNext    int64 // first page of the next async window

	flights []flight // device reads in flight, disjoint and unordered
}

// flight is one device read of a file in flight: pages [start, end),
// each of which leaves the in-flight set once it has landed, and the
// event fired when the last one has.
type flight struct {
	start, end int64
	done       *sim.Event
}

// flightAt returns the read in flight that covers page, or nil and the
// first page past page that a read in flight covers (f.Pages if none).
func (f *File) flightAt(page int64) (*flight, int64) {
	next := f.Pages
	for i := range f.flights {
		fl := &f.flights[i]
		if fl.start <= page && page < fl.end {
			return fl, page
		}
		if fl.start > page && fl.start < next {
			next = fl.start
		}
	}
	return nil, next
}

func (f *File) clearAll() {
	f.resident.RemoveRange(0, f.Pages)
	f.raNext = -1
	f.raWindow = initialRAPages
	f.asyncTrigger = -1
	f.asyncNext = 0
}

// Stats aggregates cache activity.
type Stats struct {
	MinorHits      int64 // fault reads served from the cache
	Misses         int64 // fault reads that had to touch the device
	SharedWaits    int64 // fault reads that waited on another reader's I/O
	ReadaheadPages int64 // pages brought in beyond the faulting page
	PopulatedPages int64 // pages inserted by bulk reads (loader, populate)
	AsyncRAWindows int64 // background readahead windows issued
	Evictions      int64 // pages reclaimed under memory pressure
}

// Sub returns s minus o, field by field: the activity between two
// snapshots of a shared cache's counters.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		MinorHits:      s.MinorHits - o.MinorHits,
		Misses:         s.Misses - o.Misses,
		SharedWaits:    s.SharedWaits - o.SharedWaits,
		ReadaheadPages: s.ReadaheadPages - o.ReadaheadPages,
		PopulatedPages: s.PopulatedPages - o.PopulatedPages,
		AsyncRAWindows: s.AsyncRAWindows - o.AsyncRAWindows,
		Evictions:      s.Evictions - o.Evictions,
	}
}

type pageKey struct {
	file FileID
	page int64
}

// Cache is a host page cache bound to one simulation environment.
type Cache struct {
	env   *sim.Env
	files []*File
	stats Stats

	// maxPages bounds total residency; 0 means unlimited (the paper's
	// 192 GB host never evicts during an experiment). When bounded,
	// insertion beyond the limit evicts in FIFO order, a conservative
	// stand-in for kernel reclaim. Pages being read cannot be reclaimed,
	// and pages made resident before the limit was set have no FIFO
	// entry, so the queue may hold nothing but pages being read: the
	// cache then stays over the limit until a later insert retries.
	maxPages   int64
	fifo       []pageKey
	fifoHead   int
	totalPages int64
}

// New returns an empty cache in env.
func New(env *sim.Env) *Cache {
	return &Cache{env: env}
}

// SetLimit bounds the cache to maxPages resident pages (0 = unlimited).
func (c *Cache) SetLimit(maxPages int64) { c.maxPages = maxPages }

// insert marks a page resident and applies the eviction policy.
func (c *Cache) insert(f *File, page int64) bool {
	if !f.resident.Add(page) {
		return false
	}
	c.totalPages++
	if c.maxPages > 0 {
		c.fifo = append(c.fifo, pageKey{f.ID, page})
		c.evictOver()
	}
	return true
}

// evictOver reclaims FIFO-oldest resident pages until within limit.
// Pages with in-flight reads are skipped (the kernel cannot reclaim
// locked pages), and it gives up once a full pass of the queue has
// found nothing else.
func (c *Cache) evictOver() {
	for busy := 0; c.totalPages > c.maxPages && busy < len(c.fifo)-c.fifoHead; {
		key := c.fifo[c.fifoHead]
		c.fifoHead++
		f := c.files[key.file]
		if fl, _ := f.flightAt(key.page); fl != nil {
			c.fifo = append(c.fifo, key) // retry later
			busy++
			continue
		}
		busy = 0
		if f.resident.Remove(key.page) {
			c.totalPages--
			c.stats.Evictions++
		}
	}
	// Compact the ring occasionally.
	if c.fifoHead > len(c.fifo)/2 && c.fifoHead > 1024 {
		c.fifo = append([]pageKey(nil), c.fifo[c.fifoHead:]...)
		c.fifoHead = 0
	}
}

// Register adds a file of the given length (in pages) backed by dev and
// returns its handle.
func (c *Cache) Register(name string, dev *blockdev.Device, pages int64) *File {
	if pages < 0 {
		panic("pagecache: negative file size")
	}
	f := &File{
		ID:           FileID(len(c.files)),
		Name:         name,
		Dev:          dev,
		Pages:        pages,
		resident:     pagebits.New(pages),
		raNext:       -1,
		raWindow:     initialRAPages,
		asyncTrigger: -1,
	}
	c.files = append(c.files, f)
	return f
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResidentPages returns the number of resident pages of f.
func (c *Cache) ResidentPages(f *File) int64 { return f.resident.Count() }

// ResidentBytes returns the total cache footprint in bytes.
func (c *Cache) ResidentBytes() int64 {
	var n int64
	for _, f := range c.files {
		n += f.resident.Count() * PageSize
	}
	return n
}

// IsResident reports whether page of f is in the cache.
func (c *Cache) IsResident(f *File, page int64) bool {
	c.checkPage(f, page)
	return f.resident.Has(page)
}

// Mincore reports residency for pages [lo, hi) of f, like the mincore
// syscall on a mapped range.
func (c *Cache) Mincore(f *File, lo, hi int64) []bool {
	if lo < 0 || hi > f.Pages || lo > hi {
		panic(fmt.Sprintf("pagecache: Mincore range [%d,%d) outside file of %d pages", lo, hi, f.Pages))
	}
	out := make([]bool, hi-lo)
	for i := range out {
		out[i] = f.resident.Has(lo + int64(i))
	}
	return out
}

// Resident returns a copy-on-write snapshot of f's residency. Recorders
// use it to diff residency between mincore scans without allocating
// per-page slices.
func (c *Cache) Resident(f *File) *pagebits.Set {
	return f.resident.Clone()
}

// Drop evicts every resident page of f (echo 3 > drop_caches, scoped to
// one file). Pages with in-flight reads complete and land resident.
func (c *Cache) Drop(f *File) {
	c.totalPages -= f.resident.Count()
	f.clearAll()
}

// Populate marks every page of f resident without modelling I/O time.
// It implements the paper's "Cached" reference configuration, where the
// snapshot memory file is preloaded into the page cache before the
// measurement starts.
func (c *Cache) Populate(f *File) {
	if c.maxPages > 0 {
		// A bounded cache inserts page by page, in FIFO order.
		for p := int64(0); p < f.Pages; p++ {
			if c.insert(f, p) {
				c.stats.PopulatedPages++
			}
		}
		return
	}
	n := f.resident.AddRange(0, f.Pages)
	c.totalPages += n
	c.stats.PopulatedPages += n
}

func (c *Cache) checkPage(f *File, page int64) {
	if page < 0 || page >= f.Pages {
		panic(fmt.Sprintf("pagecache: page %d outside file %q of %d pages", page, f.Name, f.Pages))
	}
}

// FaultResult describes how a fault-path read was satisfied.
type FaultResult struct {
	Hit        bool          // served from the cache without waiting on I/O
	SharedWait bool          // waited for someone else's in-flight read
	IOTime     time.Duration // time blocked on device I/O (zero on hit)
	RAPages    int64         // extra pages brought in by readahead
}

// FaultRead is the page-fault read path for page of f: a cache hit
// returns immediately; a miss reads the faulting page plus a readahead
// window whose size ramps up on sequential access. Concurrent faults on
// the same page coalesce onto one device request.
func (c *Cache) FaultRead(p *sim.Proc, f *File, page int64, class blockdev.Class) FaultResult {
	c.checkPage(f, page)
	if f.resident.Has(page) {
		c.stats.MinorHits++
		c.maybeAsyncRA(f, page)
		return FaultResult{Hit: true}
	}
	fl, busyFrom := f.flightAt(page)
	if fl != nil {
		// Another process is already reading this page; wait for it.
		start := c.env.Now()
		fl.done.Wait(p)
		c.stats.SharedWaits++
		return FaultResult{SharedWait: true, IOTime: c.env.Now() - start}
	}
	c.stats.Misses++

	// Readahead window: ramp on sequential faults, reset otherwise.
	sequential := page == f.raNext
	if sequential {
		f.raWindow *= 2
		if f.raWindow > maxRAPages {
			f.raWindow = maxRAPages
		}
	} else {
		f.raWindow = initialRAPages
		f.asyncTrigger = -1
	}
	// The run covers the faulting page and up to window-1 following
	// pages, stopping at the first page that is already resident or
	// already being read.
	end := min(page+f.raWindow, busyFrom)
	run := int64(1)
	for page+run < end && !f.resident.Has(page+run) {
		run++
	}
	f.raNext = page + run

	io := c.read(p, f, page, page+run, class)
	c.stats.ReadaheadPages += run - 1
	// A fully ramped sequential stream arms async readahead: the next
	// two windows are read in the background and the pipeline re-arms
	// as the reader advances, so later faults overlap with the disk
	// instead of blocking on it.
	if sequential && f.raWindow >= maxRAPages && page+run < f.Pages {
		f.asyncNext = page + run
		c.submitAsyncWindow(f)
		c.submitAsyncWindow(f)
		f.asyncTrigger = page + run
	}
	return FaultResult{IOTime: io, RAPages: run - 1}
}

// maybeAsyncRA re-arms the background readahead pipeline when the
// reader crosses the trigger page, keeping roughly two windows of
// lead over consumption.
func (c *Cache) maybeAsyncRA(f *File, page int64) {
	if f.asyncTrigger < 0 || page != f.asyncTrigger {
		return
	}
	c.submitAsyncWindow(f)
	f.asyncTrigger += maxRAPages
	if f.asyncTrigger >= f.Pages {
		f.asyncTrigger = -1
	}
}

// submitAsyncWindow launches a background read of the window at
// asyncNext and advances it.
func (c *Cache) submitAsyncWindow(f *File) {
	start := f.asyncNext
	if start >= f.Pages {
		return
	}
	n := int64(maxRAPages)
	if start+n > f.Pages {
		n = f.Pages - start
	}
	f.asyncNext = start + n
	c.stats.AsyncRAWindows++
	c.env.Go("async-readahead", func(rp *sim.Proc) {
		c.ReadRange(rp, f, start, n, blockdev.PrefetchRead)
	})
}

// ReadRange performs a bulk buffered read of pages [start, start+n) of
// f, populating the cache. Pages already resident or in flight are
// skipped; device requests are capped at bulkRequestPages each. This is
// the FaaSnap loader's prefetch path. It returns the number of pages
// actually read from the device.
func (c *Cache) ReadRange(p *sim.Proc, f *File, start, n int64, class blockdev.Class) int64 {
	if n <= 0 {
		return 0
	}
	c.checkPage(f, start)
	c.checkPage(f, start+n-1)
	var read int64
	i := start
	for i < start+n {
		if f.resident.Has(i) {
			i++
			continue
		}
		fl, busyFrom := f.flightAt(i)
		if fl != nil {
			i = fl.end
			continue
		}
		// Collect a run of missing, idle pages.
		end := min(start+n, i+bulkRequestPages, busyFrom)
		run := int64(1)
		for i+run < end && !f.resident.Has(i+run) {
			run++
		}
		c.read(p, f, i, i+run, class)
		c.stats.PopulatedPages += run
		read += run
		i += run
	}
	return read
}

// read reads pages [start, end) of f as one device request and lands
// them, each page leaving the in-flight set only after its own insert,
// so a bounded cache cannot evict the pages still landing. It returns
// the time spent on the device.
func (c *Cache) read(p *sim.Proc, f *File, start, end int64, class blockdev.Class) time.Duration {
	done := sim.NewEvent(c.env)
	f.flights = append(f.flights, flight{start, end, done})
	io := f.Dev.Read(p, (end-start)*PageSize, class)
	i := 0
	for f.flights[i].done != done {
		i++
	}
	for pg := start; pg < end; pg++ {
		c.insert(f, pg)
		f.flights[i].start++
	}
	last := len(f.flights) - 1
	f.flights[i] = f.flights[last]
	f.flights[last] = flight{}
	f.flights = f.flights[:last]
	done.Fire()
	return io
}

// ReadRangeDirect reads pages [start, start+n) of f bypassing the page
// cache (O_DIRECT), as REAP does for its working-set fetch to maximize
// read bandwidth at the cost of sharing (§6.6). Nothing becomes
// resident. It returns the time spent.
func (c *Cache) ReadRangeDirect(p *sim.Proc, f *File, start, n int64, class blockdev.Class) time.Duration {
	if n <= 0 {
		return 0
	}
	c.checkPage(f, start)
	c.checkPage(f, start+n-1)
	begin := c.env.Now()
	for off := int64(0); off < n; off += bulkRequestPages {
		run := n - off
		if run > bulkRequestPages {
			run = bulkRequestPages
		}
		f.Dev.Read(p, run*PageSize, class)
	}
	return c.env.Now() - begin
}
