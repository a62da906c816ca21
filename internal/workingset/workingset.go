// Package workingset implements working-set recording and loading-set
// construction.
//
// Two recorders reproduce the two systems compared in the paper:
//
//   - MincoreRecorder is FaaSnap's host page recording (§4.4): the
//     daemon polls the guest's RSS and, each time enough new pages have
//     appeared, runs a mincore scan over the mapped memory file. Pages
//     are assigned working-set group numbers in the order they appear
//     across scans; readahead-populated pages are captured even though
//     no guest fault touched them.
//
//   - UffdRecorder is REAP-style recording: a userfaultfd handler logs
//     the address of every faulting guest page in fault order, yielding
//     a compact working-set file of exactly the touched pages.
//
// From a working set and the post-invocation memory file, BuildLoadingSet
// derives FaaSnap's loading set (§4.6–4.7): non-zero working-set pages,
// merged across gaps of up to 32 pages, sorted by (group, address) and
// laid out contiguously in a loading-set file.
package workingset

import (
	"sort"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/hostmm"
	"faasnap/internal/pagebits"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
	"faasnap/internal/snapshot"
)

// GroupSize is the number of pages per working-set group (§4.3: "we
// find N = 1024 works well across the function benchmarks").
const GroupSize = 1024

// DefaultMergeGap is the region-merge distance threshold in pages
// (§4.6: "empirically set to 32 pages").
const DefaultMergeGap = 32

// WorkingSet is an ordered, grouped set of guest pages.
type WorkingSet struct {
	// Groups holds page numbers per group in discovery order.
	Groups [][]int64
}

// Pages returns the total page count.
func (ws *WorkingSet) Pages() int64 {
	var n int64
	for _, g := range ws.Groups {
		n += int64(len(g))
	}
	return n
}

// Bytes returns the working-set size in bytes.
func (ws *WorkingSet) Bytes() int64 { return ws.Pages() * snapshot.PageSize }

// PageGroups returns a map from page number to group index.
func (ws *WorkingSet) PageGroups() map[int64]int {
	m := make(map[int64]int, ws.Pages())
	for g, pages := range ws.Groups {
		for _, p := range pages {
			if _, ok := m[p]; !ok {
				m[p] = g
			}
		}
	}
	return m
}

// add appends pages to the working set, chunking into GroupSize groups.
func (ws *WorkingSet) add(pages []int64) {
	for _, p := range pages {
		if n := len(ws.Groups); n == 0 || len(ws.Groups[n-1]) >= GroupSize {
			ws.Groups = append(ws.Groups, make([]int64, 0, GroupSize))
		}
		g := len(ws.Groups) - 1
		ws.Groups[g] = append(ws.Groups[g], p)
	}
}

// MincoreRecorder performs FaaSnap host page recording against the
// memory file that backs the record-phase guest.
type MincoreRecorder struct {
	cache    *pagecache.Cache
	file     *pagecache.File
	as       *hostmm.AddrSpace
	interval time.Duration

	ws      WorkingSet
	seen    *pagebits.Set
	lastRSS int64
	stopped *sim.Event
	scans   int
}

// NewMincoreRecorder returns a recorder for the guest mapped on as,
// whose memory file is file. interval is the daemon's procfs polling
// period.
func NewMincoreRecorder(env *sim.Env, cache *pagecache.Cache, file *pagecache.File, as *hostmm.AddrSpace, interval time.Duration) *MincoreRecorder {
	if interval <= 0 {
		interval = 250 * time.Microsecond
	}
	return &MincoreRecorder{
		cache:    cache,
		file:     file,
		as:       as,
		interval: interval,
		seen:     pagebits.New(file.Pages),
		stopped:  sim.NewEvent(env),
	}
}

// Start launches the polling process in env. The recorder polls the
// guest RSS and scans once at least GroupSize new pages appeared,
// stopping (with a final scan) when Stop is called.
func (r *MincoreRecorder) Start(env *sim.Env) {
	env.Go("mincore-recorder", func(p *sim.Proc) {
		for !r.stopped.Fired() {
			p.Sleep(r.interval)
			if r.stopped.Fired() {
				break
			}
			rss := r.as.RSS()
			if rss-r.lastRSS >= GroupSize {
				r.lastRSS = rss
				r.scan()
			}
		}
	})
}

// Stop finalizes recording with a last scan.
func (r *MincoreRecorder) Stop() {
	if r.stopped.Fired() {
		return
	}
	r.scan()
	r.stopped.Fire()
}

// scan diffs current residency against what has been recorded and
// appends new pages in ascending address order.
func (r *MincoreRecorder) scan() {
	r.scans++
	var fresh []int64
	r.cache.Resident(r.file).Runs(func(start, end int64) {
		for p := start; p < end; p++ {
			if r.seen.Add(p) {
				fresh = append(fresh, p)
			}
		}
	})
	r.ws.add(fresh)
}

// WorkingSet returns the recorded set. Call after Stop.
func (r *MincoreRecorder) WorkingSet() *WorkingSet { return &r.ws }

// Scans returns how many mincore scans ran.
func (r *MincoreRecorder) Scans() int { return r.scans }

// UffdRecorder is a userfaultfd handler that records faulting pages in
// order and serves them from the memory file via the page cache, as
// REAP's record phase does.
type UffdRecorder struct {
	cache *pagecache.Cache
	file  *pagecache.File
	pages []int64
}

var _ hostmm.UffdHandler = (*UffdRecorder)(nil)

// NewUffdRecorder returns a recorder serving faults from file.
func NewUffdRecorder(cache *pagecache.Cache, file *pagecache.File) *UffdRecorder {
	return &UffdRecorder{cache: cache, file: file}
}

// HandleFault implements hostmm.UffdHandler.
func (r *UffdRecorder) HandleFault(p *sim.Proc, page int64) {
	r.pages = append(r.pages, page)
	r.cache.FaultRead(p, r.file, page, blockdev.FaultRead)
}

// Pages returns the recorded fault-order page list.
func (r *UffdRecorder) Pages() []int64 { return r.pages }

// WSFile is REAP's compact working-set file: the faulted pages in
// fault order, stored contiguously.
type WSFile struct {
	Pages []int64 // guest pages in fault (and file) order
}

// NewWSFile builds the compact file layout from recorded fault order.
func NewWSFile(pages []int64) *WSFile {
	return &WSFile{Pages: append([]int64(nil), pages...)}
}

// PageCount returns the number of pages in the file.
func (w *WSFile) PageCount() int64 { return int64(len(w.Pages)) }

// Bytes returns the file size.
func (w *WSFile) Bytes() int64 { return w.PageCount() * snapshot.PageSize }

// Contains returns a membership set for out-of-working-set tests.
func (w *WSFile) Contains() map[int64]bool {
	m := make(map[int64]bool, len(w.Pages))
	for _, p := range w.Pages {
		m[p] = true
	}
	return m
}

// LoadingSet is FaaSnap's loading set: merged non-zero working-set
// regions ordered by (group, address) with their loading-set-file
// offsets precomputed (§4.7: "the file offsets and sizes of the regions
// are cached in the FaaSnap daemon").
type LoadingSet struct {
	Regions []snapshot.Region // sorted by (group, start)
	Offsets []int64           // loading-set-file page offset per region
	Total   int64             // loading-set-file length in pages
}

// Bytes returns the loading-set-file size.
func (ls *LoadingSet) Bytes() int64 { return ls.Total * snapshot.PageSize }

// BuildLoadingSet intersects the working set with the non-zero pages of
// mem, merges adjacent regions whose gap is at most mergeGap pages
// (pulling the in-between pages into the file), assigns each region the
// lowest group of its pages, and lays regions out by (group, address).
func BuildLoadingSet(ws *WorkingSet, mem *snapshot.MemoryFile, mergeGap int64) *LoadingSet {
	groups := ws.PageGroups()
	// Candidate pages: non-zero working-set pages, ascending.
	pages := make([]int64, 0, len(groups))
	for p := range groups {
		if !mem.IsZero(p) {
			pages = append(pages, p)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	if len(pages) == 0 {
		return &LoadingSet{}
	}
	// Runs of consecutive pages become regions; region group is the
	// minimum group of its pages.
	var regions []snapshot.Region
	cur := snapshot.Region{Start: pages[0], Len: 1, Group: groups[pages[0]]}
	for _, p := range pages[1:] {
		if p == cur.End() {
			cur.Len++
			if g := groups[p]; g < cur.Group {
				cur.Group = g
			}
			continue
		}
		regions = append(regions, cur)
		cur = snapshot.Region{Start: p, Len: 1, Group: groups[p]}
	}
	regions = append(regions, cur)
	regions = snapshot.MergeRegions(regions, mergeGap)

	// Sort by (group, address) for the compact file layout.
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].Group != regions[j].Group {
			return regions[i].Group < regions[j].Group
		}
		return regions[i].Start < regions[j].Start
	})
	ls := &LoadingSet{Regions: regions, Offsets: make([]int64, len(regions))}
	var off int64
	for i, r := range regions {
		ls.Offsets[i] = off
		off += r.Len
	}
	ls.Total = off
	return ls
}
