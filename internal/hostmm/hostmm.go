// Package hostmm models the host-side memory management for one guest
// VM: the VMM's guest-memory mapping (a list of VMAs built with
// overlapping MAP_FIXED mmap calls, §4.8), host page-table and EPT
// presence, the four page-fault paths (anonymous, page-cache minor,
// disk major, userfaultfd), and RSS accounting.
//
// The semantic gap the paper describes lives here: the host resolves a
// guest fault purely by the VMA backing the guest-physical address, so
// a guest anonymous-page allocation against a file-backed mapping
// becomes a disk read — unless FaaSnap's per-region mapping has placed
// an anonymous VMA over the zero region.
package hostmm

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/metrics"
	"faasnap/internal/pagebits"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
)

// Backing identifies what a VMA maps.
type Backing int

const (
	// BackAnon is anonymous memory (zero-fill on demand).
	BackAnon Backing = iota
	// BackFile is a private file-backed mapping.
	BackFile
)

// CostModel holds the microarchitectural fault-path costs. Defaults are
// calibrated to the paper's Section 3.3 measurements on a c5d.metal
// host (warm anonymous faults average 2.5 µs, Cached minor faults
// 3.7 µs, major faults ≥ 32 µs, uffd adds several µs per fault).
type CostModel struct {
	AnonFault   time.Duration // zero-fill anonymous fault
	MinorFault  time.Duration // file-backed fault served from page cache
	MajorKernel time.Duration // kernel-side overhead of a major fault, added to device time
	PTEFixup    time.Duration // fault where the host PTE already exists (EPT fixup only)
	UffdWake    time.Duration // kernel → userspace handler wakeup
	UffdCopy    time.Duration // UFFDIO_COPY page install
	UffdResume  time.Duration // context switch to resume the blocked vCPU
	MmapCall    time.Duration // one mmap syscall
	// CowCopy is the extra cost of a write fault on a private
	// file-backed mapping: the kernel copies the page-cache page into
	// a fresh anonymous page. Guest writes against the memory file pay
	// it; writes against anonymous mappings and uffd-installed pages
	// do not.
	CowCopy time.Duration
	// MajorBlock is the extra vCPU blocked time around a major fault
	// beyond the fault handler itself: kvm_vcpu_block plus scheduler
	// wakeup once the I/O completes. It is accounted as vCPU block
	// time (Table 3's "page fault waiting time"), not as fault service
	// time, so Figure 2's handler-time distribution is unaffected.
	MajorBlock time.Duration
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		AnonFault:   2500 * time.Nanosecond,
		MinorFault:  3500 * time.Nanosecond,
		MajorKernel: 8 * time.Microsecond,
		PTEFixup:    1500 * time.Nanosecond,
		UffdWake:    4 * time.Microsecond,
		UffdCopy:    time.Microsecond,
		UffdResume:  55 * time.Microsecond,
		MmapCall:    1500 * time.Nanosecond,
		CowCopy:     1500 * time.Nanosecond,
		MajorBlock:  80 * time.Microsecond,
	}
}

// VMA is one mapping of guest-physical pages.
type VMA struct {
	Start   int64 // first guest page
	End     int64 // one past the last guest page
	Back    Backing
	File    *pagecache.File // for BackFile
	FileOff int64           // file page corresponding to Start
}

func (v VMA) contains(page int64) bool { return page >= v.Start && page < v.End }

// filePage returns the file page backing guest page p.
func (v VMA) filePage(p int64) int64 { return v.FileOff + (p - v.Start) }

// UffdHandler handles a fault delivered to userspace. It runs on the
// faulting process and must bring the page's contents to readiness
// (typically by reading the snapshot memory file); the kernel-side
// wake/copy/resume costs are charged by AddrSpace.
type UffdHandler interface {
	HandleFault(p *sim.Proc, page int64)
}

// AddrSpace is the host view of one guest VM's memory.
type AddrSpace struct {
	env   *sim.Env
	cache *pagecache.Cache
	costs CostModel
	pages int64

	vmas []VMA // sorted by Start, non-overlapping, covering subsets

	ptePresent *pagebits.Set // host PTEs; their count is the RSS
	eptMapped  *pagebits.Set

	uffdHandler UffdHandler
	uffdLo      int64
	uffdHi      int64

	mmapCalls int
	stats     metrics.FaultStats
	faultHook func(FaultEvent)
}

// FaultEvent is one resolved guest fault, for timeline tracing (the
// role bpftrace plays in the paper's measurements).
type FaultEvent struct {
	At       sim.Time
	Page     int64
	Duration time.Duration
	Kind     metrics.FaultKind
	Write    bool
}

// SetFaultHook installs a callback invoked after every fault; nil
// disables tracing.
func (a *AddrSpace) SetFaultHook(h func(FaultEvent)) { a.faultHook = h }

// TimelineBucket aggregates fault kinds within one time window.
type TimelineBucket struct {
	Start  time.Duration
	Counts [metrics.NumFaultKinds]int
}

// Timeline buckets fault events into windows of the given width,
// shifting event times by -offset (for example the setup duration, so
// buckets align with the invocation phase). Empty leading/trailing
// buckets are trimmed; interior empty buckets are preserved.
func Timeline(events []FaultEvent, offset, width time.Duration) []TimelineBucket {
	if width <= 0 {
		panic("hostmm: timeline width must be positive")
	}
	if len(events) == 0 {
		return nil
	}
	var maxIdx int64
	counts := map[int64]*TimelineBucket{}
	for _, ev := range events {
		i := int64((ev.At - offset) / width)
		if i < 0 {
			i = 0
		}
		b := counts[i]
		if b == nil {
			b = &TimelineBucket{Start: time.Duration(i) * width}
			counts[i] = b
		}
		b.Counts[ev.Kind]++
		if i > maxIdx {
			maxIdx = i
		}
	}
	out := make([]TimelineBucket, 0, maxIdx+1)
	for i := int64(0); i <= maxIdx; i++ {
		if b := counts[i]; b != nil {
			out = append(out, *b)
		} else {
			out = append(out, TimelineBucket{Start: time.Duration(i) * width})
		}
	}
	return out
}

// New returns an empty address space of the given size in pages.
func New(env *sim.Env, cache *pagecache.Cache, costs CostModel, pages int64) *AddrSpace {
	return &AddrSpace{
		env:        env,
		cache:      cache,
		costs:      costs,
		pages:      pages,
		ptePresent: pagebits.New(pages),
		eptMapped:  pagebits.New(pages),
	}
}

// Stats returns the accumulated fault statistics.
func (a *AddrSpace) Stats() *metrics.FaultStats { return &a.stats }

// ResetStats clears fault statistics (e.g. between setup and invoke).
func (a *AddrSpace) ResetStats() { a.stats = metrics.FaultStats{} }

// MmapCalls returns the number of mmap syscalls issued so far.
func (a *AddrSpace) MmapCalls() int { return a.mmapCalls }

// RSS returns the resident-set size in pages, as the daemon reads from
// procfs during host page recording.
func (a *AddrSpace) RSS() int64 { return a.ptePresent.Count() }

func (a *AddrSpace) check(page int64) {
	if page < 0 || page >= a.pages {
		panic(fmt.Sprintf("hostmm: guest page %d outside address space of %d pages", page, a.pages))
	}
}

// Mmap maps guest pages [start, start+n) with MAP_FIXED semantics:
// the new mapping replaces whatever overlapped it, which is how the
// VMM layers loading-set and non-zero regions over the base anonymous
// mapping (§4.8). If p is non-nil the syscall cost is charged to it.
// PTEs under the remapped range are discarded, as mmap does. A call
// costs O(log VMAs + VMAs overlapped), so the few hundred calls of a
// per-region restore stay cheap, as they are on Linux's VMA tree.
func (a *AddrSpace) Mmap(p *sim.Proc, start, n int64, back Backing, file *pagecache.File, fileOff int64) {
	if n <= 0 {
		panic("hostmm: empty mmap")
	}
	a.check(start)
	a.check(start + n - 1)
	if back == BackFile && file == nil {
		panic("hostmm: file mapping without file")
	}
	end := start + n
	// a.vmas is sorted and non-overlapping, so the VMAs overlapping
	// [start, end) are one contiguous run [lo, hi); splice the new
	// mapping and the run's surviving fringes over it in place.
	lo := sort.Search(len(a.vmas), func(i int) bool { return a.vmas[i].End > start })
	hi := lo + sort.Search(len(a.vmas)-lo, func(i int) bool { return a.vmas[lo+i].Start >= end })
	var repl [3]VMA
	k := 0
	if lo < hi && a.vmas[lo].Start < start {
		left := a.vmas[lo]
		left.End = start
		repl[k] = left
		k++
	}
	repl[k] = VMA{Start: start, End: end, Back: back, File: file, FileOff: fileOff}
	k++
	if lo < hi && a.vmas[hi-1].End > end {
		right := a.vmas[hi-1]
		if right.Back == BackFile {
			right.FileOff = right.filePage(end)
		}
		right.Start = end
		repl[k] = right
		k++
	}
	a.vmas = slices.Replace(a.vmas, lo, hi, repl[:k]...)
	// Discard PTEs in the replaced range. The base mapping covers the
	// whole guest on every restore; a range clear skips empty leaves.
	a.ptePresent.RemoveRange(start, end)
	a.eptMapped.RemoveRange(start, end)
	a.mmapCalls++
	if p != nil {
		p.Sleep(a.costs.MmapCall)
	}
}

// Grow makes room for n more VMAs, so a run of Mmap calls whose count
// is known ahead (each adds at most two) grows the list once.
func (a *AddrSpace) Grow(n int) { a.vmas = slices.Grow(a.vmas, n) }

// VMAs returns a copy of the current mapping list.
func (a *AddrSpace) VMAs() []VMA { return append([]VMA(nil), a.vmas...) }

// Lookup returns the VMA covering page.
func (a *AddrSpace) Lookup(page int64) (VMA, bool) {
	a.check(page)
	i := sort.Search(len(a.vmas), func(i int) bool { return a.vmas[i].End > page })
	if i < len(a.vmas) && a.vmas[i].contains(page) {
		return a.vmas[i], true
	}
	return VMA{}, false
}

// RegisterUffd routes faults in [lo, hi) to handler, as REAP registers
// the guest memory region with userfaultfd.
func (a *AddrSpace) RegisterUffd(lo, hi int64, handler UffdHandler) {
	a.uffdLo, a.uffdHi = lo, hi
	a.uffdHandler = handler
}

// InstallPage installs a PTE for page without a fault, as UFFDIO_COPY
// does when REAP pre-populates the working set. The caller accounts
// for the copy cost itself (typically via CostModel.UffdCopy).
func (a *AddrSpace) InstallPage(page int64) {
	a.check(page)
	a.ptePresent.Add(page)
}

// Prewarm marks pages as fully mapped (PTE and EPT present) at no
// cost, modelling a warm VM whose previous invocation left them in
// physical memory.
func (a *AddrSpace) Prewarm(pages []int64) {
	for _, page := range pages {
		a.check(page)
		a.ptePresent.Add(page)
		a.eptMapped.Add(page)
	}
}

// Touch performs one guest read access to page. See TouchW.
func (a *AddrSpace) Touch(p *sim.Proc, page int64) (metrics.FaultKind, time.Duration) {
	return a.TouchW(p, page, false)
}

// TouchW performs one guest access to page and returns the fault kind
// taken and the time the vCPU was blocked. Accesses to already-mapped
// pages are free and report no fault (kind < 0). Writes to private
// file-backed mappings additionally pay the copy-on-write cost.
func (a *AddrSpace) TouchW(p *sim.Proc, page int64, write bool) (metrics.FaultKind, time.Duration) {
	a.check(page)
	if a.eptMapped.Has(page) {
		return -1, 0
	}
	start := a.env.Now()
	var kind metrics.FaultKind
	switch {
	case a.ptePresent.Has(page):
		// Host PTE exists (installed by uffd or touched by the VMM):
		// only the stage-2 mapping needs fixing.
		p.Sleep(a.costs.PTEFixup)
		kind = metrics.FaultPTEFix
	case a.uffdHandler != nil && page >= a.uffdLo && page < a.uffdHi:
		p.Sleep(a.costs.UffdWake)
		a.uffdHandler.HandleFault(p, page)
		p.Sleep(a.costs.UffdCopy)
		a.ptePresent.Add(page)
		kind = metrics.FaultUffd
	default:
		vma, ok := a.Lookup(page)
		if !ok {
			panic(fmt.Sprintf("hostmm: fault on unmapped guest page %d", page))
		}
		switch vma.Back {
		case BackAnon:
			p.Sleep(a.costs.AnonFault)
			kind = metrics.FaultAnon
		case BackFile:
			res := a.cache.FaultRead(p, vma.File, vma.filePage(page), blockdev.FaultRead)
			if res.Hit {
				p.Sleep(a.costs.MinorFault)
				kind = metrics.FaultMinor
			} else {
				p.Sleep(a.costs.MajorKernel)
				kind = metrics.FaultMajor
			}
			if write {
				p.Sleep(a.costs.CowCopy)
			}
		}
		a.ptePresent.Add(page)
	}
	a.eptMapped.Add(page)
	d := a.env.Now() - start
	a.stats.Record(kind, d)
	if a.faultHook != nil {
		a.faultHook(FaultEvent{At: start, Page: page, Kind: kind, Duration: d, Write: write})
	}
	// vCPU block beyond the fault handler: KVM waits for I/O
	// completion on majors, and userfaultfd round trips cost the guest
	// extra context switches before it can resume (§3.3: "the guest
	// cannot immediately resume after a page fault is handled").
	switch kind {
	case metrics.FaultMajor:
		if a.costs.MajorBlock > 0 {
			p.Sleep(a.costs.MajorBlock)
			a.stats.VCPUBloc += a.costs.MajorBlock
		}
	case metrics.FaultUffd:
		if a.costs.UffdResume > 0 {
			p.Sleep(a.costs.UffdResume)
			a.stats.VCPUBloc += a.costs.UffdResume
		}
	}
	return kind, a.env.Now() - start
}
