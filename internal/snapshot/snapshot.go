// Package snapshot models Firecracker snapshot artifacts: the VM state
// file (device and vCPU state) and the guest memory file, which is a
// page-granular copy of guest physical memory. The memory file tracks
// which pages are zero — the property FaaSnap's per-region memory
// mapping exploits to turn guest anonymous-page faults into host
// anonymous faults instead of disk reads (§4.5).
package snapshot

import (
	"fmt"

	"faasnap/internal/pagebits"
	"faasnap/internal/pagecache"
)

// PageSize re-exports the page size for convenience.
const PageSize = pagecache.PageSize

// MemoryFile is the page map of a snapshot's guest memory file.
type MemoryFile struct {
	Pages int64
	zero  *pagebits.Set // set = page is all zeroes
}

// NewMemoryFile returns a memory file of the given page count with
// every page zero (fresh guest memory).
func NewMemoryFile(pages int64) *MemoryFile {
	if pages <= 0 {
		panic("snapshot: memory file must have pages")
	}
	m := &MemoryFile{Pages: pages, zero: pagebits.New(pages)}
	m.zero.AddRange(0, pages)
	return m
}

func (m *MemoryFile) check(page int64) {
	if page < 0 || page >= m.Pages {
		panic(fmt.Sprintf("snapshot: page %d outside memory file of %d pages", page, m.Pages))
	}
}

// IsZero reports whether page is all zeroes.
func (m *MemoryFile) IsZero(page int64) bool {
	m.check(page)
	return m.zero.Has(page)
}

// SetZero marks page as zero or non-zero.
func (m *MemoryFile) SetZero(page int64, z bool) {
	m.check(page)
	if z {
		m.zero.Add(page)
	} else {
		m.zero.Remove(page)
	}
}

// NonZeroPages returns the number of non-zero pages.
func (m *MemoryFile) NonZeroPages() int64 { return m.Pages - m.zero.Count() }

// SparseBytes returns the on-disk size when stored as a sparse file
// (zero pages occupy no blocks), per the paper's §7.2 storage-cost
// discussion.
func (m *MemoryFile) SparseBytes() int64 { return m.NonZeroPages() * PageSize }

// Clone returns a copy of the page map (the guest memory an invocation
// starts from, or the new snapshot taken after the record-phase
// invocation). The copy shares the page map copy-on-write, so a write
// to either file never shows in the other. Cloning writes nothing to a
// file that is itself an unwritten clone, and nothing but atomic
// ownership bits to any other, so any number of goroutines may clone
// one shared snapshot's file at once.
func (m *MemoryFile) Clone() *MemoryFile {
	return &MemoryFile{Pages: m.Pages, zero: m.zero.Clone()}
}

// Region is a run of consecutive guest pages of one kind.
type Region struct {
	Start int64 // first page
	Len   int64 // page count
	Zero  bool  // all pages zero
	Group int   // working-set group (lowest group of any page), -1 if none
}

// End returns the first page after the region.
func (r Region) End() int64 { return r.Start + r.Len }

// ScanRegions walks the memory file and merges consecutive pages of
// the same zero/non-zero kind into regions, as the FaaSnap daemon does
// after the record phase ("FaaSnap scans the guest memory file, merging
// consecutive zero pages into zero regions and non-zero pages into
// non-zero regions", §4.5).
func (m *MemoryFile) ScanRegions() []Region {
	var out []Region
	// The zero map's runs are the zero regions and its gaps the
	// non-zero ones; a clear or full pagebits leaf is one step.
	next := int64(0)
	m.zero.Runs(func(start, end int64) {
		if start > next {
			out = append(out, Region{Start: next, Len: start - next, Group: -1})
		}
		out = append(out, Region{Start: start, Len: end - start, Zero: true, Group: -1})
		next = end
	})
	if next < m.Pages {
		out = append(out, Region{Start: next, Len: m.Pages - next, Group: -1})
	}
	return out
}

// NonZeroRegions returns only the non-zero regions of the file.
func (m *MemoryFile) NonZeroRegions() []Region {
	all := m.ScanRegions()
	out := all[:0]
	for _, r := range all {
		if !r.Zero {
			out = append(out, r)
		}
	}
	return out
}

// MergeRegions merges regions whose gaps are at most maxGap pages,
// extending coverage over the in-between pages. The paper uses a
// 32-page threshold to cut the number of loading-set mappings from
// >1000 to <100 for hello-world while adding ~5% extra data (§4.6).
// The input must be sorted by Start and non-overlapping. The merged
// region keeps the lowest (non-negative) group number of its parts.
func MergeRegions(regions []Region, maxGap int64) []Region {
	if len(regions) == 0 {
		return nil
	}
	out := make([]Region, 0, len(regions))
	cur := regions[0]
	for _, r := range regions[1:] {
		if r.Start < cur.End() {
			panic("snapshot: MergeRegions input overlaps or is unsorted")
		}
		if r.Start-cur.End() <= maxGap {
			cur.Len = r.End() - cur.Start
			cur.Group = minGroup(cur.Group, r.Group)
			continue
		}
		out = append(out, cur)
		cur = r
	}
	return append(out, cur)
}

func minGroup(a, b int) int {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}
