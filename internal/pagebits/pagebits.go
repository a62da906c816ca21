// Package pagebits is the one page bitmap behind a guest's page state:
// host PTE and EPT presence, page-cache residency, the memory file's
// zero map and the prefetch join's page sets. Like the kernel's page
// tables and page-cache tree, it is sized to the pages it holds, not
// to the guest: a directory of 4 096-page leaves, where a nil leaf is
// all clear and one shared, read-only leaf is all set, so a 2 GiB
// guest that touched a few thousand pages costs a 1 KiB directory and
// a few 512-byte leaves.
//
// Clone is copy-on-write per leaf: the first write to a shared leaf,
// on either side, copies it. Clone gives up the receiver's ownership
// of its leaves with atomic stores it skips once the receiver owns
// none, so a set nobody writes may be cloned from any number of
// goroutines at once. Otherwise a Set is not safe for concurrent use.
package pagebits

import (
	"math/bits"
	"sync/atomic"
)

const (
	leafShift = 12
	leafPages = 1 << leafShift
)

type leaf [leafPages / 64]uint64

// full is the all-set leaf every set shares; no set ever owns it.
var full = func() *leaf {
	l := new(leaf)
	for i := range l {
		l[i] = ^uint64(0)
	}
	return l
}()

// Set is a bitmap over the pages [0, n) it was made for. Callers check
// their own page bounds.
type Set struct {
	count  int64
	leaves []*leaf
	owned  []atomic.Bool // leaves[k] is this set's own, writable copy
}

// New returns an all-clear set over n pages.
func New(n int64) *Set {
	k := (n + leafPages - 1) / leafPages
	return &Set{leaves: make([]*leaf, k), owned: make([]atomic.Bool, k)}
}

// Count returns the number of set pages.
func (s *Set) Count() int64 { return s.count }

// Has reports whether page i is set.
func (s *Set) Has(i int64) bool {
	l := s.leaves[i>>leafShift]
	return l != nil && l[i>>6&63]&(1<<(i&63)) != 0
}

// Add sets page i and reports whether it was clear.
func (s *Set) Add(i int64) bool {
	k, w, bit := i>>leafShift, i>>6&63, uint64(1)<<(i&63)
	l := s.leaves[k]
	if l != nil && l[w]&bit != 0 {
		return false
	}
	s.own(k)[w] |= bit
	s.count++
	return true
}

// Remove clears page i and reports whether it was set.
func (s *Set) Remove(i int64) bool {
	k, w, bit := i>>leafShift, i>>6&63, uint64(1)<<(i&63)
	l := s.leaves[k]
	if l == nil || l[w]&bit == 0 {
		return false
	}
	s.own(k)[w] &^= bit
	s.count--
	return true
}

// AddRange sets pages [lo, hi) and returns how many were clear.
func (s *Set) AddRange(lo, hi int64) int64 { return s.rangeOp(lo, hi, true) }

// RemoveRange clears pages [lo, hi) and returns how many were set.
func (s *Set) RemoveRange(lo, hi int64) int64 { return s.rangeOp(lo, hi, false) }

// rangeOp sets or clears [lo, hi) a leaf at a time. A leaf the range
// covers becomes the full leaf or nil without a copy, and a clear leaf
// is never allocated to be cleared.
func (s *Set) rangeOp(lo, hi int64, set bool) int64 {
	var changed int64
	for lo < hi {
		k := lo >> leafShift
		base, end := k<<leafShift, min(hi, (k+1)<<leafShift)
		l := s.leaves[k]
		switch {
		case l == full && set, l == nil && !set:
		case lo == base && end-base == leafPages:
			s.owned[k].Store(false)
			s.leaves[k] = nil
			if set {
				s.leaves[k] = full
				changed += leafPages - popcount(l)
			} else {
				changed += popcount(l)
			}
		default:
			l = s.own(k)
			for w := (lo - base) >> 6; w <= (end-1-base)>>6; w++ {
				first := base + w<<6
				mask := ^uint64(0) << max(lo-first, 0) & (^uint64(0) >> max(first+64-end, 0))
				if set {
					changed += int64(bits.OnesCount64(mask &^ l[w]))
					l[w] |= mask
				} else {
					changed += int64(bits.OnesCount64(mask & l[w]))
					l[w] &^= mask
				}
			}
		}
		lo = end
	}
	if set {
		s.count += changed
	} else {
		s.count -= changed
	}
	return changed
}

// Clone returns a copy that shares every leaf with s until one side
// writes it.
func (s *Set) Clone() *Set {
	for k := range s.owned {
		if s.owned[k].Load() {
			s.owned[k].Store(false)
		}
	}
	return &Set{count: s.count, leaves: append([]*leaf(nil), s.leaves...), owned: make([]atomic.Bool, len(s.owned))}
}

// Runs calls fn with each maximal run [start, end) of set pages, in
// ascending order. A clear or full leaf is one step.
func (s *Set) Runs(fn func(start, end int64)) {
	start, end := int64(-1), int64(-1)
	emit := func(lo, hi int64) {
		if lo != end {
			if start >= 0 {
				fn(start, end)
			}
			start = lo
		}
		end = hi
	}
	for k, l := range s.leaves {
		base := int64(k) << leafShift
		if l == full {
			emit(base, base+leafPages)
			continue
		}
		for w := 0; l != nil && w < len(l); w++ {
			first := base + int64(w)<<6
			for word, off := l[w], 0; word != 0; {
				lo := bits.TrailingZeros64(word)
				n := bits.TrailingZeros64(^(word >> lo))
				emit(first+int64(off+lo), first+int64(off+lo+n))
				word >>= lo + n // a shift by 64 clears the word
				off += lo + n
			}
		}
	}
	if start >= 0 {
		fn(start, end)
	}
}

// own returns leaf k as this set's writable copy, copying it first if
// it is shared or allocating it if it is clear.
func (s *Set) own(k int64) *leaf {
	if s.owned[k].Load() {
		return s.leaves[k]
	}
	l := new(leaf)
	if old := s.leaves[k]; old != nil {
		*l = *old
	}
	s.leaves[k] = l
	s.owned[k].Store(true)
	return l
}

func popcount(l *leaf) int64 {
	var n int
	for w := 0; l != nil && w < len(l); w++ {
		n += bits.OnesCount64(l[w])
	}
	return int64(n)
}
