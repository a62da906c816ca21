package snapshot

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// totalPages sums the page counts of regions.
func totalPages(regions []Region) int64 {
	var n int64
	for _, r := range regions {
		n += r.Len
	}
	return n
}

func TestNewMemoryFileAllZero(t *testing.T) {
	m := NewMemoryFile(1000)
	if m.NonZeroPages() != 0 {
		t.Fatalf("nonzero=%d", m.NonZeroPages())
	}
	if m.SparseBytes() != 0 {
		t.Fatalf("SparseBytes = %d, want 0", m.SparseBytes())
	}
}

func TestSetZeroAccounting(t *testing.T) {
	m := NewMemoryFile(100)
	m.SetZero(10, false)
	m.SetZero(11, false)
	m.SetZero(10, false) // idempotent
	if m.NonZeroPages() != 2 {
		t.Fatalf("nonzero = %d, want 2", m.NonZeroPages())
	}
	m.SetZero(10, true)
	if m.NonZeroPages() != 1 || m.IsZero(11) {
		t.Fatalf("nonzero = %d, IsZero(11)=%v", m.NonZeroPages(), m.IsZero(11))
	}
	if m.SparseBytes() != PageSize {
		t.Fatalf("SparseBytes = %d", m.SparseBytes())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := NewMemoryFile(64)
	m.SetZero(5, false)
	c := m.Clone()
	c.SetZero(6, false)
	if m.NonZeroPages() != 1 || c.NonZeroPages() != 2 {
		t.Fatalf("m=%d c=%d", m.NonZeroPages(), c.NonZeroPages())
	}
}

func TestScanRegions(t *testing.T) {
	m := NewMemoryFile(16)
	for _, p := range []int64{3, 4, 5, 9} {
		m.SetZero(p, false)
	}
	rs := m.ScanRegions()
	want := []Region{
		{Start: 0, Len: 3, Zero: true, Group: -1},
		{Start: 3, Len: 3, Zero: false, Group: -1},
		{Start: 6, Len: 3, Zero: true, Group: -1},
		{Start: 9, Len: 1, Zero: false, Group: -1},
		{Start: 10, Len: 6, Zero: true, Group: -1},
	}
	if len(rs) != len(want) {
		t.Fatalf("regions = %+v, want %+v", rs, want)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("region %d = %+v, want %+v", i, rs[i], want[i])
		}
	}
}

func TestNonZeroRegions(t *testing.T) {
	m := NewMemoryFile(16)
	m.SetZero(0, false)
	m.SetZero(15, false)
	rs := m.NonZeroRegions()
	if len(rs) != 2 || rs[0].Start != 0 || rs[1].Start != 15 {
		t.Fatalf("regions = %+v", rs)
	}
}

func TestScanRegionsCoversWholeFile(t *testing.T) {
	m := NewMemoryFile(4096)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		m.SetZero(int64(rng.Intn(4096)), false)
	}
	rs := m.ScanRegions()
	if totalPages(rs) != 4096 {
		t.Fatalf("regions cover %d pages, want 4096", totalPages(rs))
	}
	// Regions must alternate and be contiguous.
	for i := 1; i < len(rs); i++ {
		if rs[i].Start != rs[i-1].End() {
			t.Fatalf("gap between regions %d and %d", i-1, i)
		}
		if rs[i].Zero == rs[i-1].Zero {
			t.Fatalf("adjacent regions %d and %d have same kind", i-1, i)
		}
	}
}

func TestMergeRegionsGap(t *testing.T) {
	in := []Region{
		{Start: 0, Len: 10, Group: 2},
		{Start: 20, Len: 5, Group: 1},  // gap 10 <= 32: merge
		{Start: 100, Len: 5, Group: 3}, // gap 75 > 32: separate
	}
	out := MergeRegions(in, 32)
	if len(out) != 2 {
		t.Fatalf("merged = %+v", out)
	}
	if out[0].Start != 0 || out[0].Len != 25 || out[0].Group != 1 {
		t.Fatalf("first merged region = %+v", out[0])
	}
	if out[1].Start != 100 || out[1].Len != 5 || out[1].Group != 3 {
		t.Fatalf("second region = %+v", out[1])
	}
}

func TestMergeRegionsGroupPropagation(t *testing.T) {
	in := []Region{
		{Start: 0, Len: 1, Group: -1},
		{Start: 2, Len: 1, Group: 4},
	}
	out := MergeRegions(in, 32)
	if len(out) != 1 || out[0].Group != 4 {
		t.Fatalf("merged = %+v, want single region with group 4", out)
	}
}

func TestMergeRegionsEmpty(t *testing.T) {
	if MergeRegions(nil, 32) != nil {
		t.Fatal("merge of nil not nil")
	}
}

func TestMergeRegionsReducesCountProperty(t *testing.T) {
	// Property: merging never increases region count, never loses
	// coverage of input pages, and output is sorted/non-overlapping.
	f := func(seed int64, gapSmall bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var in []Region
		pos := int64(0)
		for i := 0; i < 50; i++ {
			pos += int64(rng.Intn(64)) + 1 // gap >= 1
			l := int64(rng.Intn(16)) + 1
			in = append(in, Region{Start: pos, Len: l, Group: rng.Intn(8)})
			pos += l
		}
		maxGap := int64(4)
		if gapSmall {
			maxGap = 32
		}
		out := MergeRegions(in, maxGap)
		if len(out) > len(in) {
			return false
		}
		if totalPages(out) < totalPages(in) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].Start < out[i-1].End() {
				return false
			}
			if out[i].Start-out[i-1].End() <= maxGap {
				return false // should have been merged
			}
		}
		// Every input page must be covered by some output region.
		for _, r := range in {
			covered := false
			for _, o := range out {
				if r.Start >= o.Start && r.End() <= o.End() {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRegionsPanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MergeRegions([]Region{{Start: 0, Len: 10}, {Start: 5, Len: 10}}, 0)
}

func TestZeroScanProperty(t *testing.T) {
	// Property: for any set of non-zero pages, ScanRegions classifies
	// every page correctly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemoryFile(512)
		want := make(map[int64]bool)
		for i := 0; i < 100; i++ {
			p := int64(rng.Intn(512))
			m.SetZero(p, false)
			want[p] = true
		}
		for _, r := range m.ScanRegions() {
			for p := r.Start; p < r.End(); p++ {
				if want[p] == r.Zero {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// scanRegionsPerBit is the page-at-a-time scan ScanRegions used before
// it walked the bitmap by words, kept as the oracle.
func scanRegionsPerBit(m *MemoryFile) []Region {
	var out []Region
	var cur Region
	cur.Group = -1
	for p := int64(0); p < m.Pages; p++ {
		z := m.IsZero(p)
		if cur.Len > 0 && cur.Zero == z {
			cur.Len++
			continue
		}
		if cur.Len > 0 {
			out = append(out, cur)
		}
		cur = Region{Start: p, Len: 1, Zero: z, Group: -1}
	}
	if cur.Len > 0 {
		out = append(out, cur)
	}
	return out
}

// TestScanRegionsMatchesPerBit compares the word-wise scan with the
// per-bit reference on the shapes a word walk can get wrong: page
// counts off a word boundary, uniform files, whole words alternating,
// runs crossing word boundaries, and seeded random bitmaps of several
// densities.
func TestScanRegionsMatchesPerBit(t *testing.T) {
	check := func(name string, m *MemoryFile) {
		t.Helper()
		if got, want := m.ScanRegions(), scanRegionsPerBit(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d pages: got %v, want %v", name, m.Pages, got, want)
		}
	}
	for _, pages := range []int64{1, 63, 64, 65, 127, 128, 1000, 4096} {
		m := NewMemoryFile(pages)
		check("all-zero", m)
		for p := int64(0); p < pages; p++ {
			m.SetZero(p, false)
		}
		check("all-non-zero", m)
		for p := int64(0); p < pages; p++ {
			m.SetZero(p, p/64%2 == 0)
		}
		check("alternating words", m)
		for p := int64(0); p < pages; p++ {
			m.SetZero(p, (p+32)/64%2 == 0)
		}
		check("runs straddling words", m)
		m.SetZero(pages-1, !m.IsZero(pages-1))
		check("last page flipped", m)
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			flip := 1 + rng.Intn(8) // mean run length
			z := true
			for p := int64(0); p < pages; p++ {
				if rng.Intn(flip) == 0 {
					z = !z
				}
				m.SetZero(p, z)
			}
			check("random", m)
		}
	}
}
