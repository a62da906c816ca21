package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// TestConcurrentClonesAreIsolated clones one memory file from many
// goroutines, as concurrent invocations of one snapshot do, and writes
// every clone. Under -race it shows the clones share nothing writable;
// the source and every clone must end as if they had been deep copies.
func TestConcurrentClonesAreIsolated(t *testing.T) {
	const pages = 3*4096 + 100
	src := NewMemoryFile(pages)
	for p := int64(4000); p < 4200; p++ {
		src.SetZero(p, false)
	}
	want := src.ScanRegions()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := src.Clone()
				p := int64(g*1500 + i) // never in [4000, 4200)
				c.SetZero(p, false)
				c.SetZero(4100, true)
				if c.NonZeroPages() != 200 {
					t.Errorf("clone %d/%d: %d non-zero pages", g, i, c.NonZeroPages())
				}
				if c.IsZero(p) || !c.IsZero(4100) {
					t.Errorf("clone %d/%d lost its own writes", g, i)
				}
			}
		}()
	}
	wg.Wait()
	if got := src.ScanRegions(); !slices.Equal(got, want) {
		t.Fatalf("source regions changed under its clones: %v, want %v", got, want)
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

// scanRegionsDigest is the SHA-256 of TestScanRegionsDigest's regions,
// computed with the word-at-a-time scan that ScanRegions was before
// the zero map moved onto pagebits leaves (and which was itself
// checked against a page-at-a-time scan on the same shapes).
const scanRegionsDigest = "15e88bbc9d164b0af22e76395d94d4eb2579adce801098bec7f14162e6181747"

// TestScanRegionsDigest pins ScanRegions on the shapes a word or leaf
// walk can get wrong: page counts off a word or leaf boundary, uniform
// files, whole words and whole leaves alternating, runs crossing word
// and leaf boundaries, and seeded random bitmaps of several densities.
// Each shape is scanned again after a clone and a write to the clone,
// then to the source, so the digest also covers copy-on-write.
func TestScanRegionsDigest(t *testing.T) {
	h := sha256.New()
	scan := func(m *MemoryFile) {
		for _, r := range m.ScanRegions() {
			fmt.Fprintf(h, "%d+%d/%v ", r.Start, r.Len, r.Zero)
		}
		fmt.Fprintf(h, "| %d %d\n", m.Pages, m.NonZeroPages())
	}
	flip := func(m *MemoryFile, p int64) { m.SetZero(p, !m.IsZero(p)) }
	check := func(m *MemoryFile) {
		scan(m)
		c := m.Clone()
		p, q := m.Pages*3/7, m.Pages-1-m.Pages/5
		flip(c, p)
		scan(c)
		scan(m)
		flip(m, q)
		scan(c)
		scan(m)
		flip(m, q)
	}
	for _, pages := range []int64{1, 63, 64, 65, 127, 128, 1000, 4095, 4096, 4097, 9000, 12288} {
		m := NewMemoryFile(pages)
		check(m)
		for p := int64(0); p < pages; p++ {
			m.SetZero(p, false)
		}
		check(m)
		for p := int64(0); p < pages; p++ {
			m.SetZero(p, p/64%2 == 0)
		}
		check(m)
		for p := int64(0); p < pages; p++ {
			m.SetZero(p, (p+32)/64%2 == 0)
		}
		check(m)
		for p := int64(0); p < pages; p++ {
			m.SetZero(p, p/4096%2 == 0)
		}
		check(m)
		for p := int64(0); p < pages; p++ {
			m.SetZero(p, (p+2048)/4096%2 == 0)
		}
		check(m)
		flip(m, pages-1)
		check(m)
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			mean := 1 + rng.Intn(8) // mean run length
			z := true
			for p := int64(0); p < pages; p++ {
				if rng.Intn(mean) == 0 {
					z = !z
				}
				m.SetZero(p, z)
			}
			check(m)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scanRegionsDigest {
		t.Fatalf("ScanRegions digest = %s, want %s", got, scanRegionsDigest)
	}
}
