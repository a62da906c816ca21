package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"faasnap/internal/guest"
)

func TestCatalogHasTwelveFunctions(t *testing.T) {
	specs := Catalog()
	if len(specs) != 12 {
		t.Fatalf("catalog has %d functions, want 12", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate function %s", s.Name)
		}
		names[s.Name] = true
		if s.StablePages <= 0 || s.BootPages <= 0 {
			t.Errorf("%s: missing layout params", s.Name)
		}
		if s.A.Name == "" || s.B.Name == "" {
			t.Errorf("%s: missing inputs", s.Name)
		}
	}
	for _, want := range []string{"hello-world", "read-list", "mmap", "image", "json", "pyaes", "chameleon", "matmul", "ffmpeg", "compression", "recognition", "pagerank"} {
		if !names[want] {
			t.Errorf("missing function %s", want)
		}
	}
}

func TestSyntheticAndBenchmarkSplits(t *testing.T) {
	if got := len(Synthetic()); got != 3 {
		t.Fatalf("synthetic = %d, want 3", got)
	}
	if got := len(Benchmarks()); got != 9 {
		t.Fatalf("benchmarks = %d, want 9", got)
	}
	for _, s := range Synthetic() {
		if s.VariableInput() {
			t.Errorf("%s: synthetic function must have identical inputs", s.Name)
		}
	}
	for _, s := range Benchmarks() {
		if !s.VariableInput() {
			t.Errorf("%s: benchmark function must have different inputs", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("image")
	if err != nil || s.Name != "image" {
		t.Fatalf("ByName(image) = %v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) did not error")
	}
	if len(Names()) != 12 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestStableRunsDeterministicAndSized(t *testing.T) {
	s, _ := ByName("image")
	r1 := s.stableRuns()
	r2 := s.stableRuns()
	if got := s.layout().runs; !reflect.DeepEqual(got, r1) {
		t.Fatal("memoised layout differs from a fresh one")
	}
	if len(r1) != len(r2) {
		t.Fatal("stable runs not deterministic")
	}
	var total int64
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("stable runs not deterministic")
		}
		total += r1[i].length
	}
	if total != s.StablePages {
		t.Fatalf("stable pages = %d, want %d", total, s.StablePages)
	}
	// Runs must live between the boot image and the heap.
	for _, r := range r1 {
		if r.start < s.BootPages || r.start+r.length > GuestPages/2 {
			t.Fatalf("run %+v outside stable region", r)
		}
	}
}

func TestCleanMemoryLayout(t *testing.T) {
	s, _ := ByName("json")
	m := s.CleanMemory()
	if m.Pages != GuestPages {
		t.Fatalf("pages = %d", m.Pages)
	}
	if m.IsZero(0) || m.IsZero(s.BootPages-1) {
		t.Fatal("boot image pages are zero")
	}
	// Heap pages must be zero.
	if !m.IsZero(GuestPages/2) || !m.IsZero(GuestPages-1) {
		t.Fatal("heap pages non-zero in clean snapshot")
	}
	// Total non-zero ≈ boot + stable.
	want := s.BootPages + s.StablePages
	if got := m.NonZeroPages(); got != want {
		t.Fatalf("non-zero pages = %d, want %d", got, want)
	}
}

func TestProgramDeterministicPerInput(t *testing.T) {
	s, _ := ByName("image")
	fresh, _ := ByName("image") // its own memo, so p2 is a second build
	p1 := s.Program(s.A)
	p2 := fresh.Program(fresh.A)
	if len(p1.Ops) != len(p2.Ops) {
		t.Fatal("program not deterministic")
	}
	if p1.TouchedPages() != p2.TouchedPages() {
		t.Fatal("program not deterministic in page count")
	}
}

func TestProgramDiffersAcrossInputs(t *testing.T) {
	s, _ := ByName("image")
	pa := s.Program(s.A)
	pb := s.Program(s.B)
	if pa.TouchedPages() == pb.TouchedPages() {
		t.Fatalf("A and B touch the same page count (%d); inputs should differ", pa.TouchedPages())
	}
}

func TestProgramSameForIdenticalSeeds(t *testing.T) {
	s, _ := ByName("hello-world")
	if s.Program(s.A).TouchedPages() != s.Program(s.B).TouchedPages() {
		t.Fatal("identical inputs produced different programs")
	}
}

func TestProgramAllocatesDataPages(t *testing.T) {
	s, _ := ByName("json")
	var allocated int64
	var freeFrac float64
	for _, op := range s.Program(s.A).Ops {
		switch op.Kind {
		case guest.OpAllocWrite:
			allocated += op.Count
			if !op.NonZero {
				t.Error("input data written as zero")
			}
		case guest.OpFree:
			freeFrac = op.Frac
		}
	}
	if allocated != s.A.DataPages {
		t.Fatalf("allocated %d pages, want %d", allocated, s.A.DataPages)
	}
	if freeFrac != 1-s.RetainFrac {
		t.Fatalf("free frac = %v, want %v", freeFrac, 1-s.RetainFrac)
	}
}

func TestProgramTouchesWithinStableRegionAndOrderVaries(t *testing.T) {
	s, _ := ByName("pyaes")
	prog := s.Program(s.A)
	runs := s.stableRuns()
	inRuns := func(p int64) bool {
		for _, r := range runs {
			if p >= r.start && p < r.start+r.length {
				return true
			}
		}
		return false
	}
	var touchOps int
	for _, op := range prog.Ops {
		if op.Kind != guest.OpTouch {
			continue
		}
		touchOps++
		for _, p := range op.Pages {
			if !inRuns(p) {
				t.Fatalf("touched page %d outside stable runs", p)
			}
		}
	}
	if touchOps < 10 {
		t.Fatalf("touch ops = %d, want many chunks", touchOps)
	}
}

func TestSeqStableIsAddressOrdered(t *testing.T) {
	s, _ := ByName("read-list")
	prog := s.Program(s.A)
	last := int64(-1)
	for _, op := range prog.Ops {
		if op.Kind != guest.OpTouch {
			continue
		}
		for _, p := range op.Pages {
			if p < last {
				t.Fatalf("read-list access went backwards: %d after %d", p, last)
			}
			last = p
		}
	}
}

// TestResolveInput pins the one input-name rule: what the parent's four
// resolvers all accepted resolves to the same Input as before, and
// everything any one of them let through by accident is an error.
func TestResolveInput(t *testing.T) {
	for _, s := range Benchmarks() {
		for name, want := range map[string]Input{"": s.A, "A": s.A, "B": s.B} {
			if got, err := s.ResolveInput(name); err != nil || got != want {
				t.Errorf("%s %q = %+v, %v; want %+v", s.Name, name, got, err, want)
			}
		}
		// Figure 8's and configs/test-6inputs.json's ratios.
		for _, ratio := range []float64{0.25, 0.5, 1, 2, 4} {
			name := fmt.Sprintf("ratio:%g", ratio)
			if got, err := s.ResolveInput(name); err != nil || got != s.InputForRatio(ratio) {
				t.Errorf("%s %q = %+v, %v; want %+v", s.Name, name, got, err, s.InputForRatio(ratio))
			}
		}
	}
	image, _ := ByName("image")
	want := Input{Name: "r4.00", Bytes: 4 * 101 << 10, Seed: hashSeed("image", "ratio", "4.0000"), DataPages: 9600}
	if got, err := image.ResolveInput("ratio:4"); err != nil || got != want {
		t.Fatalf("image ratio:4 = %+v, %v; want %+v", got, err, want)
	}
	hello, _ := ByName("hello-world")
	for _, name := range []string{
		"ratio:NaN", "ratio:Inf", "ratio:+Inf", "ratio:-Inf", "ratio:-1", "ratio:0", "ratio:1e-400",
		"ratio:2abc", "ratio:", "ratio: 2", "ratio:1e4", "ratio:1e300", "C", "a", "ratio", "Ratio:2",
	} {
		if got, err := hello.ResolveInput(name); err == nil {
			t.Errorf("hello-world %q resolved to %+v", name, got)
		}
	}
}

// TestCheckInputBoundsThePair checks the reason for CheckInput's
// retained-pages term: the largest input it admits still fits the heap
// beside what a recording of that same input keeps live, and one page
// more is refused.
func TestCheckInputBoundsThePair(t *testing.T) {
	const heap = GuestPages - GuestPages/2
	for _, s := range Catalog() {
		lo, hi := int64(0), int64(heap)+1 // admitted, refused
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; s.CheckInput(Input{DataPages: mid}) == nil {
				lo = mid
			} else {
				hi = mid
			}
		}
		retained := lo - int64(float64(lo)*(1-s.RetainFrac))
		if lo+retained > heap || lo < heap/2 {
			t.Errorf("%s: admits %d pages (+%d retained) in a %d-page heap", s.Name, lo, retained, int64(heap))
		}
	}
	s, _ := ByName("json")
	for _, in := range []Input{{DataPages: -1}, {Bytes: -1}, {DataPages: 1_000_000_000}, {DataPages: math.MaxInt64}, {Bytes: 1 << 40}} {
		if s.CheckInput(in) == nil {
			t.Errorf("json: %+v admitted", in)
		}
	}
}

func TestInputForRatioScales(t *testing.T) {
	s, _ := ByName("image")
	quarter := s.InputForRatio(0.25)
	four := s.InputForRatio(4)
	if quarter.DataPages != s.A.DataPages/4 {
		t.Fatalf("quarter pages = %d", quarter.DataPages)
	}
	if four.DataPages != s.A.DataPages*4 {
		t.Fatalf("4x pages = %d", four.DataPages)
	}
	if quarter.Seed == four.Seed {
		t.Fatal("ratio inputs share a seed")
	}
	if four.Bytes != s.A.Bytes*4 {
		t.Fatalf("4x bytes = %d", four.Bytes)
	}
}

func TestDifferentSeedsTouchDifferentStableSubsets(t *testing.T) {
	// The host-page-recording story: input B touches stable pages that
	// input A did not (run prefixes differ), but both stay within the
	// same runs, which readahead covers.
	s, _ := ByName("image")
	collect := func(in Input) map[int64]bool {
		set := map[int64]bool{}
		for _, op := range s.Program(in).Ops {
			if op.Kind == guest.OpTouch {
				for _, p := range op.Pages {
					set[p] = true
				}
			}
		}
		return set
	}
	a := collect(s.A)
	b := collect(s.B)
	extra := 0
	for p := range b {
		if !a[p] {
			extra++
		}
	}
	if extra == 0 {
		t.Fatal("input B touched no stable pages beyond input A")
	}
	if extra > len(a)/2 {
		t.Fatalf("input B touched %d extra pages of %d: too much divergence", extra, len(a))
	}
}

func TestWorkingSetSizesApproximateTable2(t *testing.T) {
	// stable + data should approximate the paper's reported working
	// sets (within 40%, since the paper's sets also include readahead
	// and kernel pages).
	for _, s := range Catalog() {
		wsA := float64(s.StablePages+s.A.DataPages) / PagesPerMB
		if wsA < s.WSA*0.6 || wsA > s.WSA*1.4 {
			t.Errorf("%s: model WS A = %.1f MB, paper %.1f MB", s.Name, wsA, s.WSA)
		}
		wsB := float64(s.StablePages+s.B.DataPages) / PagesPerMB
		if wsB < s.WSB*0.6 || wsB > s.WSB*1.4 {
			t.Errorf("%s: model WS B = %.1f MB, paper %.1f MB", s.Name, wsB, s.WSB)
		}
	}
}

func TestWarmEstimateOrdersOfMagnitude(t *testing.T) {
	hello, _ := ByName("hello-world")
	if est := hello.WarmEstimate(hello.A, 2500*time.Nanosecond); est > 10*time.Millisecond {
		t.Fatalf("hello-world warm estimate %v, want a few ms", est)
	}
	pr, _ := ByName("pagerank")
	if est := pr.WarmEstimate(pr.A, 2500*time.Nanosecond); est < 500*time.Millisecond {
		t.Fatalf("pagerank warm estimate %v, want >= 0.5s", est)
	}
}

func TestGuestConfig(t *testing.T) {
	s, _ := ByName("mmap")
	cfg := s.GuestConfig()
	if cfg.Pages != GuestPages || cfg.HeapStart != GuestPages/2 {
		t.Fatalf("config = %+v", cfg)
	}
	// mmap's 512 MB allocation must fit the heap.
	if cfg.HeapEnd-cfg.HeapStart < s.A.DataPages {
		t.Fatal("heap too small for mmap workload")
	}
}

func TestCleanSnapshotSparseSizeReasonable(t *testing.T) {
	// Clean snapshots should be a few hundred MB non-zero, not 2 GB.
	for _, s := range Catalog() {
		m := s.CleanMemory()
		nonZeroMB := float64(m.NonZeroPages()) / PagesPerMB
		if nonZeroMB < 50 || nonZeroMB > 1024 {
			t.Errorf("%s: clean snapshot %f MB non-zero", s.Name, nonZeroMB)
		}
	}
}
