// Package workload models the twelve evaluation functions of the
// paper's Table 2 as parameterised page-access programs: a guest-memory
// layout (boot image, scattered runtime/stable region, heap), a
// per-invocation access program (stable-page touches interleaved with
// input-buffer allocation and compute), and input definitions for the
// record/test inputs A and B plus arbitrary size ratios (Figure 8).
//
// The model's degrees of freedom are exactly the properties the
// paper's results hinge on:
//
//   - StablePages vs DataPages splits each function's working set into
//     pages reused across invocations and input-derived allocations.
//   - Input-dependent run prefixes make different inputs touch slightly
//     different subsets of the stable region, which host page recording
//     tolerates (readahead captured whole runs) and userfaultfd-based
//     recording does not.
//   - RetainFrac controls how many input pages stay live into the
//     snapshot; the rest are freed and — with guest sanitizing — become
//     zero pages that FaaSnap maps anonymously.
//   - ChunkMean sets access locality, which determines readahead
//     effectiveness and loading-set fragmentation.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"faasnap/internal/guest"
	"faasnap/internal/snapshot"
)

// PagesPerMB converts MiB to 4 KiB pages.
const PagesPerMB = 1 << 20 / snapshot.PageSize

// GuestPages is the evaluation guest size: 2 GB.
const GuestPages = 2 << 30 / snapshot.PageSize

// Input identifies one invocation input.
type Input struct {
	Name      string
	Bytes     int64 // nominal input size
	Seed      int64 // content identity; equal seeds mean identical input
	DataPages int64 // input-derived buffer pages the function allocates
}

// Spec is a function model.
type Spec struct {
	Name        string
	Description string

	BootPages   int64 // contiguous non-zero boot+runtime image (mostly cold set)
	StablePages int64 // scattered runtime pages in the stable region
	ChunkMean   int   // mean contiguous run length in the stable region
	SeqStable   bool  // stable region accessed in address order (read-list)
	RetainFrac  float64

	// Compute model: Base is input-independent compute; ComputePerKB
	// scales with input bytes; PerPage is per data page processed.
	Base         time.Duration
	ComputePerKB time.Duration
	PerPage      time.Duration

	// InitCompute is the runtime-initialization compute of a cold
	// start (importing the language runtime and libraries), the
	// dominant cold-start cost per Du et al. [9]. Zero means a small
	// default.
	InitCompute time.Duration

	// Origin is the user configuration this spec was built from, nil
	// for catalog functions. It is what gets persisted so custom
	// functions survive daemon restarts.
	Origin *SpecConfig

	// A and B are the record/test inputs from Table 2.
	A, B Input

	// WSA/WSB are the paper-reported working-set sizes in MB, kept for
	// the Table 2 report.
	WSA, WSB float64

	// What the fields above determine, derived once per spec instead of
	// once per invocation: the input-independent layout, and the whole
	// access program for the spec's own A and B inputs. A Spec must not
	// change after its first use and must not be copied.
	layoutOnce sync.Once
	lay        layout
	progMu     sync.Mutex
	progs      [2]*guest.Program // for A, B
}

// layout is the input-independent part of a function's access
// programs: the stable region's runs and the order they are visited in.
type layout struct {
	runs  []run
	order []int // indexes into runs
}

// String implements fmt.Stringer.
func (s *Spec) String() string { return s.Name }

func hashSeed(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// GuestConfig returns the guest layout for this function.
func (s *Spec) GuestConfig() guest.Config {
	cfg := guest.DefaultConfig()
	cfg.Pages = GuestPages
	cfg.HeapStart = GuestPages / 2
	cfg.HeapEnd = GuestPages
	return cfg
}

// run is one contiguous piece of the stable region.
type run struct {
	start, length int64
}

// stableRuns deterministically lays out the stable region: runs of
// mean length ChunkMean in tight clusters (1–3 page gaps inside a
// cluster, hundreds of pages between clusters), starting after the
// boot image and totalling StablePages. The clustered structure
// mirrors real runtime heaps — it is what makes FaaSnap's ≤32-page
// region merging collapse >1000 fragments into few regions while
// adding only a few percent of extra data (§4.6).
func (s *Spec) stableRuns() []run {
	rng := rand.New(rand.NewSource(hashSeed(s.Name, "layout")))
	var runs []run
	pos := s.BootPages
	var total int64
	mean := int64(s.ChunkMean)
	if mean < 1 {
		mean = 1
	}
	clusterLeft := 16 + rng.Intn(32)
	for total < s.StablePages {
		l := 1 + int64(rng.Intn(int(2*mean)))
		if total+l > s.StablePages {
			l = s.StablePages - total
		}
		var gap int64
		if !s.SeqStable {
			clusterLeft--
			if clusterLeft <= 0 {
				gap = 128 + int64(rng.Intn(512))
				clusterLeft = 16 + rng.Intn(32)
			} else {
				gap = int64(rng.Intn(2))
			}
		}
		runs = append(runs, run{start: pos, length: l})
		pos += l + gap
		total += l
		if pos >= GuestPages/2-64 {
			panic(fmt.Sprintf("workload %s: stable region overflows into heap", s.Name))
		}
	}
	return runs
}

// layout returns the spec's stable-region layout, building it on first
// use.
func (s *Spec) layout() *layout {
	s.layoutOnce.Do(func() {
		runs := s.stableRuns()
		order := make([]int, len(runs))
		for i := range order {
			order[i] = i
		}
		if !s.SeqStable {
			rng := rand.New(rand.NewSource(hashSeed(s.Name, "order")))
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		s.lay = layout{runs: runs, order: order}
	})
	return &s.lay
}

// CleanMemory returns the memory file of the "clean" snapshot taken
// after boot and runtime initialization: the boot image and the whole
// stable region are non-zero; everything else is zero.
func (s *Spec) CleanMemory() *snapshot.MemoryFile {
	m := snapshot.NewMemoryFile(GuestPages)
	for p := int64(0); p < s.BootPages; p++ {
		m.SetZero(p, false)
	}
	for _, r := range s.layout().runs {
		for p := r.start; p < r.start+r.length; p++ {
			m.SetZero(p, false)
		}
	}
	return m
}

// touchedPrefix returns how many pages of a run an invocation with the
// given seed touches: between 80% and 100%, varying per (run, seed).
// Identical seeds touch identical prefixes: the slack is the first
// Int63n draw of a math/rand source freshly seeded for the run.
func touchedPrefix(r run, seed int64, idx int) int64 {
	if r.length <= 2 {
		return r.length
	}
	seed ^= int64(idx) * 0x4f1bbcdcbfa53e0b
	slack := r.length / 5
	d, ok := firstInt63n(seed, slack+1)
	if !ok {
		d = rand.New(rand.NewSource(seed)).Int63n(slack + 1)
	}
	return r.length - d
}

// math/rand's source is an additive lagged Fibonacci generator over
// 607 words. Seeding fills word i from steps 21+3i, 22+3i and 23+3i of a
// Lehmer chain (x → 48271·x mod 2³¹−1) started at the seed, XORed with
// a fixed table entry, and the first draw is word 333 plus word 606.
// firstInt63n jumps the chain to those six steps instead of filling
// all 607 words.
const (
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// math/rand's rngCooked[333] and rngCooked[606].
	cooked333 int64 = -4633371852008891965
	cooked606 int64 = 4152330101494654406
)

var jump333, jump606 = lehmerPow(21 + 3*333), lehmerPow(21 + 3*606)

func lehmerPow(k int) uint64 {
	x := uint64(1)
	for i := 0; i < k; i++ {
		x = x * lehmerA % lehmerM
	}
	return x
}

// seededWord returns the source word whose first Lehmer step is
// x0·jump, as Seed computes it.
func seededWord(x0, jump uint64, cooked int64) int64 {
	x1 := x0 * jump % lehmerM
	x2 := x1 * lehmerA % lehmerM
	x3 := x2 * lehmerA % lehmerM
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ cooked
}

// firstInt63n returns rand.New(rand.NewSource(seed)).Int63n(n). It
// reports false when that first draw is one Int63n rejects and draws
// again (probability below n/2⁶³); the caller then seeds a real source.
func firstInt63n(seed, n int64) (int64, bool) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311 // math/rand's substitute for a zero seed
	}
	x0 := uint64(seed)
	v := (seededWord(x0, jump333, cooked333) + seededWord(x0, jump606, cooked606)) & (1<<63 - 1)
	if n&(n-1) == 0 {
		return v & (n - 1), true
	}
	if v > 1<<63-1-int64((1<<63)%uint64(n)) {
		return 0, false
	}
	return v % n, true
}

// dataSlices is how many pieces the input buffer allocation is split
// into for interleaving with stable-region work.
const dataSlices = 8

// Program returns the access program for one invocation with input in.
// A program is a pure function of (spec, input), so the ones for the
// spec's own A and B inputs are built once and shared by every caller;
// any other input (ratio:<x>, a kvstore descriptor) is built per call.
func (s *Spec) Program(in Input) *guest.Program {
	var memo **guest.Program
	switch in {
	case s.A:
		memo = &s.progs[0]
	case s.B:
		memo = &s.progs[1]
	default:
		return s.buildProgram(in)
	}
	s.progMu.Lock()
	defer s.progMu.Unlock()
	if *memo == nil {
		*memo = s.buildProgram(in)
	}
	return *memo
}

// buildProgram derives the access program for in from the layout.
func (s *Spec) buildProgram(in Input) *guest.Program {
	lay := s.layout()
	runs, order := lay.runs, lay.order

	// Total stable pages touched this invocation. Sequential-scan
	// functions (read-list) touch every page of every run; the rest
	// touch input-dependent run prefixes.
	var touched int64
	prefixes := make([]int64, len(runs))
	for i, r := range runs {
		if s.SeqStable {
			prefixes[i] = r.length
		} else {
			prefixes[i] = touchedPrefix(r, in.Seed, i)
		}
		touched += prefixes[i]
	}
	var stablePerPage time.Duration
	if touched > 0 {
		stablePerPage = time.Duration(int64(s.Base) * 6 / 10 / touched)
	}
	inputCompute := time.Duration(in.Bytes/1024)*s.ComputePerKB + time.Duration(in.DataPages)*s.PerPage
	var dataPerPage time.Duration
	if in.DataPages > 0 {
		dataPerPage = inputCompute / time.Duration(in.DataPages)
	}

	ops := make([]guest.Op, 0, len(order)+dataSlices+3)
	ops = append(ops, guest.Op{Kind: guest.OpCompute, Compute: s.Base * 15 / 100})

	// First quarter of the stable chunks come before input processing
	// (imports and request handling), then data slices interleave with
	// the rest.
	quarter := len(order) / 4
	stable := make([]int64, touched) // every chunk's pages, carved below
	appendChunk := func(i int) {
		r := runs[i]
		n := prefixes[i]
		pages := stable[:n:n]
		stable = stable[n:]
		for j := int64(0); j < n; j++ {
			pages[j] = r.start + j
		}
		ops = append(ops, guest.Op{Kind: guest.OpTouch, Pages: pages, PerPage: stablePerPage})
	}
	for _, i := range order[:quarter] {
		appendChunk(i)
	}
	rest := order[quarter:]
	sliceEvery := 1
	if len(rest) > dataSlices {
		sliceEvery = len(rest) / dataSlices
	}
	slicePages := in.DataPages / dataSlices
	slicesDone := int64(0)
	for k, i := range rest {
		appendChunk(i)
		if (k+1)%sliceEvery == 0 && slicesDone < dataSlices-1 && slicePages > 0 {
			ops = append(ops, guest.Op{
				Kind: guest.OpAllocWrite, Count: slicePages, Tag: "input",
				NonZero: true, PerPage: dataPerPage,
			})
			slicesDone++
		}
	}
	if remaining := in.DataPages - slicesDone*slicePages; remaining > 0 {
		ops = append(ops, guest.Op{
			Kind: guest.OpAllocWrite, Count: remaining, Tag: "input",
			NonZero: true, PerPage: dataPerPage,
		})
	}
	ops = append(ops, guest.Op{Kind: guest.OpCompute, Compute: s.Base * 25 / 100})
	ops = append(ops, guest.Op{Kind: guest.OpFree, Tag: "input", Frac: 1 - s.RetainFrac})
	return &guest.Program{Ops: ops}
}

// InputForRatio builds a Figure 8 test input whose size is ratio times
// input A's, with fresh content.
func (s *Spec) InputForRatio(ratio float64) Input {
	return Input{
		Name:      fmt.Sprintf("r%.2f", ratio),
		Bytes:     int64(float64(s.A.Bytes) * ratio),
		Seed:      hashSeed(s.Name, "ratio", fmt.Sprintf("%.4f", ratio)),
		DataPages: int64(float64(s.A.DataPages) * ratio),
	}
}

// ResolveInput maps an input name to an input definition: "" or "A",
// "B", or ratio:<x> for x times input A's size (Figure 8), x a finite
// number > 0. This is the one place that knows the syntax. An unknown
// name, a malformed ratio and a ratio whose input CheckInput refuses
// are errors.
func (s *Spec) ResolveInput(name string) (Input, error) {
	switch name {
	case "", "A":
		return s.A, nil
	case "B":
		return s.B, nil
	}
	x, ok := strings.CutPrefix(name, "ratio:")
	if !ok {
		return Input{}, fmt.Errorf("workload: unknown input %q (use A, B, or ratio:<x>)", name)
	}
	// !(ratio > 0) also catches NaN, which ParseFloat accepts.
	ratio, err := strconv.ParseFloat(x, 64)
	if err != nil || !(ratio > 0) || math.IsInf(ratio, 1) {
		return Input{}, fmt.Errorf("workload: bad input %q: ratio must be a finite number > 0", name)
	}
	in := s.InputForRatio(ratio)
	if err := s.CheckInput(in); err != nil {
		return Input{}, fmt.Errorf("workload: bad input %q: %w", name, err)
	}
	return in, nil
}

// CheckInput reports whether the guest can run in: sizes are
// non-negative, the nominal size is at most the guest's memory, and the
// data pages fit the heap together with the share of them a snapshot
// keeps live (RetainFrac). That second term makes the bound hold for
// pairs: any admitted test input fits beside what any admitted record
// input left behind, so no admitted input exhausts the guest heap.
func (s *Spec) CheckInput(in Input) error {
	const heapPages = GuestPages - GuestPages/2
	if in.Bytes < 0 || in.Bytes > GuestPages*snapshot.PageSize {
		return fmt.Errorf("input size %d bytes outside the %d-byte guest", in.Bytes, int64(GuestPages*snapshot.PageSize))
	}
	// As guest.free rounds: the freed share is truncated.
	retained := func() int64 { return in.DataPages - int64(float64(in.DataPages)*(1-s.RetainFrac)) }
	if in.DataPages < 0 || in.DataPages > heapPages || in.DataPages+retained() > heapPages {
		return fmt.Errorf("%d data pages do not fit the %d-page guest heap", in.DataPages, int64(heapPages))
	}
	return nil
}

// WarmEstimate returns the approximate warm-VM execution time for an
// input: compute plus anonymous-fault service for the data pages.
func (s *Spec) WarmEstimate(in Input, anonFault time.Duration) time.Duration {
	return s.Base +
		time.Duration(in.Bytes/1024)*s.ComputePerKB +
		time.Duration(in.DataPages)*s.PerPage +
		time.Duration(in.DataPages)*anonFault
}

// VariableInput reports whether the function takes different inputs in
// record and test phases (the nine benchmark functions of Figure 6).
func (s *Spec) VariableInput() bool { return s.A.Seed != s.B.Seed }

// ColdInit returns the runtime-initialization compute for cold starts.
func (s *Spec) ColdInit() time.Duration {
	if s.InitCompute > 0 {
		return s.InitCompute
	}
	return 800 * time.Millisecond
}

// InitProgram is the boot-time initialization access program: the
// runtime and libraries are read from the root filesystem, touching
// the whole stable region and the tail of the boot image, interleaved
// with the import-time compute.
func (s *Spec) InitProgram() *guest.Program {
	runs := s.layout().runs
	var ops []guest.Op
	init := s.ColdInit()
	ops = append(ops, guest.Op{Kind: guest.OpCompute, Compute: init / 5})
	var perPage time.Duration
	if s.StablePages > 0 {
		perPage = time.Duration(int64(init) * 3 / 5 / s.StablePages)
	}
	for _, r := range runs {
		pages := make([]int64, r.length)
		for j := int64(0); j < r.length; j++ {
			pages[j] = r.start + j
		}
		ops = append(ops, guest.Op{Kind: guest.OpTouch, Pages: pages, Write: true, NonZero: true, PerPage: perPage})
	}
	ops = append(ops, guest.Op{Kind: guest.OpCompute, Compute: init / 5})
	return &guest.Program{Ops: ops}
}
