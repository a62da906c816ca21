package workload

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"faasnap/internal/guest"
)

// referenceProgram is Program as it was before the layout and the A/B
// programs were memoised: everything re-derived from the spec's fields,
// a fresh math/rand source per stable run. It is the oracle for
// TestProgramMatchesReference.
func referenceProgram(s *Spec, in Input) *guest.Program {
	runs := s.stableRuns()
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	if !s.SeqStable {
		rng := rand.New(rand.NewSource(hashSeed(s.Name, "order")))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	touchedPrefix := func(r run, seed int64, idx int) int64 {
		if r.length <= 2 {
			return r.length
		}
		rng := rand.New(rand.NewSource(seed ^ int64(idx)*0x4f1bbcdcbfa53e0b))
		slack := r.length / 5
		return r.length - int64(rng.Int63n(slack+1))
	}
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
	var ops []guest.Op
	ops = append(ops, guest.Op{Kind: guest.OpCompute, Compute: s.Base * 15 / 100})
	quarter := len(order) / 4
	appendChunk := func(i int) {
		r := runs[i]
		n := prefixes[i]
		pages := make([]int64, n)
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

// TestProgramMatchesReference: for every catalog function (the nine of
// Figure 6 and the three synthetic ones, read-list being the only
// SeqStable layout) and inputs A, B, ratio:0.5 and ratio:2, Program
// returns exactly what the per-call derivation did — memoised or built
// through the one reseeded source — on the first call and on the
// second.
func TestProgramMatchesReference(t *testing.T) {
	for _, s := range Catalog() {
		for _, name := range []string{"A", "B", "ratio:0.5", "ratio:2"} {
			in, err := s.ResolveInput(name)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, name, err)
			}
			want := referenceProgram(s, in)
			for call := 1; call <= 2; call++ {
				if got := s.Program(in); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: call %d differs from the reference build", s.Name, name, call)
				}
			}
		}
	}
}

// TestProgramMemoisedForOwnInputsOnly: A and B come back as the one
// shared program each; any other input is a fresh build every time.
func TestProgramMemoisedForOwnInputsOnly(t *testing.T) {
	s, _ := ByName("json")
	if s.Program(s.A) != s.Program(s.A) || s.Program(s.B) != s.Program(s.B) {
		t.Fatal("Program(A) / Program(B) are rebuilt per call")
	}
	if s.Program(s.A) == s.Program(s.B) {
		t.Fatal("A and B share one memo slot")
	}
	r := s.InputForRatio(2)
	if s.Program(r) == s.Program(r) {
		t.Fatal("a ratio input was memoised: only A and B have slots")
	}
	// The synthetic functions' A and B differ in name only; each still
	// gets its own slot.
	h, _ := ByName("hello-world")
	if h.Program(h.A) == h.Program(h.B) {
		t.Fatal("hello-world A and B share one memo slot")
	}
}

// TestProgramConcurrentFirstUse races the first Program, CleanMemory
// and InitProgram calls on one fresh spec (run with -race).
func TestProgramConcurrentFirstUse(t *testing.T) {
	s, _ := ByName("pyaes")
	want := referenceProgram(s, s.B)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				s.CleanMemory()
			case 1:
				s.InitProgram()
			case 2:
				s.Program(s.A)
			}
			if got := s.Program(s.B); !reflect.DeepEqual(got, want) {
				t.Error("concurrent Program(B) differs from the reference build")
			}
		}(i)
	}
	wg.Wait()
}

// TestFirstInt63nMatchesMathRand pins firstInt63n to a freshly seeded
// math/rand source on 100 000 random (seed, n) pairs: seeds anywhere
// in int64 (zero, negative, multiples of 2³¹−1 included), n from tiny
// to near 2⁶³, powers of two or not. Where firstInt63n declines, the
// source's first draw must be one Int63n rejects.
func TestFirstInt63nMatchesMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	declined := 0
	for i := 0; i < 100000; i++ {
		seed := rng.Int63() - rng.Int63()
		switch i % 16 {
		case 0:
			seed = int64(i%7) * lehmerM * int64(1-2*(i%2))
		case 1:
			seed = int64(i % 5)
		}
		var n int64
		switch i % 4 {
		case 0:
			n = 1 + rng.Int63n(1000)
		case 1:
			n = 1 << rng.Intn(63)
		case 2:
			n = 1 + rng.Int63()
		default:
			n = 1<<62 + rng.Int63n(1<<62) // rejects up to half of all draws
		}
		got, ok := firstInt63n(seed, n)
		src := rand.New(rand.NewSource(seed))
		if !ok {
			declined++
			if v := src.Int63(); v <= 1<<63-1-int64((1<<63)%uint64(n)) {
				t.Fatalf("seed %d, n %d: declined a draw (%d) Int63n accepts", seed, n, v)
			}
			continue
		}
		if want := src.Int63n(n); got != want {
			t.Fatalf("seed %d, n %d: got %d, math/rand draws %d", seed, n, got, want)
		}
	}
	if declined == 0 {
		t.Fatal("no draw was rejected; the fallback went untested")
	}
}
