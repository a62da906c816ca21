package pagebits

import (
	"math/rand"
	"sync"
	"testing"
)

// model is the reference a Set is checked against: the set pages of
// [0, n) as a map.
type model struct {
	n   int64
	set map[int64]bool
}

func (m *model) runs() [][2]int64 {
	var out [][2]int64
	for p := int64(0); p < m.n; p++ {
		if !m.set[p] {
			continue
		}
		if k := len(out); k > 0 && out[k-1][1] == p {
			out[k-1][1]++
		} else {
			out = append(out, [2]int64{p, p + 1})
		}
	}
	return out
}

func check(t *testing.T, what string, s *Set, m *model) {
	t.Helper()
	if s.Count() != int64(len(m.set)) {
		t.Fatalf("%s: Count = %d, want %d", what, s.Count(), len(m.set))
	}
	for p := int64(0); p < m.n; p++ {
		if s.Has(p) != m.set[p] {
			t.Fatalf("%s: Has(%d) = %v, want %v", what, p, s.Has(p), m.set[p])
		}
	}
	var got [][2]int64
	s.Runs(func(lo, hi int64) { got = append(got, [2]int64{lo, hi}) })
	want := m.runs()
	if len(got) != len(want) {
		t.Fatalf("%s: %d runs, want %d: %v vs %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: run %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// step applies one random operation to s and m. Ranges are drawn to
// start and end near leaf and word edges as often as anywhere else.
func step(t *testing.T, rng *rand.Rand, s *Set, m *model) {
	t.Helper()
	page := func() int64 {
		if rng.Intn(2) == 0 {
			edge := int64(rng.Intn(int(m.n/leafPages)+1)) * leafPages
			if rng.Intn(2) == 0 {
				edge = int64(rng.Intn(int(m.n/64)+1)) * 64
			}
			return min(max(edge+int64(rng.Intn(5)-2), 0), m.n)
		}
		return rng.Int63n(m.n + 1)
	}
	switch op := rng.Intn(4); op {
	case 0, 1:
		p := rng.Int63n(m.n)
		var changed bool
		if op == 0 {
			changed = s.Add(p)
		} else {
			changed = s.Remove(p)
		}
		if changed != (m.set[p] != (op == 0)) {
			t.Fatalf("op %d on page %d reported changed=%v with the page set=%v", op, p, changed, m.set[p])
		}
		if op == 0 {
			m.set[p] = true
		} else {
			delete(m.set, p)
		}
	default:
		lo, hi := page(), page()
		if lo > hi {
			lo, hi = hi, lo
		}
		var want, got int64
		for p := lo; p < hi; p++ {
			if m.set[p] != (op == 2) {
				want++
			}
			if op == 2 {
				m.set[p] = true
			} else {
				delete(m.set, p)
			}
		}
		if op == 2 {
			got = s.AddRange(lo, hi)
		} else {
			got = s.RemoveRange(lo, hi)
		}
		if got != want {
			t.Fatalf("op %d on [%d, %d) changed %d pages, want %d", op, lo, hi, got, want)
		}
	}
}

func cloneModel(m *model) *model {
	c := &model{n: m.n, set: map[int64]bool{}}
	for p := range m.set {
		c.set[p] = true
	}
	return c
}

// TestSetMatchesModel drives random sets, clears and ranges across
// leaf and word edges against a map, and clones along the way: after a
// Clone, writes to either side must not show on the other.
func TestSetMatchesModel(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, leafPages - 1, leafPages, leafPages + 1, 3*leafPages + 100} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + n))
			s, m := New(n), &model{n: n, set: map[int64]bool{}}
			check(t, "empty", s, m)
			for round := 0; round < 4; round++ {
				for i := 0; i < 60; i++ {
					step(t, rng, s, m)
				}
				check(t, "source", s, m)
				c, cm := s.Clone(), cloneModel(m)
				for i := 0; i < 30; i++ {
					step(t, rng, c, cm)
				}
				check(t, "source after the clone's writes", s, m)
				for i := 0; i < 30; i++ {
					step(t, rng, s, m)
				}
				check(t, "clone after the source's writes", c, cm)
				check(t, "source", s, m)
				if rng.Intn(2) == 0 {
					s, m = c, cm // carry on with the clone
				}
			}
		}
	}
}

// TestFullLeafIsShared pins the point of the type: a set over a 2 GiB
// guest that is all set, or clear but for a few pages, allocates no
// leaf per covered leaf, and writing one page of a full set copies one
// leaf without touching the others.
func TestFullLeafIsShared(t *testing.T) {
	const n = 2 << 30 / 4096
	s := New(n)
	if got := s.AddRange(0, n); got != n || s.Count() != n {
		t.Fatalf("AddRange = %d, Count = %d, want %d", got, s.Count(), n)
	}
	for k := range s.leaves {
		if s.leaves[k] != full {
			t.Fatalf("leaf %d of a full set is not the shared full leaf", k)
		}
	}
	s.Remove(leafPages + 7)
	if s.leaves[1] == full || s.leaves[0] != full || s.leaves[2] != full || full[0] != ^uint64(0) {
		t.Fatal("clearing one page did not copy exactly its own leaf")
	}
	if got := s.RemoveRange(0, n); got != n-1 || s.Count() != 0 {
		t.Fatalf("RemoveRange = %d, Count = %d", got, s.Count())
	}
	for k := range s.leaves {
		if s.leaves[k] != nil {
			t.Fatalf("leaf %d of a cleared set is not nil", k)
		}
	}
}

// TestConcurrentClones clones one set from many goroutines and writes
// every clone; run under -race it shows that cloning a set nobody
// writes writes nothing shared.
func TestConcurrentClones(t *testing.T) {
	const n = 5 * leafPages
	src := New(n)
	src.AddRange(0, 3*leafPages)
	for p := int64(3 * leafPages); p < n; p += 3 {
		src.Add(p)
	}
	src = src.Clone() // the shared source is itself a clone
	want := src.Count()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				c := src.Clone()
				for j := 0; j < 20; j++ {
					p := rng.Int63n(n)
					if rng.Intn(2) == 0 {
						c.Add(p)
					} else {
						c.Remove(p)
					}
				}
				c.RemoveRange(leafPages/2, 2*leafPages+5)
			}
		}()
	}
	wg.Wait()
	if src.Count() != want {
		t.Fatalf("source count moved from %d to %d", want, src.Count())
	}
	var got int64
	src.Runs(func(lo, hi int64) { got += hi - lo })
	if got != want {
		t.Fatalf("source runs cover %d pages, want %d", got, want)
	}
}
