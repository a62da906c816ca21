package hostmm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"faasnap/internal/blockdev"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
)

// TestPropertyVMAInvariants applies random MAP_FIXED sequences and
// checks the VMA list stays sorted, non-overlapping, and lookup-
// consistent with the most recent mapping of each page.
func TestPropertyVMAInvariants(t *testing.T) {
	const pages = 4096
	f := func(seed int64, nMaps uint8) bool {
		env := sim.NewEnv(1)
		cache := pagecache.New(env)
		dev := blockdev.New(env, blockdev.NVMeLocal())
		file := cache.Register("f", dev, pages)
		as := New(env, cache, DefaultCosts(), pages)
		rng := rand.New(rand.NewSource(seed))

		// Model: the authoritative "latest mapping" per page.
		type mapping struct {
			anon    bool
			filePg  int64
			version int
		}
		truth := make([]mapping, pages)
		mapped := make([]bool, pages)

		n := int(nMaps%24) + 1
		for v := 1; v <= n; v++ {
			start := int64(rng.Intn(pages - 1))
			length := int64(rng.Intn(int(pages-start))) + 1
			anon := rng.Intn(2) == 0
			var off int64
			if !anon {
				off = int64(rng.Intn(int(pages - length + 1)))
				as.Mmap(nil, start, length, BackFile, file, off)
			} else {
				as.Mmap(nil, start, length, BackAnon, nil, 0)
			}
			for i := int64(0); i < length; i++ {
				truth[start+i] = mapping{anon: anon, filePg: off + i, version: v}
				mapped[start+i] = true
			}
		}

		// Invariants on the VMA list.
		vmas := as.VMAs()
		for i, vma := range vmas {
			if vma.Start >= vma.End {
				return false
			}
			if i > 0 && vma.Start < vmas[i-1].End {
				return false
			}
		}
		// Lookup agrees with the latest mapping for sampled pages.
		for s := 0; s < 128; s++ {
			pg := int64(rng.Intn(pages))
			vma, ok := as.Lookup(pg)
			if ok != mapped[pg] {
				return false
			}
			if !ok {
				continue
			}
			want := truth[pg]
			if want.anon != (vma.Back == BackAnon) {
				return false
			}
			if !want.anon && vma.FileOff+(pg-vma.Start) != want.filePg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRSSCountsDistinctPages: after touching random pages, RSS
// equals the number of distinct pages touched, and a remap of a random
// range takes exactly its pages back out.
func TestPropertyRSSCountsDistinctPages(t *testing.T) {
	const pages = 2048
	f := func(seed int64, nTouches uint8) bool {
		env := sim.NewEnv(1)
		cache := pagecache.New(env)
		as := New(env, cache, DefaultCosts(), pages)
		as.Mmap(nil, 0, pages, BackAnon, nil, 0)
		rng := rand.New(rand.NewSource(seed))
		distinct := map[int64]bool{}
		ok := true
		env.Go("g", func(p *sim.Proc) {
			for i := 0; i < int(nTouches)+1; i++ {
				pg := int64(rng.Intn(pages))
				as.Touch(p, pg)
				distinct[pg] = true
			}
			if as.RSS() != int64(len(distinct)) {
				ok = false
			}
			if as.Stats().Total() != int64(len(distinct)) {
				ok = false // revisits must not fault
			}
			// Remapping any range, word-aligned or not, discards exactly
			// the PTEs inside it: those pages fault again, the rest do not.
			lo := int64(rng.Intn(pages))
			n := 1 + int64(rng.Intn(int(pages-lo)))
			as.Mmap(p, lo, n, BackAnon, nil, 0)
			kept := 0
			for pg := range distinct {
				if pg < lo || pg >= lo+n {
					kept++
				}
			}
			if as.RSS() != int64(kept) {
				ok = false
			}
			for pg := range distinct {
				as.Touch(p, pg)
			}
			if as.RSS() != int64(len(distinct)) || as.Stats().Total() != int64(2*len(distinct)-kept) {
				ok = false
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
