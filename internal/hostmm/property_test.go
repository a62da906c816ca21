package hostmm

import (
	"math/rand"
	"reflect"
	"sort"
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

// rebuildMmap is the rebuild-and-sort VMA update Mmap used before it
// spliced in place, kept as the oracle for TestMmapSpliceMatchesRebuild.
func rebuildMmap(vmas []VMA, start, n int64, back Backing, file *pagecache.File, fileOff int64) []VMA {
	end := start + n
	var out []VMA
	for _, v := range vmas {
		switch {
		case v.End <= start || v.Start >= end:
			out = append(out, v)
		default:
			if v.Start < start {
				left := v
				left.End = start
				out = append(out, left)
			}
			if v.End > end {
				right := v
				if right.Back == BackFile {
					right.FileOff = v.filePage(end)
				}
				right.Start = end
				out = append(out, right)
			}
		}
	}
	out = append(out, VMA{Start: start, End: end, Back: back, File: file, FileOff: fileOff})
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TestMmapSpliceMatchesRebuild drives seeded random sequences of
// overlapping anonymous and file mappings — strictly inside one VMA,
// covering one exactly, spanning many, touching edges, landing in
// unmapped holes — interleaved with page installs, and checks VMAs(),
// RSS() and MmapCalls() against the rebuild-and-sort reference after
// every call.
func TestMmapSpliceMatchesRebuild(t *testing.T) {
	const pages = 1024
	env := sim.NewEnv(1)
	cache := pagecache.New(env)
	dev := blockdev.New(env, blockdev.NVMeLocal())
	files := []*pagecache.File{cache.Register("f0", dev, pages), cache.Register("f1", dev, pages)}
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as := New(env, cache, DefaultCosts(), pages)
		var want []VMA
		present := make([]bool, pages)
		var rss int64
		calls := 0
		steps := 4 + rng.Intn(40)
		for step := 0; step < steps; step++ {
			var start, n int64
			cur := as.VMAs()
			switch shape := rng.Intn(5); {
			case shape == 0 || len(cur) == 0: // anywhere, any length
				start = int64(rng.Intn(pages))
				n = 1 + int64(rng.Intn(int(pages-start)))
			case shape == 1: // exactly one existing VMA
				v := cur[rng.Intn(len(cur))]
				start, n = v.Start, v.End-v.Start
			case shape == 2: // strictly inside one VMA, when it has room
				v := cur[rng.Intn(len(cur))]
				start, n = v.Start, v.End-v.Start
				if n >= 3 {
					start += 1 + int64(rng.Intn(int(n-2)))
					n = 1 + int64(rng.Intn(int(v.End-1-start)))
				}
			case shape == 3: // from one VMA's start to another's end
				i := rng.Intn(len(cur))
				j := i + rng.Intn(len(cur)-i)
				start, n = cur[i].Start, cur[j].End-cur[i].Start
			default: // ending exactly where a VMA starts
				v := cur[rng.Intn(len(cur))]
				if v.Start == 0 {
					start, n = 0, v.End
				} else {
					start = int64(rng.Intn(int(v.Start)))
					n = v.Start - start
				}
			}
			back, file, off := BackAnon, (*pagecache.File)(nil), int64(0)
			if rng.Intn(2) == 0 {
				back, file = BackFile, files[rng.Intn(len(files))]
				off = int64(rng.Intn(int(pages - n + 1)))
			}
			as.Mmap(nil, start, n, back, file, off)
			want = rebuildMmap(want, start, n, back, file, off)
			calls++
			for p := start; p < start+n; p++ {
				if present[p] {
					present[p] = false
					rss--
				}
			}
			if got := as.VMAs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: mmap [%d,%d): VMAs\n got %+v\nwant %+v", seed, step, start, start+n, got, want)
			}
			for i := 0; i < 8; i++ {
				p := int64(rng.Intn(pages))
				as.InstallPage(p)
				if !present[p] {
					present[p] = true
					rss++
				}
			}
			if as.RSS() != rss || as.MmapCalls() != calls {
				t.Fatalf("seed %d step %d: RSS %d calls %d, want %d and %d", seed, step, as.RSS(), as.MmapCalls(), rss, calls)
			}
		}
	}
}
