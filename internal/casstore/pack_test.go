package casstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// FuzzPackTrailer holds decodeTrailer to its contract on any bytes: a
// trailer it accepts lists only sections inside the payloads, and is
// exactly the trailer appendTrailer writes for those entries — so a
// damaged CRC, count or magic is never accepted. The seed corpus under
// testdata/fuzz holds a good pack, one with a bad CRC and one whose
// entry ends past the payloads under a good CRC.
func FuzzPackTrailer(f *testing.F) {
	f.Fuzz(func(t *testing.T, pack []byte) {
		entries, err := decodeTrailer(bytes.NewReader(pack), int64(len(pack)))
		if err != nil {
			return
		}
		end := int64(len(pack) - footerSize - len(entries)*entrySize)
		for i, e := range entries {
			if e.off < 0 || e.n < 0 || e.off+e.n > end {
				t.Fatalf("entry %d = [%d, +%d) lies outside the %d bytes of payloads", i, e.off, e.n, end)
			}
		}
		if got := appendTrailer(nil, entries); !bytes.Equal(got, pack[end:]) {
			t.Fatalf("accepted trailer %x, which re-encodes as %x", pack[end:], got)
		}
	})
}

// TestPackIsOneCommit: a pack's chunks are invisible until its commit,
// which leaves one file whose trailer lists them; a reopened store
// serves them from it.
func TestPackIsOneCommit(t *testing.T) {
	s, dir := newStore(t)
	p := s.NewPack()
	var ds []Digest
	for _, data := range []string{"first chunk", "second chunk", "third chunk"} {
		d, existed, err := p.Put([]byte(data))
		if err != nil || existed {
			t.Fatalf("put %q = existed %v, %v", data, existed, err)
		}
		if s.Has(d) {
			t.Fatalf("%q visible before its pack committed", data)
		}
		ds = append(ds, d)
	}
	if _, existed, _ := p.Put([]byte("first chunk")); !existed {
		t.Fatal("a chunk put twice into one pack was not a dedup hit")
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	packs, _ := filepath.Glob(filepath.Join(s.path(localDir), "*"))
	if len(packs) != 1 {
		t.Fatalf("pack commit left %q, want one file", packs)
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if _, _, err := s2.Get(d); err != nil || !s2.Has(d) {
			t.Fatalf("chunk %s after commit and reopen: %v", d, err)
		}
	}
}

// TestPackPutsFromManyGoroutines: puts from several goroutines, some of
// the same chunk, commit as one pack holding each chunk once.
func TestPackPutsFromManyGoroutines(t *testing.T) {
	s, _ := newStore(t)
	p := s.NewPack()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, _, err := p.Put([]byte(fmt.Sprintf("chunk %d", (g*16+i)%64))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n, err := p.Commit(); err != nil || n != 64 {
		t.Fatalf("commit = %d chunks, %v; want the 64 distinct ones", n, err)
	}
	if st := s.Stats(); st.LocalChunks != 64 {
		t.Fatalf("stats = %+v, want 64 local chunks", st)
	}
}

// TestGCRewritesPartlyDeadPack: GC rewrites a pack holding a dead chunk
// as a new pack of the live ones, and what it leaves reads the same
// after a reopen.
func TestGCRewritesPartlyDeadPack(t *testing.T) {
	s, dir := newStore(t)
	p := s.NewPack()
	live, _, _ := p.Put(bytes.Repeat([]byte("live"), 1000))
	dead, _, _ := p.Put(bytes.Repeat([]byte("dead"), 1000))
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	old, _ := packOf(t, s, live)
	res, err := s.GC(func(d Digest) bool { return d == live }, nil)
	if err != nil || res.Removed != 1 || res.Kept != 1 || res.ReclaimedBytes < 4000 {
		t.Fatalf("gc = %+v, %v; want one of two chunks removed and its bytes reclaimed", res, err)
	}
	if _, err := os.Lstat(old); !os.IsNotExist(err) {
		t.Fatal("the partly dead pack survived GC")
	}
	if s.Has(dead) || !s.Has(live) {
		t.Fatal("GC kept the dead chunk or dropped the live one")
	}
	st := s.Stats()
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2 := s2.Stats(); st2 != st || s2.Has(dead) {
		t.Fatalf("stats after GC %+v, after a reopen %+v", st, st2)
	}
}

// TestOpenQuarantinesBadTrailer: a pack whose trailer does not decode is
// moved to quarantine/ at open, and none of its chunks is served.
func TestOpenQuarantinesBadTrailer(t *testing.T) {
	s, dir := newStore(t)
	d, _, err := s.Put([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	path, _ := packOf(t, s, d)
	raw, _ := os.ReadFile(path)
	raw[len(raw)-footerSize-1] ^= 0xff // inside the entries: the CRC fails
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has(d) {
		t.Fatal("a chunk of a pack with a damaged trailer is served")
	}
	if _, err := os.Lstat(filepath.Join(dir, "quarantine", "pack-"+filepath.Base(path))); err != nil {
		t.Fatalf("damaged pack not quarantined: %v", err)
	}
}
