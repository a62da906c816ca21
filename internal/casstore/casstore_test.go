package casstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"faasnap/internal/core"
	"faasnap/internal/snapshot"
	"faasnap/internal/telemetry"
	"faasnap/internal/workload"
)

func newStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	data := bytes.Repeat([]byte("faasnap"), 1000)
	d, existed, err := s.Put(data)
	if err != nil || existed {
		t.Fatalf("put = existed=%v, %v", existed, err)
	}
	if !s.Has(d) {
		t.Fatal("Has after put = false")
	}
	got, tier, err := s.Get(d)
	if err != nil || tier != TierLocal || !bytes.Equal(got, data) {
		t.Fatalf("get = tier=%v err=%v match=%v", tier, err, bytes.Equal(got, data))
	}
	// Second put of the same content is a dedup hit.
	d2, existed, err := s.Put(data)
	if err != nil || !existed || d2 != d {
		t.Fatalf("re-put = %s existed=%v, %v", d2, existed, err)
	}
	if v := s.dedupHits.Value(); v != 1 {
		t.Fatalf("dedup hits = %v, want 1", v)
	}
}

func TestPutDigestRejectsMismatch(t *testing.T) {
	s, _ := newStore(t)
	d := Sum([]byte("right"))
	if _, err := s.PutDigest(d, []byte("wrong")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched put = %v, want ErrCorrupt", err)
	}
	if s.Has(d) {
		t.Fatal("mismatched payload was committed")
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := newStore(t)
	if _, _, err := s.Get(Sum([]byte("never stored"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing = %v, want ErrNotFound", err)
	}
}

// packOf returns the path of the pack d is served from and d's section
// of it.
func packOf(t *testing.T, s *Store, d Digest) (string, loc) {
	t.Helper()
	l, ok := s.lookup(d)
	if !ok {
		t.Fatalf("%s is not in a pack", d)
	}
	return s.path(l.pack), l
}

// TestGetLocalReadErrorNotMaskedAsMissing: a local-tier read failure
// that is not ENOENT (here: the chunk's pack is replaced by a directory,
// so the read fails with EISDIR) must propagate as an I/O error, not
// fall through to the cold tier and come back as ErrNotFound.
func TestGetLocalReadErrorNotMaskedAsMissing(t *testing.T) {
	s, _ := newStore(t)
	d, _, err := s.Put([]byte("unreadable"))
	if err != nil {
		t.Fatal(err)
	}
	path, _ := packOf(t, s, d)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Get(d)
	if err == nil {
		t.Fatal("get on unreadable local chunk succeeded")
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("local read failure reported as ErrNotFound: %v", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("local read failure reported as ErrCorrupt: %v", err)
	}
}

// TestLostPackIsAbsent: a pack removed out of band makes its chunks
// absent — ErrNotFound, and Has false — from their first read on, be it
// a Get's or a GC's, and a GC that meets one goes on past it.
func TestLostPackIsAbsent(t *testing.T) {
	s, _ := newStore(t)
	d, _, err := s.Put([]byte("lost"))
	if err != nil {
		t.Fatal(err)
	}
	path, _ := packOf(t, s, d)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(d); !errors.Is(err, ErrNotFound) || s.Has(d) {
		t.Fatalf("get of a chunk whose pack is gone = %v, has = %v; want ErrNotFound, false", err, s.Has(d))
	}

	// A lost pack holding a live and a dead chunk, first met by GC, and
	// a partly dead pack named after it.
	p := s.NewPack()
	lost, _, _ := p.Put([]byte("lost, live"))
	p.Put([]byte("lost, dead"))
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	p = s.NewPack()
	live, _, _ := p.Put([]byte("live"))
	dead, _, _ := p.Put([]byte("dead"))
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	lostPath, _ := packOf(t, s, lost)
	later, _ := packOf(t, s, live)
	if err := os.Remove(lostPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(func(d Digest) bool { return d == lost || d == live }, nil); err != nil {
		t.Fatalf("gc over a lost pack = %v", err)
	}
	if _, _, err := s.Get(lost); !errors.Is(err, ErrNotFound) || s.Has(lost) {
		t.Fatalf("after gc, get of a chunk whose pack is gone = %v, has = %v; want ErrNotFound, false", err, s.Has(lost))
	}
	if _, err := os.Lstat(later); !os.IsNotExist(err) {
		t.Fatal("gc stopped at the lost pack: the partly dead pack after it survived")
	}
	if _, _, err := s.Get(live); err != nil || s.Has(dead) {
		t.Fatalf("after gc, live chunk: %v; dead chunk kept: %v", err, s.Has(dead))
	}
}

func TestDemoteAndColdGet(t *testing.T) {
	s, _ := newStore(t)
	// Compressible content, as chunk payloads are.
	data := bytes.Repeat([]byte("abcdefgh"), 32*1024)
	d, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := packOf(t, s, d)
	if err := s.Demote(d); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Lstat(local); !os.IsNotExist(err) {
		t.Fatal("local copy survived demotion")
	}
	got, tier, err := s.Get(d)
	if err != nil || tier != TierCold || !bytes.Equal(got, data) {
		t.Fatalf("cold get = tier=%v err=%v match=%v", tier, err, bytes.Equal(got, data))
	}
	st := s.Stats()
	if st.ColdChunks != 1 || st.LocalChunks != 0 {
		t.Fatalf("stats = %+v, want 1 cold chunk", st)
	}
	if st.ColdBytes >= int64(len(data)) {
		t.Fatalf("cold tier stored %d bytes for %d raw — compression missing", st.ColdBytes, len(data))
	}
	// Demoting again is a no-op.
	if err := s.Demote(d); err != nil {
		t.Fatalf("re-demote = %v", err)
	}
}

// rot flips a byte inside d's section of its pack, returning the pack's
// path and the section as it now stands.
func rot(t *testing.T, s *Store, d Digest) (string, []byte) {
	t.Helper()
	path, l := packOf(t, s, d)
	raw, _ := os.ReadFile(path)
	raw[l.off+l.n/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, raw[l.off : l.off+l.n]
}

// TestCorruptChunkQuarantines: a byte flipped inside a chunk's section,
// in a pack of either tier, is caught by Get, which quarantines the
// section as stored; the next GC rewrites the pack without the chunk. A
// good copy stored again before that GC is the one served, after a
// restart too, and the GC keeps it.
func TestCorruptChunkQuarantines(t *testing.T) {
	for _, tier := range []Tier{TierLocal, TierCold} {
		t.Run(tier.String(), func(t *testing.T) {
			s, dir := newStore(t)
			p := s.NewPack()
			d, _, _ := p.Put([]byte("chunk payload with enough bytes to flip"))
			neighbour := []byte("its neighbour in the pack")
			other, _, _ := p.Put(neighbour)
			if _, err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			if tier == TierCold {
				if res, err := s.GC(func(Digest) bool { return true }, func(Digest) bool { return false }); err != nil || res.Demoted != 2 {
					t.Fatalf("demote = %+v, %v", res, err)
				}
			}
			path, section := rot(t, s, d)
			if _, _, err := s.Get(d); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("get corrupt = %v, want ErrCorrupt", err)
			}
			if s.Has(d) {
				t.Fatal("corrupt chunk still served by Has")
			}
			q := filepath.Join(dir, "quarantine", "chunk-"+d.String())
			if got, err := os.ReadFile(q); err != nil || !bytes.Equal(got, section) {
				t.Fatalf("quarantine/%s = %q, %v; want the section as stored", filepath.Base(q), got, err)
			}
			if _, _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
				t.Fatalf("get after quarantine = %v, want ErrNotFound", err)
			}
			if v := s.quarantined.Value(); v != 1 {
				t.Fatalf("quarantine counter = %v, want 1", v)
			}
			if _, err := s.GC(func(Digest) bool { return true }, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Lstat(path); !os.IsNotExist(err) {
				t.Fatal("GC kept the pack holding the corrupt chunk")
			}
			if _, got, err := s.Get(other); err != nil || got != tier {
				t.Fatalf("the corrupt chunk's neighbour after GC: tier %v, %v; want %v", got, err, tier)
			}
			s2, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s2.Has(d) || s2.Stats() != s.Stats() {
				t.Fatalf("after a reopen: corrupt chunk served %v, stats %+v; want false, %+v", s2.Has(d), s2.Stats(), s.Stats())
			}

			// The neighbour rots too and is quarantined; a peer's good copy
			// lands in a new local pack, and the store restarts before any
			// GC has removed the rotten section.
			rot(t, s2, other)
			if _, _, err := s2.Get(other); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("get corrupt neighbour = %v, want ErrCorrupt", err)
			}
			if _, err := s2.PutDigest(other, neighbour); err != nil {
				t.Fatal(err)
			}
			s3, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s3.GC(func(Digest) bool { return true }, nil); err != nil {
				t.Fatal(err)
			}
			if got, tier, err := s3.Get(other); err != nil || tier != TierLocal || !bytes.Equal(got, neighbour) {
				t.Fatalf("the copy stored again, after a reopen and a GC: tier %v, %v, match %v; want the local copy", tier, err, bytes.Equal(got, neighbour))
			}
		})
	}
}

// TestColdCopyWinsOverLocalDuplicate: a crash between a demotion's cold
// commit and the removal of the local pack leaves the chunk in both
// tiers; a reopened store serves it cold, and the next GC removes the
// local duplicate.
func TestColdCopyWinsOverLocalDuplicate(t *testing.T) {
	s, dir := newStore(t)
	data := bytes.Repeat([]byte("demoted"), 4096)
	d, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := packOf(t, s, d)
	dup, _ := os.ReadFile(local)
	if err := s.Demote(d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(local, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, tier, err := s2.Get(d); err != nil || tier != TierCold || !bytes.Equal(got, data) {
		t.Fatalf("get after a reopen = tier %v, %v, match %v; want the cold copy", tier, err, bytes.Equal(got, data))
	}
	if _, err := s2.GC(func(Digest) bool { return true }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Lstat(local); !os.IsNotExist(err) {
		t.Fatal("GC kept the local duplicate of a cold chunk")
	}
	if st := s2.Stats(); st != s.Stats() {
		t.Fatalf("stats after GC %+v, before the duplicate came back %+v", st, s.Stats())
	}
}

func TestGC(t *testing.T) {
	s, _ := newStore(t)
	live, _, err := s.Put([]byte("live chunk"))
	if err != nil {
		t.Fatal(err)
	}
	dead, _, err := s.Put([]byte("dead chunk"))
	if err != nil {
		t.Fatal(err)
	}
	coldLive, _, err := s.Put(bytes.Repeat([]byte("cold"), 4096))
	if err != nil {
		t.Fatal(err)
	}
	isLive := func(d Digest) bool { return d == live || d == coldLive }
	isHot := func(d Digest) bool { return d == live } // coldLive is live but not hot
	res, err := s.GC(isLive, isHot)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.Kept != 2 || res.Demoted != 1 {
		t.Fatalf("gc = %+v, want removed=1 kept=2 demoted=1", res)
	}
	if s.Has(dead) {
		t.Fatal("dead chunk survived GC")
	}
	if !s.Has(live) || !s.Has(coldLive) {
		t.Fatal("live chunk removed by GC")
	}
	if _, tier, err := s.Get(coldLive); err != nil || tier != TierCold {
		t.Fatalf("demoted chunk: tier=%v err=%v, want cold", tier, err)
	}
	// What GC leaves is exact: a second sweep finds nothing to do.
	if res, err := s.GC(isLive, isHot); err != nil || res.ReclaimedBytes != 0 || res.Demoted != 0 {
		t.Fatalf("second gc = %+v, %v; want nothing reclaimed or demoted", res, err)
	}
}

// TestFailedDemotionStaysLocal: a demotion whose cold pack fails to
// commit (its name is taken by a directory, so the rename fails) moves
// nothing: the chunk is still served from its local pack. A GC whose
// demotion meets a chunk it cannot read leaves that chunk local, demotes
// the rest, compacts every pack and then reports the read failure.
func TestFailedDemotionStaysLocal(t *testing.T) {
	s, _ := newStore(t)
	data := []byte("stays local")
	d, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	taken := s.path(fmt.Sprintf("%s/%016x.pack", coldDir, s.seq.Load()+1))
	if err := os.MkdirAll(filepath.Join(taken, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Demote(d); err == nil {
		t.Fatal("a demotion whose cold pack could not commit succeeded")
	}
	if got, tier, err := s.Get(d); err != nil || tier != TierLocal || !bytes.Equal(got, data) {
		t.Fatalf("get after a failed demotion = tier %v, %v, match %v; want the local copy", tier, err, bytes.Equal(got, data))
	}

	s, _ = newStore(t)
	unreadable, _, _ := s.Put([]byte("unreadable"))
	cold, _, _ := s.Put([]byte("goes cold"))
	dead, _, _ := s.Put([]byte("dead"))
	path, _ := packOf(t, s, unreadable)
	deadPack, _ := packOf(t, s, dead)
	// The pack turned into a directory: its read fails with EISDIR.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := s.GC(func(d Digest) bool { return d != dead }, func(Digest) bool { return false })
	if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("gc with an unreadable demotion candidate = %v, want its read error", err)
	}
	if res.Demoted != 1 || !s.Has(unreadable) {
		t.Fatalf("gc = %+v, unreadable chunk kept %v; want the other chunk demoted, the unreadable one local", res, s.Has(unreadable))
	}
	if _, tier, err := s.Get(cold); err != nil || tier != TierCold {
		t.Fatalf("the readable candidate after gc: tier %v, %v; want cold", tier, err)
	}
	if _, err := os.Lstat(deadPack); !os.IsNotExist(err) {
		t.Fatal("gc stopped at the unreadable chunk: the dead pack survived")
	}
}

func TestSweepTemp(t *testing.T) {
	s, _ := newStore(t)
	tmp := filepath.Join(s.path(localDir), "ab", "deadbeef.123.tmp")
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.SweepTemp()
	if _, err := os.Lstat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file survived sweep")
	}
}

func TestParseDigest(t *testing.T) {
	d := Sum([]byte("x"))
	got, err := ParseDigest(d.String())
	if err != nil || got != d {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := ParseDigest("short"); err == nil {
		t.Fatal("short digest accepted")
	}
	if _, err := ParseDigest(string(bytes.Repeat([]byte("z"), 64))); err == nil {
		t.Fatal("non-hex digest accepted")
	}
}

// sharedBaseSpecs builds two custom functions that differ only in name
// — the same boot/runtime image, i.e. recorded from a shared base.
func sharedBaseSpecs(t *testing.T) (*workload.Spec, *workload.Spec) {
	t.Helper()
	mk := func(name string) *workload.Spec {
		spec, err := workload.ParseSpec([]byte(`{
			"name": "` + name + `", "boot_mb": 16, "stable_pages": 128,
			"chunk_mean": 4, "retain_frac": 0.5, "base_ms": 1, "per_kb_us": 2,
			"init_ms": 5, "input_a": {"bytes": 4096, "data_pages": 8},
			"input_b": {"bytes": 16384, "data_pages": 24}}`))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	return mk("cas-alpha"), mk("cas-beta")
}

func TestBuildChunksDeterministic(t *testing.T) {
	fn, _ := sharedBaseSpecs(t)
	arts, _ := core.Record(core.DefaultHostConfig(), fn, fn.A)
	cm1, chunks1 := BuildChunks(arts, 0)
	cm2, chunks2 := BuildChunks(arts, 0)
	if len(cm1.Refs) == 0 || len(cm1.Refs) != len(cm2.Refs) {
		t.Fatalf("ref counts: %d vs %d", len(cm1.Refs), len(cm2.Refs))
	}
	for i := range cm1.Refs {
		if cm1.Refs[i] != cm2.Refs[i] {
			t.Fatalf("ref %d differs across builds", i)
		}
		if Sum(chunks1[i].Data) != chunks1[i].Ref.Digest {
			t.Fatalf("chunk %d payload does not hash to its ref", i)
		}
		_ = chunks2
	}
	if cm1.ChunkPages != DefaultChunkPages {
		t.Fatalf("chunk pages = %d", cm1.ChunkPages)
	}
}

// TestFillReusesOneBuffer: PlanChunks' extents, filled one after another
// into one dirty buffer, are BuildChunks' payloads, zero pages included.
func TestFillReusesOneBuffer(t *testing.T) {
	fn, _ := sharedBaseSpecs(t)
	arts, _ := core.Record(core.DefaultHostConfig(), fn, fn.A)
	want, chunks := BuildChunks(arts, 0)
	cm := PlanChunks(arts, 0)
	if len(cm.Refs) != len(want.Refs) {
		t.Fatalf("planned %d extents, BuildChunks made %d chunks", len(cm.Refs), len(want.Refs))
	}
	buf := bytes.Repeat([]byte{0xa5}, DefaultChunkPages*snapshot.PageSize)
	zero, zeroPages := make([]byte, snapshot.PageSize), 0
	for i, ref := range cm.Refs {
		if ref.Digest != ([32]byte{}) {
			t.Fatalf("planned extent %d carries a digest", i)
		}
		data := Fill(arts, ref, buf)
		if !bytes.Equal(data, chunks[i].Data) {
			t.Fatalf("extent %d filled into a reused buffer differs from BuildChunks' payload", i)
		}
		for off := 0; off < len(data); off += snapshot.PageSize {
			if bytes.Equal(data[off:off+snapshot.PageSize], zero) {
				zeroPages++
			}
		}
		if ref.Digest = Sum(data); ref != want.Refs[i] {
			t.Fatalf("extent %d = %+v, BuildChunks' ref = %+v", i, ref, want.Refs[i])
		}
	}
	if zeroPages == 0 {
		t.Fatal("no extent holds a zero page; the reused buffer's stale bytes were never at stake")
	}
}

func TestBuildChunksLSFlags(t *testing.T) {
	fn, _ := sharedBaseSpecs(t)
	arts, _ := core.Record(core.DefaultHostConfig(), fn, fn.A)
	cm, _ := BuildChunks(arts, 0)
	var lsRefs int
	for _, r := range cm.Refs {
		if r.LS {
			lsRefs++
			if r.Group < 0 {
				t.Fatalf("LS ref at page %d has no group", r.StartPage)
			}
		} else if r.Group != -1 {
			t.Fatalf("non-LS ref at page %d has group %d", r.StartPage, r.Group)
		}
	}
	if lsRefs == 0 || lsRefs == len(cm.Refs) {
		t.Fatalf("LS refs = %d of %d; want a proper subset", lsRefs, len(cm.Refs))
	}
	if lsb, tot := cm.LSBytes(), cm.TotalBytes(); lsb <= 0 || lsb >= tot {
		t.Fatalf("LS bytes %d of total %d; want a proper subset", lsb, tot)
	}
}

func TestSharedBaseImageDedup(t *testing.T) {
	fnA, fnB := sharedBaseSpecs(t)
	artsA, _ := core.Record(core.DefaultHostConfig(), fnA, fnA.A)
	artsB, _ := core.Record(core.DefaultHostConfig(), fnB, fnB.A)
	_, chunksA := BuildChunks(artsA, 0)
	_, chunksB := BuildChunks(artsB, 0)

	s, _ := newStore(t)
	var logical, aBytes int64
	for _, c := range chunksA {
		if _, _, err := s.Put(c.Data); err != nil {
			t.Fatal(err)
		}
		logical += int64(len(c.Data))
		aBytes += int64(len(c.Data))
	}
	var shared, total int
	for _, c := range chunksB {
		existed, err := s.PutDigest(c.Ref.Digest, c.Data)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if existed {
			shared++
		}
		logical += int64(len(c.Data))
	}
	if shared*2 <= total {
		t.Fatalf("shared-base dedup: only %d of %d of B's chunks dedup against A", shared, total)
	}
	st := s.Stats()
	// Store size must sit well below 2x a single snapshot's chunk bytes.
	if st.PhysicalBytes() >= aBytes*17/10 {
		t.Fatalf("store holds %d bytes for two snapshots of %d each — dedup not real", st.PhysicalBytes(), aBytes)
	}
	if st.PhysicalBytes() >= logical {
		t.Fatalf("physical %d >= logical %d", st.PhysicalBytes(), logical)
	}
}
