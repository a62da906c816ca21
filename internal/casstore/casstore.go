// Package casstore is a content-addressed chunk store for snapshot
// artifacts. Snapshot memory content is cut into fixed-size,
// page-aligned extents addressed by SHA-256 (see chunks.go); each
// distinct chunk is stored once, so functions recorded from a shared
// base image (guest kernel, runtime) share their common pages on disk,
// and a daemon fills those pages from the image rather than moving them
// (BaseExtent) — the chunk-dedup design of the snapshot optimization
// literature applied under FaaSnap's loading sets.
//
// Chunks live in packs (pack.go): the chunks one commit added, back to
// back, and a trailer listing them. A pack's directory under
// <state-dir>/cas is its tier:
//
//	packs/<seq>.pack   local tier: a record's, a sync's or a GC
//	                   rewrite's chunks, as they are
//	cold/<seq>.pack    cold tier: a demotion's chunks, each
//	                   DEFLATE-compressed, modeled remote latency
//	                   (internal/blockdev profile)
//
// A pack commit is the same durable write as a snapfile's (one temp
// file, one fsync, one rename, one directory fsync), and its chunks join
// the in-memory index (digest → pack section) only once it is done;
// Open rebuilds the index from the pack trailers, whose CRC catches a
// trailer that rotted. Every read of a chunk — Get, demotion, GC's
// rewrite — reads one section, inflates it if cold and re-verifies it
// against its digest: a chunk that rotted on disk has its section copied
// into quarantine/ and is dropped from the index, never served.
//
// The store is refcount-free on the write path: chunks are shared, so
// deletes only remove references (snapfiles); GC takes the live digest
// set from the caller — computed from the manifest's live chunk maps,
// honoring delete tombstones — and drops everything else. A pack of
// either tier holding any byte the index does not serve from it (a
// dead, duplicated, demoted or quarantined chunk) is removed, or
// rewritten as a new pack, so what GC leaves is exact and reads the same
// after a restart.
package casstore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/atomicfile"
	"faasnap/internal/blockdev"
	"faasnap/internal/telemetry"
)

// Digest is a chunk's SHA-256 content address.
type Digest [sha256.Size]byte

func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Sum is the digest of b.
func Sum(b []byte) Digest { return sha256.Sum256(b) }

// ParseDigest decodes a 64-char hex digest.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	if len(s) != hex.EncodedLen(len(d)) {
		return d, fmt.Errorf("casstore: bad digest length %d", len(s))
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("casstore: bad digest: %w", err)
	}
	copy(d[:], raw)
	return d, nil
}

// Tier says which tier served or holds a chunk.
type Tier int

const (
	TierLocal Tier = iota
	TierCold
)

func (t Tier) String() string {
	if t == TierCold {
		return "cold"
	}
	return "local"
}

// The tiers' directories under the store's.
const (
	localDir = "packs"
	coldDir  = "cold"
)

// tierOf is the tier of the pack named "<tier directory>/<seq>.pack".
func tierOf(pack string) Tier {
	if strings.HasPrefix(pack, coldDir+"/") {
		return TierCold
	}
	return TierLocal
}

// ErrNotFound reports a digest absent from both tiers.
var ErrNotFound = errors.New("casstore: chunk not found")

// ErrCorrupt reports a chunk whose bytes no longer hash to its name;
// the store has already moved it to quarantine when Get returns this.
var ErrCorrupt = errors.New("casstore: chunk corrupt")

// Stats is the store's physical occupancy.
type Stats struct {
	LocalChunks int64 `json:"local_chunks"`
	LocalBytes  int64 `json:"local_bytes"`
	ColdChunks  int64 `json:"cold_chunks"`
	// ColdBytes is the cold tier's on-disk (compressed) size.
	ColdBytes int64 `json:"cold_bytes"`
}

// PhysicalBytes is the store's total on-disk footprint.
func (s Stats) PhysicalBytes() int64 { return s.LocalBytes + s.ColdBytes }

// GCResult reports one sweep.
type GCResult struct {
	Removed        int64 `json:"removed_chunks"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	Kept           int64 `json:"kept_chunks"`
	Demoted        int64 `json:"demoted_chunks"`
}

// Store is one host's chunk store.
type Store struct {
	dir   string // <state-dir>/cas
	state string // <state-dir>, whose quarantine/ corrupt chunks go to

	// cold models the remote tier's device: fetch latency is
	// Profile.Latency + size/Bandwidth, reported via telemetry the same
	// way internal/blockdev models devices — recorded, not slept, so
	// the control plane stays fast while the cost is visible.
	cold blockdev.Profile

	// mu excludes GC and demotion, which remove files, from reads.
	mu sync.RWMutex
	// imu guards the index; it is never held across a disk operation.
	imu    sync.RWMutex
	chunks map[Digest]loc
	packs  map[string]*packFile
	seq    atomic.Uint64 // the last pack number taken, in either tier
	bufs   sync.Pool     // *[]byte for Serve

	fetchLocal  *telemetry.Histogram
	fetchCold   *telemetry.Histogram
	dedupHits   *telemetry.Counter
	quarantined *telemetry.Counter
	chunksLocal *telemetry.Gauge
	chunksCold  *telemetry.Gauge
	bytesLocal  *telemetry.Gauge
	bytesCold   *telemetry.Gauge

	onQuarantine atomic.Pointer[func(d Digest, tier Tier)]
}

// loc is where the index finds a chunk: a section of a pack, named
// "<tier directory>/<seq>.pack".
type loc struct {
	pack   string
	off, n int64
}

func (l loc) tier() Tier { return tierOf(l.pack) }

type packFile struct {
	size    int64
	entries []entry
}

// SetOnQuarantine installs a callback invoked whenever a corrupt chunk
// is moved to quarantine, with its digest and the tier it failed in.
// The callback runs with the store lock held; it must not call back
// into the store.
func (s *Store) SetOnQuarantine(fn func(d Digest, tier Tier)) {
	if s == nil || fn == nil {
		return
	}
	s.onQuarantine.Store(&fn)
}

// Open opens the chunk store under stateDir, registering its metric
// families on reg (nil for none), and indexes what it holds. It creates
// nothing but evidence: a tier's directory is made, and flushed into its
// parent, with its first pack, and a pack whose trailer does not decode
// is moved to quarantine/.
func Open(stateDir string, reg *telemetry.Registry) (*Store, error) {
	s := &Store{
		dir:    filepath.Join(stateDir, "cas"),
		state:  stateDir,
		cold:   blockdev.EBSRemote(),
		chunks: map[Digest]loc{},
		packs:  map[string]*packFile{},
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.fetchLocal = reg.Histogram("faasnap_cas_fetch_seconds",
		"Chunk fetch latency by serving tier (cold-tier latency is the modeled remote-device cost).",
		telemetry.L("tier", "local"))
	s.fetchCold = reg.Histogram("faasnap_cas_fetch_seconds",
		"Chunk fetch latency by serving tier (cold-tier latency is the modeled remote-device cost).",
		telemetry.L("tier", "cold"))
	s.dedupHits = reg.Counter("faasnap_cas_put_dedup_hits_total",
		"Chunk puts that found their digest already stored.", nil)
	s.quarantined = reg.Counter("faasnap_cas_chunk_quarantined_total",
		"Chunks whose bytes failed digest verification and were quarantined.", nil)
	s.chunksLocal = reg.Gauge("faasnap_cas_chunks",
		"Chunks stored, by tier.", telemetry.L("tier", "local"))
	s.chunksCold = reg.Gauge("faasnap_cas_chunks",
		"Chunks stored, by tier.", telemetry.L("tier", "cold"))
	s.bytesLocal = reg.Gauge("faasnap_cas_bytes",
		"On-disk chunk bytes, by tier (cold is compressed).", telemetry.L("tier", "local"))
	s.bytesCold = reg.Gauge("faasnap_cas_bytes",
		"On-disk chunk bytes, by tier (cold is compressed).", telemetry.L("tier", "cold"))
	return s, s.load()
}

// load indexes the packs of both tiers; install settles which copy of a
// chunk two packs hold is served.
func (s *Store) load() error {
	for _, dir := range []string{localDir, coldDir} {
		des, err := atomicfile.ReadDir(filepath.Join(s.dir, dir))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		for _, de := range des {
			num, ok := strings.CutSuffix(de.Name(), ".pack")
			seq, err := strconv.ParseUint(num, 16, 64)
			if !ok || len(num) != 16 || err != nil {
				continue // a temp file: sweep fodder
			}
			s.seq.Store(max(s.seq.Load(), seq))
			name := dir + "/" + de.Name()
			info, err := de.Info()
			if err != nil {
				return err
			}
			f, err := atomicfile.Open(s.path(name))
			if err != nil {
				return err
			}
			entries, err := decodeTrailer(f, info.Size())
			f.Close()
			if err != nil {
				if _, err := atomicfile.Quarantine(s.state, "pack-"+de.Name(), s.path(name), nil); err != nil {
					return err
				}
				s.quarantined.Inc()
				continue
			}
			s.install(name, info.Size(), entries)
		}
	}
	return nil
}

func (s *Store) path(pack string) string { return filepath.Join(s.dir, pack) }

// edit changes the index under its lock, then the gauges.
func (s *Store) edit(change func()) {
	s.imu.Lock()
	change()
	s.imu.Unlock()
	s.refreshGauges()
}

// install indexes a committed pack: each chunk is served from it unless
// a higher-numbered pack of either tier holds it. A copy always lands in
// a pack numbered after its source's, so the newest copy is served, at
// run time and at Open alike.
func (s *Store) install(name string, size int64, entries []entry) {
	s.edit(func() {
		s.packs[name] = &packFile{size: size, entries: entries}
		for _, e := range entries {
			if l, ok := s.chunks[e.d]; !ok || path.Base(l.pack) < path.Base(name) {
				s.chunks[e.d] = loc{name, e.off, e.n}
			}
		}
	})
}

func (s *Store) lookup(d Digest) (loc, bool) {
	s.imu.RLock()
	defer s.imu.RUnlock()
	l, ok := s.chunks[d]
	return l, ok
}

// Has reports whether the digest is stored in either tier.
func (s *Store) Has(d Digest) bool {
	_, ok := s.lookup(d)
	return ok
}

// Digests lists every chunk the store serves, in no particular order.
func (s *Store) Digests() []Digest {
	s.imu.RLock()
	defer s.imu.RUnlock()
	out := make([]Digest, 0, len(s.chunks))
	for d := range s.chunks {
		out = append(out, d)
	}
	return out
}

// Put stores data under its own digest as a one-chunk pack, returning
// the digest and whether it was already present (a dedup hit).
func (s *Store) Put(data []byte) (Digest, bool, error) {
	p := s.NewPack()
	d, existed, err := p.Put(data)
	if _, cerr := p.Commit(); err == nil {
		err = cerr
	}
	return d, existed, err
}

// PutDigest stores data that must hash to d as a one-chunk pack; see
// Pack.PutDigest.
func (s *Store) PutDigest(d Digest, data []byte) (bool, error) {
	p := s.NewPack()
	existed, err := p.PutDigest(d, data)
	if _, cerr := p.Commit(); err == nil {
		err = cerr
	}
	return existed, err
}

// Get returns a chunk's bytes and the tier that served it, verifying
// the content against the digest. A mismatch quarantines the chunk and
// returns ErrCorrupt — damaged content is evidence, never a response.
// Cold-tier reads decompress and report the modeled remote-fetch
// latency on the tier's histogram.
func (s *Store) Get(d Digest) ([]byte, Tier, error) { return s.get(d, new([]byte)) }

// Serve is Get into a pooled buffer: fn is called with the verified
// bytes, which are reused once it returns.
func (s *Store) Serve(d Digest, fn func(data []byte, tier Tier)) error {
	bp, _ := s.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer s.bufs.Put(bp)
	data, tier, err := s.get(d, bp)
	if err != nil {
		return err
	}
	fn(data, tier)
	return nil
}

// get is Get into *buf, grown if short.
func (s *Store) get(d Digest, buf *[]byte) ([]byte, Tier, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	start := time.Now()
	l, ok := s.lookup(d)
	if !ok {
		return nil, TierLocal, fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	stored, data, err := s.read(d, l, buf)
	if err != nil {
		return nil, l.tier(), err
	}
	if l.tier() == TierCold {
		// The modeled remote device: per-request latency plus the
		// compressed payload over the profile's bandwidth.
		s.fetchCold.Observe(s.cold.Latency +
			time.Duration(float64(len(stored))/float64(s.cold.Bandwidth)*float64(time.Second)))
	} else {
		s.fetchLocal.Observe(time.Since(start))
	}
	return data, l.tier(), nil
}

// read is the one read of a chunk: it reads d's section at l, into *buf
// if local, grown if short, inflates it into *buf if cold, and verifies
// it. It returns the section as stored and the chunk's bytes. A section
// that does not verify is copied into quarantine/ and its chunk dropped
// from the index (ErrCorrupt); a pack that is gone makes its chunks
// absent (readErr). Caller holds mu.
func (s *Store) read(d Digest, l loc, buf *[]byte) (stored, data []byte, err error) {
	cold := l.tier() == TierCold
	if cold {
		stored = make([]byte, l.n)
	} else {
		if int64(cap(*buf)) < l.n {
			*buf = make([]byte, l.n)
		}
		stored = (*buf)[:l.n]
	}
	f, err := atomicfile.Open(s.path(l.pack))
	if err == nil {
		err = readAt(f, stored, l.off)
		f.Close()
	}
	if err != nil {
		return nil, nil, s.readErr(d, l, err)
	}
	data = stored
	if cold {
		out := bytes.NewBuffer((*buf)[:0])
		fr := flate.NewReader(bytes.NewReader(stored))
		_, err = out.ReadFrom(fr)
		fr.Close()
		data, *buf = out.Bytes(), out.Bytes()
	}
	if err != nil || Sum(data) != d {
		s.quarantine(d, l, stored)
		return nil, nil, fmt.Errorf("%w: %s (%s tier)", ErrCorrupt, d, l.tier())
	}
	return stored, data, nil
}

// readErr reports a failed read of d at l. A pack that is gone was lost
// out of band: the index forgets what it said the pack held, and d is
// absent. Any other failure (EACCES, I/O error) of a present chunk is a
// read failure, not absence.
func (s *Store) readErr(d Digest, l loc, err error) error {
	if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("casstore: read chunk %s: %w", d, err)
	}
	s.edit(func() {
		for dd, ll := range s.chunks {
			if ll.pack == l.pack {
				delete(s.chunks, dd)
			}
		}
		delete(s.packs, l.pack)
	})
	return fmt.Errorf("%w: %s", ErrNotFound, d)
}

// quarantine preserves the section of a chunk that failed verification,
// as stored, under the state directory's quarantine/, beside snapfiles
// and torn journal tails, and drops the chunk from the index; its pack
// is left for GC to rewrite.
func (s *Store) quarantine(d Digest, l loc, stored []byte) {
	if _, err := atomicfile.Quarantine(s.state, "chunk-"+d.String(), "", stored); err != nil {
		return
	}
	s.edit(func() {
		if s.chunks[d] == l {
			delete(s.chunks, d)
		}
	})
	s.quarantined.Inc()
	if fn := s.onQuarantine.Load(); fn != nil {
		(*fn)(d, l.tier())
	}
}

// Demote moves a local chunk to the cold tier, compressed, as a
// one-chunk cold pack, and removes its local pack if the index serves
// nothing else from it. Used for chunks outside every live loading set —
// the long tail a restore only needs lazily, which can pay the remote
// fetch cost. A chunk found corrupt on the way is quarantined, and
// Demote reports it not found.
func (s *Store) Demote(d Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.lookup(d)
	if ok && l.tier() == TierCold {
		return nil
	}
	n, _, err := s.repack(coldDir, []Digest{d})
	if err == nil && n == 0 {
		err = fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	if keep, _ := s.serving(l.pack); err == nil && len(keep) == 0 {
		err = s.removePack(l.pack)
	}
	return err
}

// repack reads each chunk of ds where the index finds it and commits them
// as one new pack in dir, compressed when a local chunk goes cold; the
// commit then points the index at them, so a crash before it leaves
// each chunk where it was. A chunk a read finds corrupt or gone is left
// out, and so is one a demotion cannot read, which stays local: its read
// error is returned once the rest are committed. Any other failure
// commits nothing. It returns how many chunks the new pack holds and its
// size. Caller holds mu.
func (s *Store) repack(dir string, ds []Digest) (int, int64, error) {
	p, buf := s.newPack(dir), new([]byte)
	var skipped error
	for _, d := range ds {
		l, ok := s.lookup(d)
		if !ok {
			continue // its pack was found gone on the way
		}
		demoting := dir == coldDir && l.tier() == TierLocal
		stored, data, err := s.read(d, l, buf)
		switch {
		case errors.Is(err, ErrCorrupt), errors.Is(err, ErrNotFound):
			continue
		case err != nil && demoting:
			skipped = errors.Join(skipped, err) // it stays local
			continue
		case err != nil:
			p.err = err // commit aborts the pack and returns it
		case demoting:
			stored = deflate(data)
		}
		if p.append(d, stored) != nil {
			break
		}
	}
	n, size, err := p.commit()
	if err != nil {
		return 0, 0, err
	}
	return n, size, skipped
}

// deflate compresses a chunk for the cold tier.
func deflate(raw []byte) []byte {
	var comp bytes.Buffer
	zw, _ := flate.NewWriter(&comp, flate.BestSpeed) // fails only on a bad level
	zw.Write(raw)                                    // a bytes.Buffer takes every write
	zw.Close()
	return comp.Bytes()
}

// serving returns the digests of the chunks the index serves from pack
// name, and the pack (nil if the index no longer knows it).
func (s *Store) serving(name string) (keep []Digest, p *packFile) {
	s.imu.RLock()
	defer s.imu.RUnlock()
	if p = s.packs[name]; p == nil {
		return nil, nil
	}
	for _, e := range p.entries {
		if s.chunks[e.d] == (loc{name, e.off, e.n}) {
			keep = append(keep, e.d)
		}
	}
	return keep, p
}

// removePack deletes a pack the index serves nothing from.
func (s *Store) removePack(name string) error {
	s.edit(func() { delete(s.packs, name) })
	return atomicfile.Remove(s.path(name))
}

// Stats reports the store's physical occupancy from the index: chunks
// by tier, and each tier's packs' size on disk, trailers included.
func (s *Store) Stats() Stats {
	s.imu.RLock()
	defer s.imu.RUnlock()
	var n, size [2]int64
	for _, l := range s.chunks {
		n[l.tier()]++
	}
	for name, p := range s.packs {
		size[tierOf(name)] += p.size
	}
	return Stats{n[TierLocal], size[TierLocal], n[TierCold], size[TierCold]}
}

func (s *Store) refreshGauges() {
	st := s.Stats()
	s.chunksLocal.Set(float64(st.LocalChunks))
	s.bytesLocal.Set(float64(st.LocalBytes))
	s.chunksCold.Set(float64(st.ColdChunks))
	s.bytesCold.Set(float64(st.ColdBytes))
}

// GC drops every chunk whose digest live reports false and demotes kept
// local chunks that hot reports false for (nil hot demotes nothing), all
// into one cold pack. Then each pack of either tier holding a byte the
// index does not serve from it — a dead, duplicated, demoted or
// quarantined chunk — is rewritten as a new pack of the rest, or removed
// if there is none, so what GC leaves is exact; a chunk that fails to
// demote stays local, its failure reported at the end. The caller
// computes liveness from the manifest's live entries only — tombstoned
// functions contribute nothing, so an acked delete's chunks are collected
// (unless shared) and can never resurrect.
func (s *Store) GC(live func(Digest) bool, hot func(Digest) bool) (GCResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res GCResult
	var demote []Digest
	var names []string
	// Dead chunks leave the index before any pack goes, so the index
	// never names a chunk that is not on disk.
	s.edit(func() {
		for d, l := range s.chunks {
			switch {
			case !live(d):
				delete(s.chunks, d)
				res.Removed++
			case l.tier() == TierLocal && hot != nil && !hot(d):
				demote = append(demote, d)
				fallthrough
			default:
				res.Kept++
			}
		}
		for name := range s.packs {
			names = append(names, name)
		}
	})
	sort.Slice(demote, func(i, j int) bool { return bytes.Compare(demote[i][:], demote[j][:]) < 0 })
	n, _, demoteErr := s.repack(coldDir, demote)
	res.Demoted = int64(n)
	sort.Strings(names)
	for _, name := range names {
		freed, err := s.compact(name)
		if err != nil {
			return res, errors.Join(demoteErr, err)
		}
		res.ReclaimedBytes += freed
	}
	return res, demoteErr
}

// compact rewrites pack name as a new pack, in its tier, of the chunks
// the index serves from it, or removes it if there are none, and returns
// the bytes that freed. Caller holds mu.
func (s *Store) compact(name string) (int64, error) {
	keep, old := s.serving(name)
	if old == nil || len(keep) == len(old.entries) && len(keep) > 0 {
		return 0, nil
	}
	_, size, err := s.repack(path.Dir(name), keep)
	if err != nil {
		return 0, err
	}
	if err := s.removePack(name); errors.Is(err, fs.ErrNotExist) {
		return 0, nil // lost out of band: nothing freed
	} else if err != nil {
		return 0, err
	}
	return old.size - size, nil
}

// SweepTemp removes leftover temp files — mid-write when the process
// died, never acknowledged. Recovery calls it before serving.
func (s *Store) SweepTemp() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = atomicfile.Walk(s.dir, func(file string, de fs.DirEntry) error {
		if strings.HasSuffix(de.Name(), ".tmp") {
			_ = atomicfile.Remove(file)
		}
		return nil
	})
}
