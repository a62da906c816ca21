// Package casstore is a content-addressed chunk store for snapshot
// artifacts. Snapshot memory content is cut into fixed-size,
// page-aligned extents addressed by SHA-256 (see chunks.go); each
// distinct chunk is stored once, so functions recorded from a shared
// base image (guest kernel, runtime) share their common pages on disk
// and over the wire — the dedup/lazy-chunk design of the snapshot
// optimization literature applied under FaaSnap's loading sets.
//
// Chunks live in two tiers under <state-dir>/cas:
//
//	packs/<seq>.pack         local tier: the chunks one record, sync or
//	                         GC rewrite added, back to back, and a
//	                         trailer listing them (pack.go)
//	cold/<aa>/<digest>.z     cold tier: one DEFLATE-compressed file per
//	                         chunk, modeled remote latency
//	                         (internal/blockdev profile)
//
// A pack commit is the same durable write as a snapfile's (one temp
// file, one fsync, one rename, one directory fsync), and its chunks join
// the in-memory index (digest → pack section, or cold file) only once it
// is done; Open rebuilds the index from the pack trailers, whose CRC
// catches a trailer that rotted, and the cold tier's names. Get reads
// one section and re-verifies it against its digest: a chunk that
// rotted on disk is copied into quarantine/ and dropped from the index,
// never served.
//
// The store is refcount-free on the write path: chunks are shared, so
// deletes only remove references (snapfiles); GC takes the live digest
// set from the caller — computed from the manifest's live chunk maps,
// honoring delete tombstones — and drops everything else. A pack holding
// any byte the index does not serve from it (a dead, duplicated,
// demoted or quarantined chunk) is removed, or rewritten as a new pack,
// so what GC leaves is exact and reads the same after a restart.
package casstore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
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
	seq    atomic.Uint64 // the last pack number taken
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

// loc is where the index finds a chunk: a section of a pack, or (pack "")
// a cold-tier file of n compressed bytes.
type loc struct {
	pack   string
	off, n int64
}

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
// nothing but evidence: a tier's directories are made, and flushed into
// their parents, with its first chunk, and a pack whose trailer does not
// decode is moved to quarantine/.
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

// load indexes the packs in name order, so the newest copy of a chunk
// wins, then the cold tier, which wins over any pack: a chunk demoted
// before a crash is cold, whatever copy a pack still holds.
func (s *Store) load() error {
	des, err := atomicfile.ReadDir(s.localDir())
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
		path := s.packPath(de.Name())
		info, err := de.Info()
		if err != nil {
			return err
		}
		f, err := atomicfile.Open(path)
		if err != nil {
			return err
		}
		entries, err := decodeTrailer(f, info.Size())
		f.Close()
		if err != nil {
			if _, err := atomicfile.Quarantine(s.state, "pack-"+de.Name(), path, nil); err != nil {
				return err
			}
			s.quarantined.Inc()
			continue
		}
		s.install(de.Name(), info.Size(), entries)
	}
	err = atomicfile.Walk(s.coldDir(), func(path string, de fs.DirEntry) error {
		d, perr := ParseDigest(strings.TrimSuffix(de.Name(), ".z"))
		if info, ierr := de.Info(); perr == nil && ierr == nil {
			s.chunks[d] = loc{n: info.Size()} // nothing else holds s yet
		}
		return nil
	})
	s.refreshGauges()
	return err
}

func (s *Store) localDir() string { return filepath.Join(s.dir, "packs") }
func (s *Store) coldDir() string  { return filepath.Join(s.dir, "cold") }

func (s *Store) packPath(name string) string { return filepath.Join(s.localDir(), name) }

func (s *Store) coldPath(d Digest) string {
	h := d.String()
	return filepath.Join(s.coldDir(), h[:2], h+".z")
}

// edit changes the index under its lock, then the gauges.
func (s *Store) edit(change func()) {
	s.imu.Lock()
	change()
	s.imu.Unlock()
	s.refreshGauges()
}

// install indexes a committed pack: each chunk is served from it unless
// the cold tier holds that chunk.
func (s *Store) install(name string, size int64, entries []entry) {
	s.edit(func() {
		s.packs[name] = &packFile{size: size, entries: entries}
		for _, e := range entries {
			if l, ok := s.chunks[e.d]; !ok || l.pack != "" {
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
func (s *Store) Get(d Digest) ([]byte, Tier, error) { return s.read(d, nil) }

// Serve is Get into a pooled buffer: fn is called with the verified
// bytes, which are reused once it returns.
func (s *Store) Serve(d Digest, fn func(data []byte, tier Tier)) error {
	bp, _ := s.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer s.bufs.Put(bp)
	data, tier, err := s.read(d, *bp)
	if err != nil {
		return err
	}
	*bp = data
	fn(data, tier)
	return nil
}

// read is Get into buf, grown if short.
func (s *Store) read(d Digest, buf []byte) ([]byte, Tier, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	start := time.Now()
	l, ok := s.lookup(d)
	if !ok {
		return nil, TierLocal, fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	if l.pack == "" {
		return s.readCold(d, l, buf)
	}
	raw, err := s.section(l, &buf)
	if err != nil {
		return nil, TierLocal, s.readErr(d, l, err)
	}
	if Sum(raw) != d {
		s.quarantine(d, l, raw)
		return nil, TierLocal, fmt.Errorf("%w: %s (local tier)", ErrCorrupt, d)
	}
	s.fetchLocal.Observe(time.Since(start))
	return raw, TierLocal, nil
}

// section reads l's bytes from its pack into *buf, grown if short.
func (s *Store) section(l loc, buf *[]byte) ([]byte, error) {
	if int64(cap(*buf)) < l.n {
		*buf = make([]byte, l.n)
	}
	raw := (*buf)[:l.n]
	f, err := atomicfile.Open(s.packPath(l.pack))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return raw, readAt(f, raw, l.off)
}

func (s *Store) readCold(d Digest, l loc, buf []byte) ([]byte, Tier, error) {
	comp, err := atomicfile.ReadFile(s.coldPath(d))
	if err != nil {
		return nil, TierCold, s.readErr(d, l, err)
	}
	out := bytes.NewBuffer(buf[:0])
	fr := flate.NewReader(bytes.NewReader(comp))
	_, err = out.ReadFrom(fr)
	fr.Close()
	if err != nil || Sum(out.Bytes()) != d {
		s.quarantine(d, l, nil)
		return nil, TierCold, fmt.Errorf("%w: %s (cold tier)", ErrCorrupt, d)
	}
	// The modeled remote device: per-request latency plus the
	// compressed payload over the profile's bandwidth.
	s.fetchCold.Observe(s.cold.Latency +
		time.Duration(float64(len(comp))/float64(s.cold.Bandwidth)*float64(time.Second)))
	return out.Bytes(), TierCold, nil
}

// readErr reports a failed read of d at l. A file that is gone was lost
// out of band: the index forgets what it said the file held, and d is
// absent. Any other failure (EACCES, I/O error) of a present chunk is a
// read failure, not absence.
func (s *Store) readErr(d Digest, l loc, err error) error {
	if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("casstore: read chunk %s: %w", d, err)
	}
	s.edit(func() {
		for dd, ll := range s.chunks {
			if dd == d || l.pack != "" && ll.pack == l.pack {
				delete(s.chunks, dd)
			}
		}
		delete(s.packs, l.pack)
	})
	return fmt.Errorf("%w: %s", ErrNotFound, d)
}

// quarantine preserves a chunk that failed verification under the state
// directory's quarantine/, beside snapfiles and torn journal tails, and
// drops it from the index: a cold file is moved there, a pack section's
// bytes, raw, copied, and the pack left for GC to rewrite.
func (s *Store) quarantine(d Digest, l loc, raw []byte) {
	tier, src := TierLocal, ""
	if l.pack == "" {
		tier, src = TierCold, s.coldPath(d)
	}
	if _, err := atomicfile.Quarantine(s.state, "chunk-"+d.String(), src, raw); err != nil {
		return
	}
	s.edit(func() {
		if s.chunks[d] == l {
			delete(s.chunks, d)
		}
	})
	s.quarantined.Inc()
	if fn := s.onQuarantine.Load(); fn != nil {
		(*fn)(d, tier)
	}
}

// Demote moves a local chunk to the cold tier, compressed, and removes
// its pack if the index serves nothing else from it. Used for chunks
// outside every live loading set — the long tail a restore only needs
// lazily, which can pay the remote fetch cost.
func (s *Store) Demote(d Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.lookup(d)
	switch {
	case !ok:
		return fmt.Errorf("%w: %s", ErrNotFound, d)
	case l.pack == "":
		return nil // already cold
	}
	if err := s.demote(d, l, new([]byte)); err != nil {
		return err
	}
	if keep, _ := s.serving(l.pack); len(keep) == 0 {
		return s.removePack(l.pack)
	}
	return nil
}

// demote commits d's cold copy, then points the index at it: a crash
// before that leaves the chunk in its pack. Caller holds mu.
func (s *Store) demote(d Digest, l loc, buf *[]byte) error {
	raw, err := s.section(l, buf)
	if err != nil {
		return err
	}
	if Sum(raw) != d {
		s.quarantine(d, l, raw)
		return fmt.Errorf("%w: %s", ErrCorrupt, d)
	}
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := zw.Write(raw); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	final := s.coldPath(d)
	if err := atomicfile.MkdirAll(filepath.Dir(final)); err != nil {
		return err
	}
	if err := atomicfile.Write(final, func(w io.Writer) error {
		_, err := w.Write(comp.Bytes())
		return err
	}); err != nil {
		return err
	}
	s.edit(func() { s.chunks[d] = loc{n: int64(comp.Len())} })
	return nil
}

// serving returns the entries of pack name the index serves from it,
// and the pack.
func (s *Store) serving(name string) (keep []entry, p *packFile) {
	s.imu.RLock()
	defer s.imu.RUnlock()
	p = s.packs[name]
	for _, e := range p.entries {
		if s.chunks[e.d] == (loc{name, e.off, e.n}) {
			keep = append(keep, e)
		}
	}
	return keep, p
}

// removePack deletes a pack the index serves nothing from.
func (s *Store) removePack(name string) error {
	s.edit(func() { delete(s.packs, name) })
	return atomicfile.Remove(s.packPath(name))
}

// Stats reports the store's physical occupancy from the index: chunks
// by tier, the packs' size on disk and the cold files'.
func (s *Store) Stats() (Stats, error) {
	s.imu.RLock()
	defer s.imu.RUnlock()
	var st Stats
	for _, l := range s.chunks {
		if l.pack == "" {
			st.ColdChunks++
			st.ColdBytes += l.n
		} else {
			st.LocalChunks++
		}
	}
	for _, p := range s.packs {
		st.LocalBytes += p.size
	}
	return st, nil
}

func (s *Store) refreshGauges() {
	st, _ := s.Stats()
	s.chunksLocal.Set(float64(st.LocalChunks))
	s.bytesLocal.Set(float64(st.LocalBytes))
	s.chunksCold.Set(float64(st.ColdChunks))
	s.bytesCold.Set(float64(st.ColdBytes))
}

// GC drops every chunk whose digest live reports false and demotes kept
// local chunks that hot reports false for (nil hot demotes nothing).
// Then each pack holding a byte the index does not serve from it — a
// dead, duplicated, demoted or quarantined chunk — is rewritten as a new
// pack of the rest, or removed if there is none, so what GC leaves is
// exact. The caller computes liveness from the manifest's live entries
// only — tombstoned functions contribute nothing, so an acked delete's
// chunks are collected (unless shared) and can never resurrect.
func (s *Store) GC(live func(Digest) bool, hot func(Digest) bool) (GCResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res GCResult
	var dead, demote []Digest
	var names []string
	// Dead chunks leave the index before any file goes, so the index
	// never names a chunk that is not on disk.
	s.edit(func() {
		for d, l := range s.chunks {
			switch {
			case !live(d):
				delete(s.chunks, d)
				res.Removed++
				if l.pack == "" {
					dead = append(dead, d)
					res.ReclaimedBytes += l.n
				}
			case l.pack != "" && hot != nil && !hot(d):
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
	for _, d := range dead {
		_ = atomicfile.Remove(s.coldPath(d))
	}
	sort.Slice(demote, func(i, j int) bool { return bytes.Compare(demote[i][:], demote[j][:]) < 0 })
	var buf []byte
	for _, d := range demote {
		if l, ok := s.lookup(d); ok && s.demote(d, l, &buf) == nil {
			res.Demoted++
		}
	}
	sort.Strings(names)
	for _, name := range names {
		freed, err := s.compact(name, &buf)
		if err != nil {
			return res, err
		}
		res.ReclaimedBytes += freed
	}
	return res, nil
}

// compact rewrites pack name as a new pack of the chunks the index
// serves from it — each verified on the way, a corrupt one quarantined —
// or removes it if there are none, and returns the bytes that freed.
// Caller holds mu.
func (s *Store) compact(name string, buf *[]byte) (int64, error) {
	keep, old := s.serving(name)
	if len(keep) == len(old.entries) && len(keep) > 0 {
		return 0, nil
	}
	p, size := s.NewPack(), int64(footerSize)
	for _, e := range keep {
		l := loc{name, e.off, e.n}
		raw, err := s.section(l, buf)
		if err == nil && Sum(raw) != e.d {
			s.quarantine(e.d, l, raw)
			continue
		}
		if err == nil {
			err = p.append(e.d, raw)
		}
		if err != nil {
			if p.f != nil {
				p.f.Abort()
			}
			return 0, err
		}
		size += e.n + entrySize
	}
	n, err := p.Commit()
	if err != nil {
		return 0, err
	}
	if n == 0 {
		size = 0
	}
	return old.size - size, s.removePack(name)
}

// SweepTemp removes leftover temp files — mid-write when the process
// died, never acknowledged. Recovery calls it before serving.
func (s *Store) SweepTemp() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = atomicfile.Walk(s.dir, func(path string, de fs.DirEntry) error {
		if strings.HasSuffix(de.Name(), ".tmp") {
			_ = atomicfile.Remove(path)
		}
		return nil
	})
}
