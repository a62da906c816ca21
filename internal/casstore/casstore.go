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
//	chunks/<aa>/<digest>     local tier: raw bytes, fsync-disciplined
//	cold/<aa>/<digest>.z     cold tier: DEFLATE-compressed, modeled
//	                         remote latency (internal/blockdev profile)
//
// A chunk commit is the same durable write as a snapfile's
// (atomicfile.Write): temp-file write, file fsync, rename to the digest
// name, parent-dir fsync. A committed chunk is therefore complete or
// absent — and because the name is the content hash, Get re-verifies
// the digest and quarantines (never serves) a chunk that rotted on disk.
//
// The store is refcount-free on the write path: chunks are shared, so
// deletes only remove references (snapfiles); GC takes the live digest
// set from the caller — computed from the manifest's live chunk maps,
// honoring delete tombstones — and removes everything else.
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

	// mu excludes GC/demotion from concurrent puts and gets; the write
	// path itself is lock-free between rename-based commits.
	mu sync.RWMutex

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
// families on reg (nil for none). It creates nothing: a tier's
// directories are made, and flushed into their parents, with its first
// chunk.
func Open(stateDir string, reg *telemetry.Registry) (*Store, error) {
	s := &Store{
		dir:   filepath.Join(stateDir, "cas"),
		state: stateDir,
		cold:  blockdev.EBSRemote(),
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
	s.refreshGauges()
	return s, nil
}

func (s *Store) localDir() string { return filepath.Join(s.dir, "chunks") }
func (s *Store) coldDir() string  { return filepath.Join(s.dir, "cold") }

func (s *Store) localPath(d Digest) string {
	h := d.String()
	return filepath.Join(s.localDir(), h[:2], h)
}

func (s *Store) coldPath(d Digest) string {
	h := d.String()
	return filepath.Join(s.coldDir(), h[:2], h+".z")
}

// Has reports whether the digest is stored in either tier.
func (s *Store) Has(d Digest) bool {
	return atomicfile.Exists(s.localPath(d)) || atomicfile.Exists(s.coldPath(d))
}

// Put stores data under its own digest — hashed once, here — returning
// the digest and whether it was already present (a dedup hit). The
// commit is atomic and durable; concurrent puts of the same digest are
// benign — both write identical bytes and rename to the same name.
func (s *Store) Put(data []byte) (Digest, bool, error) {
	d := Sum(data)
	existed, err := s.put(d, data)
	return d, existed, err
}

// PutDigest stores data that must hash to d — the receive path for
// chunks fetched from a peer, where a transfer corruption has to be
// rejected before the bytes are committed under a trusted name.
func (s *Store) PutDigest(d Digest, data []byte) (bool, error) {
	if got := Sum(data); got != d {
		return false, fmt.Errorf("%w: payload hashes to %s, expected %s", ErrCorrupt, got, d)
	}
	return s.put(d, data)
}

// put commits data, which hashes to d, under d.
func (s *Store) put(d Digest, data []byte) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.Has(d) {
		s.dedupHits.Inc()
		return true, nil
	}
	final := s.localPath(d)
	if err := atomicfile.MkdirAll(filepath.Dir(final)); err != nil {
		return false, err
	}
	if err := commit(final, data); err != nil {
		return false, err
	}
	s.chunksLocal.Inc()
	s.bytesLocal.Add(float64(len(data)))
	return false, nil
}

// commit makes data durable under path (atomicfile.Write).
func commit(path string, data []byte) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Get returns a chunk's bytes and the tier that served it, verifying
// the content against the digest. A mismatch quarantines the chunk and
// returns ErrCorrupt — damaged content is evidence, never a response.
// Cold-tier reads decompress and report the modeled remote-fetch
// latency on the tier's histogram.
func (s *Store) Get(d Digest) ([]byte, Tier, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	start := time.Now()
	raw, lerr := atomicfile.ReadFile(s.localPath(d))
	if lerr == nil {
		if Sum(raw) != d {
			s.quarantineChunk(s.localPath(d), d, int64(len(raw)), TierLocal)
			return nil, TierLocal, fmt.Errorf("%w: %s (local tier)", ErrCorrupt, d)
		}
		s.fetchLocal.Observe(time.Since(start))
		return raw, TierLocal, nil
	}
	if !errors.Is(lerr, fs.ErrNotExist) {
		// A present-but-unreadable local chunk (EACCES, I/O error) is a
		// read failure, not absence — falling through to the cold tier
		// would misreport it as ErrNotFound.
		return nil, TierLocal, fmt.Errorf("casstore: read chunk %s: %w", d, lerr)
	}
	comp, err := atomicfile.ReadFile(s.coldPath(d))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, TierLocal, fmt.Errorf("%w: %s", ErrNotFound, d)
		}
		return nil, TierCold, fmt.Errorf("casstore: read chunk %s: %w", d, err)
	}
	fr := flate.NewReader(bytes.NewReader(comp))
	raw, err = io.ReadAll(fr)
	fr.Close()
	if err != nil || Sum(raw) != d {
		s.quarantineChunk(s.coldPath(d), d, int64(len(comp)), TierCold)
		return nil, TierCold, fmt.Errorf("%w: %s (cold tier)", ErrCorrupt, d)
	}
	// The modeled remote device: per-request latency plus the
	// compressed payload over the profile's bandwidth.
	s.fetchCold.Observe(s.cold.Latency +
		time.Duration(float64(len(comp))/float64(s.cold.Bandwidth)*float64(time.Second)))
	return raw, TierCold, nil
}

// quarantineChunk moves a failed chunk into the state directory's
// quarantine, beside snapfiles and torn journal tails. Caller holds at
// least the read lock.
func (s *Store) quarantineChunk(path string, d Digest, size int64, tier Tier) {
	if _, err := atomicfile.Quarantine(s.state, "chunk-"+d.String(), path, nil); err != nil {
		return
	}
	s.quarantined.Inc()
	if fn := s.onQuarantine.Load(); fn != nil {
		(*fn)(d, tier)
	}
	if tier == TierCold {
		s.chunksCold.Dec()
		s.bytesCold.Add(-float64(size))
	} else {
		s.chunksLocal.Dec()
		s.bytesLocal.Add(-float64(size))
	}
}

// Demote moves a local chunk to the cold tier, compressed. Used for
// chunks outside every live loading set — the long tail a restore
// only needs lazily, which can pay the remote fetch cost.
func (s *Store) Demote(d Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := atomicfile.ReadFile(s.localPath(d))
	if err != nil {
		if atomicfile.Exists(s.coldPath(d)) {
			return nil // already cold
		}
		return fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	if Sum(raw) != d {
		s.quarantineChunk(s.localPath(d), d, int64(len(raw)), TierLocal)
		return fmt.Errorf("%w: %s", ErrCorrupt, d)
	}
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
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
	// Only after the cold copy is durable — file and directory entry
	// both — does the local copy go; a crash before this point leaves
	// the chunk present in at least one tier.
	if err := commit(final, buf.Bytes()); err != nil {
		return err
	}
	if err := atomicfile.Remove(s.localPath(d)); err != nil {
		return err
	}
	s.chunksLocal.Dec()
	s.bytesLocal.Add(-float64(len(raw)))
	s.chunksCold.Inc()
	s.bytesCold.Add(float64(buf.Len()))
	return nil
}

// tierEntry is one stored chunk found by a walk.
type tierEntry struct {
	digest Digest
	path   string
	size   int64
	tier   Tier
}

// walk lists every committed chunk in both tiers. Temp files and
// undecodable names are skipped — they are sweep fodder, not chunks.
func (s *Store) walk() ([]tierEntry, error) {
	var out []tierEntry
	for _, t := range []struct {
		dir  string
		tier Tier
	}{{s.localDir(), TierLocal}, {s.coldDir(), TierCold}} {
		err := atomicfile.Walk(t.dir, func(path string, de fs.DirEntry) error {
			name := de.Name()
			if strings.HasSuffix(name, ".tmp") {
				return nil
			}
			d, perr := ParseDigest(strings.TrimSuffix(name, ".z"))
			if perr != nil {
				return nil
			}
			info, serr := de.Info()
			if serr != nil {
				return nil
			}
			out = append(out, tierEntry{digest: d, path: path, size: info.Size(), tier: t.tier})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].digest[:], out[j].digest[:]) < 0
	})
	return out, nil
}

// Stats reports the store's physical occupancy by re-walking the tree,
// so it is exact even across restarts.
func (s *Store) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() (Stats, error) {
	entries, err := s.walk()
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for _, e := range entries {
		if e.tier == TierCold {
			st.ColdChunks++
			st.ColdBytes += e.size
		} else {
			st.LocalChunks++
			st.LocalBytes += e.size
		}
	}
	return st, nil
}

// refreshGauges re-derives the occupancy gauges from disk; called at
// open and after GC so restarts report true state.
func (s *Store) refreshGauges() {
	st, err := s.statsLocked()
	if err != nil {
		return
	}
	s.chunksLocal.Set(float64(st.LocalChunks))
	s.bytesLocal.Set(float64(st.LocalBytes))
	s.chunksCold.Set(float64(st.ColdChunks))
	s.bytesCold.Set(float64(st.ColdBytes))
}

// GC removes every chunk whose digest live reports false and demotes
// kept chunks that hot reports false for (nil hot demotes nothing).
// The caller computes liveness from the manifest's live entries only —
// tombstoned functions contribute nothing, so an acked delete's chunks
// are collected (unless shared) and can never resurrect.
func (s *Store) GC(live func(Digest) bool, hot func(Digest) bool) (GCResult, error) {
	s.mu.Lock()
	entries, err := s.walk()
	s.mu.Unlock()
	if err != nil {
		return GCResult{}, err
	}
	var res GCResult
	var demote []Digest
	s.mu.Lock()
	for _, e := range entries {
		if live(e.digest) {
			res.Kept++
			if e.tier == TierLocal && hot != nil && !hot(e.digest) {
				demote = append(demote, e.digest)
			}
			continue
		}
		if err := atomicfile.Remove(e.path); err == nil {
			res.Removed++
			res.ReclaimedBytes += e.size
		}
	}
	s.mu.Unlock()
	for _, d := range demote {
		if err := s.Demote(d); err == nil {
			res.Demoted++
		}
	}
	s.mu.Lock()
	s.refreshGauges()
	s.mu.Unlock()
	return res, nil
}

// SweepTemp removes leftover chunk temp files — mid-write when the
// process died, never acknowledged. Recovery calls it before serving.
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
