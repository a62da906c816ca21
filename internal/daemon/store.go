package daemon

// The store: a function's bytes. Every recording is chunked into the
// content-addressed store (internal/casstore) and its snapfile
// (internal/snapfile) carries a chunk map referencing it; a function
// this daemon never recorded is restored by pulling a peer's chunk map
// and only the chunks missing here — loading-set chunks first, in group
// order, per the paper's per-region restore priority, then the rest —
// before the snapshot commits; base extents are filled locally. The
// store owns the chunk store, the snapfile paths, the peer client and
// the chunk-plane gauges, and is the only code that imports either
// package; a daemon without a state directory has no store at all.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/atomicfile"
	"faasnap/internal/casstore"
	"faasnap/internal/chaos"
	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/snapfile"
	"faasnap/internal/telemetry"
)

type (
	chunkMap = snapfile.ChunkMap
	chunkRef = snapfile.ChunkRef
)

type store struct {
	env
	dir string
	cas *casstore.Store
	// live returns every live function's published chunk map: what the
	// sweep may not collect, and the size the store would need with no
	// dedup.
	live func() []*chunkMap
	// peer fetches chunk maps and chunks from peer daemons. Separate from
	// the gateway's client: sync transfers can be large.
	peer *http.Client

	// ops excludes the GC sweep from a record's or sync's chunk-commit →
	// publish window: liveness comes from the published chunk maps, so a
	// sweep running between a writer's chunk commits and its publish
	// would collect the just-written chunks as orphans and the acked
	// snapfile would then reference chunks that no longer exist. Writers
	// hold read; sweeps hold write.
	ops sync.RWMutex
	// base is the table of base extents' digests, one per base image
	// (casstore.Extent → casstore.Digest): filled the first time this
	// daemon hashes an extent, by a record or a sync, lost on restart.
	base sync.Map

	dedup     *telemetry.Gauge
	saved     *telemetry.Counter
	syncs     *telemetry.Counter
	gcRemoved *telemetry.Counter
}

// openStore opens the chunk store under dir and registers the chunk
// plane's metric families.
func openStore(dir string, e env, live func() []*chunkMap) (*store, error) {
	cas, err := casstore.Open(dir, e.telemetry)
	if err != nil {
		return nil, err
	}
	cas.SetOnQuarantine(func(dg casstore.Digest, tier casstore.Tier) {
		e.events.Append(events.Event{
			Type:   events.ChunkQuarantine,
			Fields: map[string]string{"digest": dg.String(), "tier": tier.String()},
		})
	})
	// The peer pool keeps a connection per window slot: the default keeps
	// two per host, so a windowed sync would redial on every chunk.
	peer := http.DefaultTransport.(*http.Transport).Clone()
	peer.MaxIdleConnsPerHost = window
	s := &store{env: e, dir: dir, cas: cas, live: live, peer: &http.Client{Timeout: 30 * time.Second, Transport: peer}}
	s.dedup = s.telemetry.Gauge("faasnap_cas_dedup_ratio",
		"Fraction of logically referenced chunk bytes saved by dedup and compression (1 - physical/logical).", nil)
	s.saved = s.telemetry.Counter("faasnap_cas_restore_bytes_saved_total",
		"Bytes a chunk-level restore did not transfer (already present via dedup, or filled from the base image).", nil)
	s.syncs = s.telemetry.Counter("faasnap_cas_sync_total",
		"Chunk-level restores served for functions this daemon never recorded.", nil)
	s.gcRemoved = s.telemetry.Counter("faasnap_cas_gc_removed_chunks_total",
		"Unreferenced chunks removed by the refcount sweep.", nil)
	// Background-op duration histograms are registered up front so they
	// appear in the scrape before their first observation.
	s.gcSeconds()
	for _, p := range []string{"decode", "eager", "commit"} {
		s.syncSeconds(p)
	}
	return s, nil
}

func (s *store) gcSeconds() *telemetry.Histogram {
	return s.telemetry.Histogram("faasnap_cas_gc_seconds",
		"Wall time of chunk-store garbage-collection sweeps.", nil)
}

// syncSeconds returns the chunk-sync phase histogram for one phase.
func (s *store) syncSeconds(phase string) *telemetry.Histogram {
	return s.telemetry.Histogram("faasnap_cas_sync_seconds",
		"Chunk-level restore wall time by phase (decode, eager fetch, commit).",
		telemetry.L("phase", phase))
}

// need is the failure a chunk route answers with on a daemon that
// keeps no store: a read finds nothing (verb ""), a mutation conflicts.
func (s *store) need(verb string) error {
	switch {
	case s != nil:
		return nil
	case verb == "":
		return failf(http.StatusNotFound, "no state directory; this daemon keeps no chunk store")
	default:
		return failf(http.StatusConflict, "%s requires a state directory", verb)
	}
}

func (s *store) snapPath(name string) string { return filepath.Join(s.dir, name+".snap") }

// logicalBytes sums every live function's chunk-map payload — the size
// the store would need with no dedup.
func (s *store) logicalBytes() int64 {
	var n int64
	for _, cm := range s.live() {
		n += cm.TotalBytes()
	}
	return n
}

// refreshDedup recomputes faasnap_cas_dedup_ratio from the live chunk
// maps and the store's physical footprint, read off its index.
func (s *store) refreshDedup() {
	logical := s.logicalBytes()
	if logical <= 0 {
		s.dedup.Set(0)
		return
	}
	s.dedup.Set(max(0, 1-float64(s.cas.Stats().PhysicalBytes())/float64(logical)))
}

// window is how many chunks the chunk plane moves at once: a record's
// fills and hashes, a sync's fills and fetches.
const window = 4

// inWindow runs do for items 0 to n-1, started in order, at most window
// at a time; worker (< window) names the goroutine an item runs on, so a
// caller can give each its own buffer. The first error starts no further
// item and cancels the ctx of those in flight; inWindow returns it once
// every worker has returned.
func inWindow(ctx context.Context, n int, do func(ctx context.Context, worker, i int) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(window, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				if err := do(ctx, w, i); err != nil {
					cancel(err)
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}

// fill writes ref's extent of arts into *buf, grown if short.
func fill(arts *core.Artifacts, ref chunkRef, buf *[]byte) []byte {
	if int64(cap(*buf)) < ref.Bytes {
		*buf = make([]byte, ref.Bytes)
	}
	return casstore.Fill(arts, ref, *buf)
}

// putSnapshot chunks a recording into the content-addressed store as
// one pack — chunks shared with earlier recordings dedup to nothing, and
// a crash before the snapfile commit leaves only unreferenced chunks for
// the recovery sweep — and returns the save that encodes its snapfile.
// A base extent whose digest the base table holds and the store has is
// neither filled nor hashed; each window worker fills any other extent
// into a buffer of its own and hashes it once, so a recording is never
// held in memory whole.
func (s *store) putSnapshot(arts *core.Artifacts) (save func(path string) error, err error) {
	cm := casstore.PlanChunks(arts, 0)
	pack := s.cas.NewPack()
	bufs := make([][]byte, window)
	err = inWindow(context.Background(), len(cm.Refs), func(_ context.Context, w, i int) error {
		ref := &cm.Refs[i]
		ext, base := casstore.BaseExtent(arts, *ref)
		if dg, ok := s.base.Load(ext); base && ok && s.cas.Has(dg.(casstore.Digest)) {
			ref.Digest = dg.(casstore.Digest)
			return nil
		}
		dg, _, err := pack.Put(fill(arts, *ref, &bufs[w]))
		if base && err == nil {
			s.base.Store(ext, dg)
		}
		ref.Digest = dg
		return err
	})
	if _, cerr := pack.Commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("persist chunks: %w", err)
	}
	return func(path string) error { return snapfile.SaveChunked(path, arts, cm) }, nil
}

// writeSnapfile commits name's snapfile — an encode of the recorded
// artifacts, or a peer's raw bytes — and reads it back. What is read
// back is what gets deployed, so what serves is exactly what disk holds;
// a snapshot that cannot pass its own checksum is quarantined.
func (s *store) writeSnapfile(name string, save func(path string) error) (*core.Artifacts, *chunkMap, error) {
	path := s.snapPath(name)
	if err := save(path); err != nil {
		return nil, nil, fmt.Errorf("persist snapshot: %w", err)
	}
	arts, chunks, err := snapfile.LoadChunked(path)
	if err != nil {
		s.quarantine(name+".snap", err)
		return nil, nil, fmt.Errorf("snapshot failed verification: %w", err)
	}
	return arts, chunks, nil
}

// load reads and verifies name's snapfile in a single streaming pass
// (chunk map included), applying any armed chaos storage fault, and
// checks the chunk map against the store. A missing loading-set chunk
// makes the snapshot unusable (the eager restore path would stall), so
// it is an error; other missing chunks — quarantined on read, or in a
// pack lost out of band — are tolerated: the snapshot still serves, the
// deficit is reported as chunks_missing in GET /status, and the
// gateway's anti-entropy pass re-pulls it with a chunk sync from a
// complete replica.
func (s *store) load(name string) (*core.Artifacts, *chunkMap, error) {
	arts, cm, err := s.decode(name)
	if err != nil {
		return nil, nil, err
	}
	var missing int
	for _, ref := range cm.Refs {
		if s.cas.Has(casstore.Digest(ref.Digest)) {
			continue
		}
		if ref.LS {
			return nil, nil, fmt.Errorf("loading-set chunk %x missing from store", ref.Digest[:8])
		}
		missing++
	}
	if missing > 0 {
		s.log.Printf("recovery: %s is missing %d chunks outside its loading set (reported as chunks_missing; anti-entropy re-syncs them)", name, missing)
	}
	return arts, cm, nil
}

// decode reads name's snapfile. When the snapfile chaos rule fires it
// damages the bytes in transit — the middle byte flipped, or the file
// cut in half — before decoding, so the checksum and section parsing
// must catch real damage; otherwise the file streams straight through.
func (s *store) decode(name string) (*core.Artifacts, *chunkMap, error) {
	path := s.snapPath(name)
	dec := s.chaos.Eval(chaos.PointSnapfile, name+".snap")
	corrupt, truncate := dec.Is(chaos.KindCorrupt), dec.Is(chaos.KindTruncate)
	if !corrupt && !truncate {
		return snapfile.LoadChunked(path)
	}
	raw, err := atomicfile.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if !corrupt {
		raw = raw[:len(raw)/2]
	} else if len(raw) > 0 {
		raw[len(raw)/2] ^= 0xff
	}
	return snapfile.ReadChunked(bytes.NewReader(raw))
}

// absent counts the refs of cm neither tier of the store can serve, by
// index lookups: the detector of chunks lost to a quarantine or a lost
// pack.
func (s *store) absent(cm *chunkMap) (n int) {
	for _, ref := range cm.Refs {
		if !s.cas.Has(casstore.Digest(ref.Digest)) {
			n++
		}
	}
	return n
}

// remove deletes name's snapfile; its chunks go with the next sweep
// unless shared.
func (s *store) remove(name string) { _ = atomicfile.Remove(s.snapPath(name)) }

// writable is the readiness probe's check that the state directory
// still accepts files.
func (s *store) writable() error { return atomicfile.Writable(s.dir) }

// quarantine moves the state-directory file base, a snapfile that failed
// verification, into the quarantine/ subdirectory: out of the deploy
// path but preserved for inspection.
func (s *store) quarantine(base string, cause error) {
	path := filepath.Join(s.dir, base)
	dst, err := atomicfile.Quarantine(s.dir, base, path, nil)
	if err != nil {
		s.log.Printf("quarantine %s: %v", path, err)
		return
	}
	s.telemetry.Counter("faasnap_snapfile_quarantined_total",
		"Snapshot files that failed verification and were quarantined.", nil).Inc()
	s.events.Append(events.Event{
		Type:     events.SnapfileQuarantine,
		Function: strings.TrimSuffix(base, ".snap"),
		Fields:   map[string]string{"cause": cause.Error()},
	})
	s.log.Printf("quarantined corrupt snapfile %s -> %s: %v", path, dst, cause)
}

// sweepDir removes leftover temp files and quarantines orphan snapfiles
// — a .snap the journal holds no snapshot for (journaled reports that)
// was committed by a writer that died before journaling, i.e. an
// unacknowledged write.
func (s *store) sweepDir(journaled func(fn string) bool) {
	entries, err := atomicfile.ReadDir(s.dir)
	if err != nil {
		s.log.Printf("state dir sweep: %v", err)
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, ".tmp"):
			// Temp files are mid-write by definition: never acknowledged,
			// safe to drop.
			_ = atomicfile.Remove(filepath.Join(s.dir, name))
		case strings.HasSuffix(name, ".snap"):
			if fn := strings.TrimSuffix(name, ".snap"); !journaled(fn) {
				s.quarantine(name, fmt.Errorf("snapfile %s has no manifest record (crash between snapshot commit and journal append)", fn))
			}
		}
	}
}

// serve hands one chunk's verified bytes and the tier that held them, by
// hex digest, to fn, in a buffer reused once fn returns. Corrupt chunks
// have been quarantined by the store by the time the error surfaces —
// they are never served; a peer retries elsewhere or re-records.
func (s *store) serve(digest string, fn func(data []byte, tier string)) error {
	dg, err := casstore.ParseDigest(digest)
	if err != nil {
		return failf(http.StatusBadRequest, "%v", err)
	}
	err = s.cas.Serve(dg, func(data []byte, tier casstore.Tier) { fn(data, tier.String()) })
	switch {
	case err == nil:
		return nil
	case errors.Is(err, casstore.ErrCorrupt):
		return failf(http.StatusInternalServerError, "chunk %s failed verification and was quarantined", dg)
	default:
		return failf(http.StatusNotFound, "chunk %s not stored here", dg)
	}
}

// ChunkRefJSON is one chunk-map entry in API responses.
type ChunkRefJSON struct {
	Digest     string `json:"digest"`
	StartPage  int64  `json:"start_page"`
	Pages      int64  `json:"pages"`
	Bytes      int64  `json:"bytes"`
	LoadingSet bool   `json:"loading_set"`
	Group      int64  `json:"group"`
}

// ChunkMapResponse is GET /functions/{name}/chunkmap: everything a
// peer needs to restore the function — the raw snapfile (metadata +
// chunk map, CRC intact) and the refs to fetch. With ?summary=1 the
// refs and snapfile are omitted.
type ChunkMapResponse struct {
	Function    string `json:"function"`
	RecordInput string `json:"record_input"`
	// Generation is this daemon's journaled generation for the function:
	// what a peer syncing from here adopts as its own.
	Generation uint64         `json:"generation"`
	ChunkPages int64          `json:"chunk_pages"`
	ChunkCount int            `json:"chunk_count"`
	TotalBytes int64          `json:"total_bytes"`
	LSBytes    int64          `json:"ls_bytes"`
	Chunks     []ChunkRefJSON `json:"chunks,omitempty"`
	Snapfile   []byte         `json:"snapfile,omitempty"`
}

// export describes name's published chunk map for a peer; unless summary
// it attaches the refs and the snapfile as it sits on disk.
func (s *store) export(name, input string, generation uint64, cm *chunkMap, summary bool) (ChunkMapResponse, error) {
	resp := ChunkMapResponse{
		Function:    name,
		RecordInput: input,
		Generation:  generation,
		ChunkPages:  cm.ChunkPages,
		ChunkCount:  len(cm.Refs),
		TotalBytes:  cm.TotalBytes(),
		LSBytes:     cm.LSBytes(),
	}
	if summary {
		return resp, nil
	}
	var err error
	if resp.Snapfile, err = atomicfile.ReadFile(s.snapPath(name)); err != nil {
		return resp, fmt.Errorf("read snapfile: %w", err)
	}
	resp.Chunks = make([]ChunkRefJSON, 0, len(cm.Refs))
	for _, ref := range cm.Refs {
		resp.Chunks = append(resp.Chunks, ChunkRefJSON{
			Digest:     casstore.Digest(ref.Digest).String(),
			StartPage:  ref.StartPage,
			Pages:      ref.Pages,
			Bytes:      ref.Bytes,
			LoadingSet: ref.LS,
			Group:      ref.Group,
		})
	}
	return resp, nil
}

// maxChunkBytes is the most one chunk transfer may declare.
const maxChunkBytes = 64 << 20

// fetchChunk pulls one chunk from the source into *buf, grown to the
// reply's Content-Length if it is short, and hands it to put, which
// verifies it against its digest before anything commits it; it reports
// the bytes moved and which tier served them. ctx bounds the transfer:
// the sync's request or the daemon's close ending stops it at once
// instead of waiting out a peer that never answers.
func (s *store) fetchChunk(ctx context.Context, source string, dg casstore.Digest, buf *[]byte, put func([]byte) error) (int64, string, error) {
	resp, err := s.peerGet(ctx, source, "/chunks/"+dg.String())
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, "", fmt.Errorf("source answered %d for chunk %s", resp.StatusCode, dg)
	}
	tier, n := resp.Header.Get("X-Faasnap-Chunk-Tier"), resp.ContentLength
	if n < 0 || n > maxChunkBytes {
		return 0, tier, fmt.Errorf("source declared chunk %s as %d bytes, want a Content-Length of at most %d", dg, n, maxChunkBytes)
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	data := (*buf)[:n]
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return 0, tier, err
	}
	return n, tier, put(data)
}

// obtain stores the chunk ref names in pack, deciding where its bytes
// come from. A base extent is filled here, from the base image, and
// stored through PutDigest, which hashes it; the source is asked only
// for any other chunk, or for a base extent whose bytes here do not hash
// to ref's digest. It returns the bytes the source sent and the tier
// that served them, "base" for a local fill.
func (s *store) obtain(ctx context.Context, source string, arts *core.Artifacts, ref chunkRef, pack *casstore.Pack, buf *[]byte) (int64, string, error) {
	dg := casstore.Digest(ref.Digest)
	put := func(b []byte) error {
		_, err := pack.PutDigest(dg, b)
		return err
	}
	if ext, base := casstore.BaseExtent(arts, ref); base {
		err := put(fill(arts, ref, buf))
		if err == nil {
			s.base.Store(ext, dg)
			return 0, "base", nil
		}
		if !errors.Is(err, casstore.ErrCorrupt) {
			return 0, "", err
		}
	}
	return s.fetchChunk(ctx, source, dg, buf, put)
}

func (s *store) peerGet(ctx context.Context, source, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+source+path, nil)
	if err != nil {
		return nil, err
	}
	return s.peer.Do(req)
}

// syncPlan is a peer's snapshot, decoded, and what restoring it here
// has to move.
type syncPlan struct {
	raw  []byte // the peer's snapfile, byte for byte
	arts *core.Artifacts
	cm   *chunkMap
	// generation is the source's journaled generation for the function;
	// the commit adopts it rather than minting one.
	generation uint64
	// missing chunks are obtained before the commit — loading-set chunks
	// first, lowest group first (the paper's per-region restore
	// priority), then the rest.
	missing []chunkRef
	present int // refs the local store already holds
}

// save commits the snapfile exactly as received.
func (p *syncPlan) save(path string) error { return snapfile.CommitRaw(path, p.raw) }

// planFrom fetches the source's chunk map and snapfile for name and
// decodes it. Every error means the source could not supply a usable
// snapshot; nothing local has been touched yet.
func (s *store) planFrom(ctx context.Context, name, source string) (*syncPlan, error) {
	cmResp, err := s.peerGet(ctx, source, "/functions/"+name+"/chunkmap")
	if err != nil {
		return nil, fmt.Errorf("source chunk map: %w", err)
	}
	var cmr ChunkMapResponse
	err = json.NewDecoder(io.LimitReader(cmResp.Body, 256<<20)).Decode(&cmr)
	io.Copy(io.Discard, io.LimitReader(cmResp.Body, 4096))
	cmResp.Body.Close()
	if cmResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("source has no chunk map for %s (%d)", name, cmResp.StatusCode)
	}
	if err != nil || len(cmr.Snapfile) == 0 {
		return nil, fmt.Errorf("source chunk map undecodable: %v", err)
	}
	if cmr.Generation == 0 {
		return nil, fmt.Errorf("source reports no journaled generation for %s", name)
	}
	// Decode before committing anything: a torn transfer must fail the
	// snapfile CRC here, not after it has a committed name.
	p := &syncPlan{raw: cmr.Snapfile, generation: cmr.Generation}
	if p.arts, p.cm, err = snapfile.ReadChunked(bytes.NewReader(p.raw)); err != nil {
		return nil, fmt.Errorf("source snapfile invalid: %w", err)
	}
	if p.arts.Fn.Name != name {
		return nil, fmt.Errorf("source snapfile is for %q, not %q", p.arts.Fn.Name, name)
	}
	return p, nil
}

// sortMissing sorts the chunks this store is missing into fetch order.
// The caller holds ops for reading from here to the publish of p's chunk
// map, so no sweep collects a chunk counted as present.
func (s *store) sortMissing(p *syncPlan) {
	refs := append([]chunkRef(nil), p.cm.Refs...)
	sort.SliceStable(refs, func(i, j int) bool {
		if refs[i].LS != refs[j].LS {
			return refs[i].LS
		}
		if refs[i].LS && refs[i].Group != refs[j].Group {
			return refs[i].Group < refs[j].Group
		}
		return refs[i].StartPage < refs[j].StartPage
	})
	for _, ref := range refs {
		if s.cas.Has(casstore.Digest(ref.Digest)) {
			p.present++
		} else {
			p.missing = append(p.missing, ref)
		}
	}
}

// groupSpan is one prefetch group's eager fetch on the restore
// waterfall: offsets from the sync's start, the tiers that served, and
// the bytes the source sent.
type groupSpan struct {
	group      int64
	ls         bool
	start, dur time.Duration
	chunks     int
	bytes      int64
	tiers      map[string]bool
}

// fetch obtains refs into one pack, started in sortMissing's order with
// at most a window in flight, commits them, and consumes the results in
// that same order, one waterfall span per prefetch group: that order
// makes each group's chunks contiguous, so the per-group wall time and
// serving tiers land on one row each. It returns the spans, how many
// chunks were filled from the base image and the bytes the source sent.
func (s *store) fetch(ctx context.Context, source string, arts *core.Artifacts, refs []chunkRef, start time.Time) ([]*groupSpan, int, int64, error) {
	type fetched struct {
		began, done time.Duration
		bytes       int64
		tier        string
	}
	got := make([]fetched, len(refs))
	bufs := make([][]byte, window)
	pack := s.cas.NewPack()
	err := inWindow(ctx, len(refs), func(ctx context.Context, w, i int) (err error) {
		f := &got[i]
		f.began = time.Since(start)
		f.bytes, f.tier, err = s.obtain(ctx, source, arts, refs[i], pack, &bufs[w])
		f.done = time.Since(start)
		return err
	})
	if _, cerr := pack.Commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, 0, err
	}
	var groups []*groupSpan
	var base int
	var total int64
	for i, ref := range refs {
		f := got[i]
		var g *groupSpan
		if n := len(groups); n > 0 && groups[n-1].group == ref.Group && groups[n-1].ls == ref.LS {
			g = groups[n-1]
		} else {
			g = &groupSpan{group: ref.Group, ls: ref.LS, start: f.began, tiers: map[string]bool{}}
			groups = append(groups, g)
		}
		if f.tier != "" {
			g.tiers[f.tier] = true
		}
		if f.tier == "base" {
			base++
		}
		g.chunks++
		g.bytes += f.bytes
		g.dur = max(g.dur, f.done-g.start)
		total += f.bytes
	}
	return groups, base, total, nil
}

// GCResponse reports one sweep plus the store's resulting state.
type GCResponse struct {
	casstore.GCResult
	// ChunksExamined is every chunk the sweep judged (kept + removed).
	ChunksExamined int64          `json:"chunks_examined"`
	WallMs         float64        `json:"wall_ms"`
	Stats          casstore.Stats `json:"stats"`
	DedupRatio     float64        `json:"dedup_ratio"`
}

// sweep is the refcount sweep: chunks no live function references are
// removed and, with demote, live chunks outside every loading set move
// to the compressed cold tier. Tombstoned functions are not live, so an
// acked delete's chunks are collected unless shared and can never
// resurrect it. The liveness set and the sweep run under the write side
// of ops: an in-flight record or sync must publish its chunk map (or not
// have committed any chunks yet) before the sweep judges liveness.
func (s *store) sweep(demote bool) (casstore.GCResult, error) {
	s.ops.Lock()
	live, hot := make(map[casstore.Digest]bool), make(map[casstore.Digest]bool)
	for _, cm := range s.live() {
		for _, ref := range cm.Refs {
			live[casstore.Digest(ref.Digest)] = true
			if ref.LS {
				hot[casstore.Digest(ref.Digest)] = true
			}
		}
	}
	var hotFn func(casstore.Digest) bool
	if demote {
		hotFn = func(dg casstore.Digest) bool { return hot[dg] }
	}
	res, err := s.cas.GC(func(dg casstore.Digest) bool { return live[dg] }, hotFn)
	s.ops.Unlock()
	// A failed sweep has still removed what res counts.
	s.gcRemoved.Add(float64(res.Removed))
	s.refreshDedup()
	return res, err
}

// stats returns the store's occupancy and the dedup ratio last computed.
func (s *store) stats() (casstore.Stats, float64) {
	return s.cas.Stats(), s.dedup.Value()
}

// recoverySweep runs after journal replay: temp chunks from a writer
// that died mid-commit are dropped, then unreferenced chunks — orphans
// of a crash between chunk commit and snapfile/journal — are collected.
// No demotion here; recovery stays fast.
func (s *store) recoverySweep() {
	s.cas.SweepTemp()
	res, err := s.sweep(false)
	if err != nil {
		s.log.Printf("recovery cas sweep: %v", err)
		return
	}
	if res.Removed > 0 {
		s.log.Printf("recovery cas sweep: removed %d orphan chunks (%d bytes)", res.Removed, res.ReclaimedBytes)
	}
}

// CASResponse is GET /cas: the store's occupancy and dedup accounting.
type CASResponse struct {
	Stats             casstore.Stats `json:"stats"`
	LogicalBytes      int64          `json:"logical_bytes"`
	DedupRatio        float64        `json:"dedup_ratio"`
	RestoreBytesSaved int64          `json:"restore_bytes_saved"`
}

func (s *store) report() CASResponse {
	s.refreshDedup()
	return CASResponse{
		Stats:             s.cas.Stats(),
		LogicalBytes:      s.logicalBytes(),
		DedupRatio:        s.dedup.Value(),
		RestoreBytesSaved: int64(s.saved.Value()),
	}
}
