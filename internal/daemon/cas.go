package daemon

// Chunk-store integration: every recording is chunked into the
// content-addressed store (internal/casstore) and the snapfile carries
// a chunk map referencing it. The daemon serves the chunk plane —
// GET /chunks/{digest}, GET /functions/{name}/chunkmap — and restores
// functions it never recorded by pulling a peer's chunk map and only
// the chunks it is missing (POST /functions/{name}/sync): loading-set
// chunks eagerly in group order, per the paper's per-region restore
// priority, the rest lazily in the background. POST /gc is the
// refcount sweep: chunks referenced by no live function are removed,
// live chunks outside every loading set are demoted to the compressed
// cold tier.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/casstore"
	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/resilience"
	"faasnap/internal/snapfile"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
)

// syncClient fetches chunk maps and chunks from peer daemons. Separate
// from the gateway's client: sync transfers can be large.
var syncClient = &http.Client{Timeout: 30 * time.Second}

// initCAS opens the chunk store under the state directory and
// registers the daemon-level CAS metric families.
func (d *Daemon) initCAS() error {
	cas, err := casstore.Open(d.cfg.StateDir, d.telemetry)
	if err != nil {
		return err
	}
	d.cas = cas
	d.casDedup = d.telemetry.Gauge("faasnap_cas_dedup_ratio",
		"Fraction of logically referenced chunk bytes saved by dedup and compression (1 - physical/logical).", nil)
	d.casSaved = d.telemetry.Counter("faasnap_cas_restore_bytes_saved_total",
		"Bytes a chunk-level restore did not transfer eagerly (already present via dedup, or deferred to lazy fetch).", nil)
	d.casLazyPending = d.telemetry.Gauge("faasnap_cas_lazy_pending_chunks",
		"Chunks a completed sync still owes to the background lazy fetcher.", nil)
	d.casLazyFailed = d.telemetry.Counter("faasnap_cas_lazy_failed_chunks_total",
		"Lazy chunk fetches abandoned after retries; an abandoned chunk is owned by nobody, so GET /status reports it as chunks_missing for anti-entropy repair.", nil)
	d.casSyncs = d.telemetry.Counter("faasnap_cas_sync_total",
		"Chunk-level restores served for functions this daemon never recorded.", nil)
	d.casGCRemoved = d.telemetry.Counter("faasnap_cas_gc_removed_chunks_total",
		"Unreferenced chunks removed by the refcount sweep.", nil)
	// Background-op duration histograms are registered up front so they
	// appear in the scrape before their first observation.
	d.telemetry.Histogram("faasnap_cas_gc_seconds",
		"Wall time of chunk-store garbage-collection sweeps.", nil)
	for _, p := range []string{"decode", "eager", "commit", "lazy"} {
		d.syncSeconds(p)
	}
	return nil
}

// syncSeconds returns the chunk-sync phase histogram for one phase.
func (d *Daemon) syncSeconds(phase string) *telemetry.Histogram {
	return d.telemetry.Histogram("faasnap_cas_sync_seconds",
		"Chunk-level restore wall time by phase (decode, eager fetch, commit, lazy tail).",
		telemetry.L("phase", phase))
}

// liveChunkSets walks the registry and returns the digests referenced
// by any live function, and the subset referenced by a loading set.
// Tombstoned functions are not in the registry, so an acked delete
// contributes nothing — its chunks are collected unless shared.
func (d *Daemon) liveChunkSets() (live, hot map[casstore.Digest]bool) {
	live = make(map[casstore.Digest]bool)
	hot = make(map[casstore.Digest]bool)
	for _, fs := range d.reg.snapshot() {
		cm := fs.chunkMap()
		if cm == nil {
			continue
		}
		for _, ref := range cm.Refs {
			dg := casstore.Digest(ref.Digest)
			live[dg] = true
			if ref.LS {
				hot[dg] = true
			}
		}
	}
	return live, hot
}

// logicalChunkBytes sums every live function's chunk-map payload — the
// size the store would need with no dedup.
func (d *Daemon) logicalChunkBytes() int64 {
	var n int64
	for _, fs := range d.reg.snapshot() {
		if cm := fs.chunkMap(); cm != nil {
			n += cm.TotalBytes()
		}
	}
	return n
}

// updateDedupGauge recomputes faasnap_cas_dedup_ratio from the live
// chunk maps and the store's physical footprint.
func (d *Daemon) updateDedupGauge() {
	if d.cas == nil {
		return
	}
	logical := d.logicalChunkBytes()
	if logical <= 0 {
		d.casDedup.Set(0)
		return
	}
	st, err := d.cas.Stats()
	if err != nil {
		return
	}
	ratio := 1 - float64(st.PhysicalBytes())/float64(logical)
	if ratio < 0 {
		ratio = 0
	}
	d.casDedup.Set(ratio)
}

// verifyChunks checks a recovered chunk map against the store. A
// missing loading-set chunk makes the snapshot unusable (the eager
// restore path would stall), so it is an error; missing lazy chunks
// are tolerated — a sync target that crashed mid-lazy-fetch still
// serves, the deficit is reported as chunks_missing in GET /status
// (no fetcher survived the crash to own it), and the gateway's
// anti-entropy pass re-pulls the tail with an eager chunk sync from a
// complete replica.
func (d *Daemon) verifyChunks(name string, cm *snapfile.ChunkMap) error {
	var lazyMissing int
	for _, ref := range cm.Refs {
		if d.cas.Has(casstore.Digest(ref.Digest)) {
			continue
		}
		if ref.LS {
			return fmt.Errorf("loading-set chunk %x missing from store", ref.Digest[:8])
		}
		lazyMissing++
	}
	if lazyMissing > 0 {
		d.log.Printf("recovery: %s is missing %d lazy chunks (reported as chunks_missing; anti-entropy re-syncs them)", name, lazyMissing)
	}
	return nil
}

// chunkDeficit splits the refs of name's chunk map that neither tier of
// the local store can serve into the two facts GET /status reports:
// pending — still owed by the function's live lazy fetcher — and
// missing — owned by nobody, so only an anti-entropy re-sync brings
// them back — plus the seq of the manifest_deficit event announcing the
// latter (the true deficit, never a live tail's pending chunks). The
// lstat walk is the out-of-band-loss detector; pending is read before
// it and the fetcher gives a chunk up only after storing it, so a chunk
// resolved mid-walk is counted in pending but not absent: the deficit
// can be transiently under-, never over-reported.
func (d *Daemon) chunkDeficit(name string) (pending, missing int, seq uint64) {
	fs, ok := d.fn(name)
	if !ok {
		return 0, 0, 0
	}
	fs.mu.Lock()
	cm, tail := fs.chunks, fs.tail
	fs.mu.Unlock()
	if cm == nil {
		return 0, 0, 0
	}
	if tail != nil {
		pending = int(tail.pending.Load())
	}
	absent := 0
	for _, ref := range cm.Refs {
		if !d.cas.Has(casstore.Digest(ref.Digest)) {
			absent++
		}
	}
	pending, missing = min(pending, absent), max(0, absent-pending)
	// A deficit is announced when it first appears or its size changes;
	// clearing to zero forgets the episode, so the next is announced afresh.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if missing != fs.deficitN {
		fs.deficitN, fs.deficitSeq = missing, 0
		if missing > 0 {
			fs.deficitSeq = d.events.Append(events.Event{
				Type:     events.ManifestDeficit,
				Function: name,
				Fields:   map[string]string{"chunks_missing": strconv.Itoa(missing)},
			}).Seq
		}
	}
	return pending, missing, fs.deficitSeq
}

// handleChunkGet serves one chunk's bytes. Corrupt chunks have been
// quarantined by the store by the time the error surfaces — they are
// never served; a peer retries elsewhere or re-records.
func (d *Daemon) handleChunkGet(w http.ResponseWriter, r *http.Request) {
	if d.cas == nil {
		writeErr(w, http.StatusNotFound, "no state directory; this daemon keeps no chunk store")
		return
	}
	dg, err := casstore.ParseDigest(r.PathValue("digest"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, tier, err := d.cas.Get(dg)
	switch {
	case err == nil:
	case errors.Is(err, casstore.ErrCorrupt):
		writeErr(w, http.StatusInternalServerError, "chunk %s failed verification and was quarantined", dg)
		return
	default:
		writeErr(w, http.StatusNotFound, "chunk %s not stored here", dg)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Faasnap-Chunk-Tier", tier.String())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
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

func (d *Daemon) handleChunkMap(w http.ResponseWriter, r *http.Request) {
	if d.cas == nil {
		writeErr(w, http.StatusNotFound, "no state directory; this daemon keeps no chunk store")
		return
	}
	name := r.PathValue("name")
	fs, ok := d.fn(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "%v", errNotRegistered)
		return
	}
	// One critical section, the commit's: the generation read here is
	// the one journaled with this chunk map.
	fs.mu.Lock()
	cm := fs.chunks
	input := ""
	if fs.arts != nil {
		input = fs.arts.RecordInput.Name
	}
	me, _ := d.manifest.Get(name)
	fs.mu.Unlock()
	if cm == nil {
		writeErr(w, http.StatusNotFound, "%s has no chunked snapshot", name)
		return
	}
	resp := ChunkMapResponse{
		Function:    name,
		RecordInput: input,
		Generation:  me.Generation,
		ChunkPages:  cm.ChunkPages,
		ChunkCount:  len(cm.Refs),
		TotalBytes:  cm.TotalBytes(),
		LSBytes:     cm.LSBytes(),
	}
	if r.URL.Query().Get("summary") == "" {
		raw, err := os.ReadFile(filepath.Join(d.cfg.StateDir, name+".snap"))
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "read snapfile: %v", err)
			return
		}
		resp.Snapfile = raw
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
	}
	writeJSON(w, http.StatusOK, resp)
}

type syncRequest struct {
	// Source is the peer daemon ("host:port") holding the snapshot.
	Source string `json:"source"`
	// Eager fetches every chunk before replying instead of deferring
	// non-loading-set chunks to the background.
	Eager bool `json:"eager"`
}

// SyncResponse reports one chunk-level restore.
type SyncResponse struct {
	Function      string `json:"function"`
	Source        string `json:"source"`
	ChunksTotal   int    `json:"chunks_total"`
	ChunksFetched int    `json:"chunks_fetched"`
	ChunksPresent int    `json:"chunks_present"`
	ChunksLazy    int    `json:"chunks_lazy"`
	BytesTotal    int64  `json:"bytes_total"`
	BytesFetched  int64  `json:"bytes_fetched"`
	SnapfileBytes int64  `json:"snapfile_bytes"`
	// TraceID identifies the restore's waterfall trace (snapfile decode,
	// per-group eager fetches, commit, lazy tail) in GET /traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// fetchChunk pulls one chunk from the source and commits it under its
// digest, reporting which tier served it; PutDigest rejects transfer
// corruption before commit.
func (d *Daemon) fetchChunk(source string, dg casstore.Digest) (int64, string, error) {
	resp, err := syncClient.Get("http://" + source + "/chunks/" + dg.String())
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, "", fmt.Errorf("source answered %d for chunk %s", resp.StatusCode, dg)
	}
	tier := resp.Header.Get("X-Faasnap-Chunk-Tier")
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, tier, err
	}
	if _, err := d.cas.PutDigest(dg, data); err != nil {
		return 0, tier, err
	}
	return int64(len(data)), tier, nil
}

// syncPlan is a peer's snapshot, decoded, and what restoring it here
// has to move.
type syncPlan struct {
	raw  []byte // the peer's snapfile, byte for byte
	arts *core.Artifacts
	cm   *snapfile.ChunkMap
	// generation is the source's journaled generation for the function;
	// the commit adopts it rather than minting one.
	generation uint64
	// eager chunks are fetched before the reply — loading-set chunks
	// first, lowest group first (the paper's per-region restore
	// priority); lazy ones by the background fetcher afterwards.
	eager, lazy []snapfile.ChunkRef
	present     int // refs the local store already holds
}

// fetchSnapshot fetches the source's chunk map and snapfile for name and
// decodes it. Every error means the source could not supply a usable
// snapshot; nothing local has been touched yet.
func fetchSnapshot(name, source string) (*syncPlan, error) {
	cmResp, err := syncClient.Get("http://" + source + "/functions/" + name + "/chunkmap")
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

// split sorts the chunks this store is missing into eager and lazy.
func (p *syncPlan) split(cas *casstore.Store, eager bool) {
	refs := append([]snapfile.ChunkRef(nil), p.cm.Refs...)
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
		switch {
		case cas.Has(casstore.Digest(ref.Digest)):
			p.present++
		case ref.LS || eager:
			p.eager = append(p.eager, ref)
		default:
			p.lazy = append(p.lazy, ref)
		}
	}
}

// groupSpan is one prefetch group's eager fetch on the restore
// waterfall: offsets from the sync's start, and the tiers that served.
type groupSpan struct {
	group      int64
	ls         bool
	start, dur time.Duration
	chunks     int
	bytes      int64
	tiers      map[string]bool
}

// fetchEager pulls refs from source in order, one waterfall span per
// prefetch group: planSync's order makes each group's chunks
// contiguous, so the per-group wall time and serving tiers land on one
// row each.
func (d *Daemon) fetchEager(source string, refs []snapfile.ChunkRef, start time.Time) ([]*groupSpan, int64, error) {
	var groups []*groupSpan
	var total int64
	for _, ref := range refs {
		var g *groupSpan
		if n := len(groups); n > 0 && groups[n-1].group == ref.Group && groups[n-1].ls == ref.LS {
			g = groups[n-1]
		} else {
			g = &groupSpan{group: ref.Group, ls: ref.LS, start: time.Since(start), tiers: map[string]bool{}}
			groups = append(groups, g)
		}
		n, tier, err := d.fetchChunk(source, casstore.Digest(ref.Digest))
		if err != nil {
			return nil, 0, err
		}
		if tier != "" {
			g.tiers[tier] = true
		}
		g.chunks++
		g.bytes += n
		g.dur = time.Since(start) - g.start
		total += n
	}
	return groups, total, nil
}

// handleSync restores a function this daemon may never have recorded,
// from a peer: fetch and decode the chunk map + raw snapfile, take over
// the function's live lazy fetcher if it has one, keep only the chunks
// missing locally, fetch the eager ones, commit (commitSnapshot — the
// record path's, so every crash-consistency invariant carries over —
// journaling the source's generation, not a new one), reply, then fetch
// the lazy tail in the background.
func (d *Daemon) handleSync(w http.ResponseWriter, r *http.Request) {
	if d.gateRecovering(w) {
		return
	}
	if d.cas == nil {
		writeErr(w, http.StatusConflict, "sync requires a state directory")
		return
	}
	name := r.PathValue("name")
	var req syncRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, "sync needs a source daemon address")
		return
	}
	// The restore mints a waterfall trace, under the id of the gateway's
	// anti-entropy sweep when it sent one.
	start := time.Now()
	traceID := d.traceIDFor(r)

	// A source that cannot supply a usable snapshot fails the sync here,
	// before it has disturbed a fetcher that is draining fine.
	plan, err := fetchSnapshot(name, req.Source)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "%v", err)
		return
	}

	// At most one fetcher per function: stop the live one before splitting,
	// so what it had not fetched yet is planned here and nothing it was
	// fetching is fetched twice. It stays registered, still claiming its
	// remainder as pending, until this sync's commit replaces it — or
	// until this sync fails and its claim is dropped, which is when the
	// remainder becomes missing.
	mu, _ := d.syncLocks.LoadOrStore(name, new(sync.Mutex))
	mu.(*sync.Mutex).Lock()
	defer mu.(*sync.Mutex).Unlock()
	if fs, ok := d.fn(name); ok {
		if prev := fs.haltTail(); prev != nil {
			defer prev.pending.Store(0)
		}
	}

	// Hold the GC sweep off from the moment the plan counts a chunk as
	// present until the registry-published chunk map references it.
	d.casOps.RLock()
	defer d.casOps.RUnlock()
	plan.split(d.cas, req.Eager)
	decodeDur := time.Since(start)
	d.syncSeconds("decode").Observe(decodeDur)

	groups, fetched, err := d.fetchEager(req.Source, plan.eager, start)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "fetch chunk: %v", err)
		return
	}
	commitStart := time.Since(start)
	d.syncSeconds("eager").Observe(commitStart - decodeDur)

	// Chunks durable; commit the snapfile exactly as received, under the
	// function's lock. getOrCreate, never set: a concurrent PUT's entry
	// (and the VM behind it) must survive.
	fs, existed := d.reg.getOrCreate(name, func() *fnState { return &fnState{spec: plan.arts.Fn} })
	var tail *lazyTail
	fs.mu.Lock()
	err = d.commitSnapshot(fs, func(path string) error {
		return snapfile.CommitRaw(path, plan.raw)
	}, func() error {
		return d.manifest.Adopt(name, specJSON(fs.spec), plan.arts.RecordInput.Name, plan.generation)
	})
	if err == nil {
		if len(plan.lazy) > 0 {
			tail = &lazyTail{done: make(chan struct{})}
			// Close halts every fetcher through the daemon-wide parent.
			tail.ctx, tail.halt = context.WithCancel(d.casLazyCtx)
			tail.pending.Store(int64(len(plan.lazy)))
		}
		// Published with the chunk map it fetches for, so GET /status never
		// sees the new map's lazy refs without their owner.
		fs.tail = tail
	}
	fs.mu.Unlock()
	if err != nil {
		// The registry mirrors the journal: an entry this sync created
		// goes again unless its registration was journaled.
		if me, ok := d.manifest.Get(name); !existed && (!ok || me.Deleted) {
			d.reg.removeIf(name, fs)
		}
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	commitDur := time.Since(start) - commitStart
	d.syncSeconds("commit").Observe(commitDur)

	resp := SyncResponse{
		Function:      name,
		Source:        req.Source,
		ChunksTotal:   len(plan.cm.Refs),
		ChunksFetched: len(plan.eager),
		ChunksPresent: plan.present,
		ChunksLazy:    len(plan.lazy),
		BytesTotal:    plan.cm.TotalBytes(),
		BytesFetched:  fetched,
		SnapfileBytes: int64(len(plan.raw)),
		TraceID:       string(traceID),
	}
	tr := syncWaterfall(traceID, resp, time.Since(start), decodeDur, groups, commitStart, commitDur)
	d.traces.Put(tr)

	// Saved = bytes a whole-snapshot copy would have moved now but this
	// restore did not: dedup hits plus the deferred lazy tail.
	d.casSaved.Add(float64(resp.BytesTotal - resp.BytesFetched))
	d.casSyncs.Inc()
	d.updateDedupGauge()
	d.log.Printf("synced %s from %s: %d/%d chunks fetched (%d present, %d lazy), %d of %d bytes",
		name, req.Source, resp.ChunksFetched, resp.ChunksTotal, resp.ChunksPresent, resp.ChunksLazy,
		resp.BytesFetched, resp.BytesTotal)
	acknowledgeCommit(w, resp)

	if tail != nil {
		d.casLazyPending.Add(float64(len(plan.lazy)))
		d.casLazyWG.Add(1)
		go d.lazyTail(name, req.Source, plan.lazy, tail, tr, time.Since(start))
	}
}

// syncWaterfall assembles a restore's waterfall trace: decode → eager
// fetch per prefetch group (tier-labelled) → commit. The lazy tail
// appends its span when the background fetcher drains.
func syncWaterfall(id trace.ID, resp SyncResponse, wall, decodeDur time.Duration, groups []*groupSpan, commitStart, commitDur time.Duration) *trace.Trace {
	tb := trace.NewBuilder(id, "chunk-sync "+resp.Function)
	root := tb.Span("chunk-sync "+resp.Function, "", 0, wall, map[string]string{
		"function": resp.Function,
		"source":   resp.Source,
		"chunks":   strconv.Itoa(resp.ChunksTotal),
	})
	tb.Span("snapfile-decode", root, 0, decodeDur, map[string]string{
		"bytes": strconv.FormatInt(resp.SnapfileBytes, 10),
	})
	for _, g := range groups {
		tiers := make([]string, 0, len(g.tiers))
		for t := range g.tiers {
			tiers = append(tiers, t)
		}
		sort.Strings(tiers)
		tier := "none" // every chunk of the group was already present
		if len(tiers) > 0 {
			tier = strings.Join(tiers, ",")
		}
		tags := map[string]string{
			"group":  strconv.FormatInt(g.group, 10),
			"tier":   tier,
			"chunks": strconv.Itoa(g.chunks),
			"bytes":  strconv.FormatInt(g.bytes, 10),
		}
		if !g.ls {
			tags["eager_tail"] = "true"
		}
		tb.Span("eager-fetch", root, g.start, g.dur, tags)
	}
	tb.Span("commit", root, commitStart, commitDur, nil)
	return tb.Finish()
}

// lazyTail is one function's background chunk fetcher: the owner of the
// chunks a sync deferred. pending is what it still owes — decremented
// per chunk resolved, fetched or abandoned — and is what GET /status
// subtracts from the store walk, so a draining tail is never mistaken
// for a deficit. A fetcher that was halted keeps its claim until the
// sync that halted it commits or gives up.
type lazyTail struct {
	pending atomic.Int64
	ctx     context.Context
	halt    context.CancelFunc
	done    chan struct{}
}

// haltTail stops fs's lazy fetcher, if it has one, and returns it once
// it has exited.
func (fs *fnState) haltTail() *lazyTail {
	fs.mu.Lock()
	t := fs.tail
	fs.mu.Unlock()
	if t != nil {
		t.halt()
		<-t.done
	}
	return t
}

// lazyTail fetches a sync's deferred chunks in the background, then
// re-puts the restore's trace with a lazy-tail span appended and the
// root stretched to cover it — Put overwrites in place, so the
// waterfall behind GET /traces/{id} gains the tail. offset is where on
// the waterfall the tail starts.
func (d *Daemon) lazyTail(name, source string, lazy []snapfile.ChunkRef, t *lazyTail, tr *trace.Trace, offset time.Duration) {
	defer d.casLazyWG.Done()
	defer close(t.done)
	defer t.halt() // releases the context once drained
	began := time.Now()
	fetched, abandoned := d.fetchLazyChunks(name, source, lazy, t)
	dur := time.Since(began)
	d.syncSeconds("lazy").Observe(dur)
	root := *tr.Spans[0]
	root.Duration = (offset + dur).Microseconds()
	spans := append([]*trace.Span{&root}, tr.Spans[1:]...)
	spans = append(spans, &trace.Span{
		TraceID:   tr.ID,
		SpanID:    trace.SpanID(tr.ID, len(tr.Spans)+1),
		ParentID:  root.SpanID,
		Name:      "lazy-tail",
		Timestamp: offset.Microseconds(),
		Duration:  dur.Microseconds(),
		Tags: map[string]string{
			"chunks":    strconv.Itoa(len(lazy)),
			"fetched":   strconv.Itoa(fetched),
			"abandoned": strconv.Itoa(abandoned),
		},
	})
	d.traces.Put(&trace.Trace{ID: tr.ID, Name: tr.Name, Spans: spans})
	if abandoned > 0 {
		d.publishEvent(events.Event{
			Type:     events.LazyAbandoned,
			Function: name,
			TraceID:  string(tr.ID),
			Fields: map[string]string{
				"abandoned": strconv.Itoa(abandoned),
				"source":    source,
			},
		})
	}
}

// fetchLazyChunks pulls a sync's deferred chunks in the background
// until done or halted (shutdown, delete, or a newer sync taking the
// remainder over). Failures are not fatal — the function serves from
// its loading set — but a chunk abandoned here is owned by nobody
// afterwards: GET /status reports it as chunks_missing, which makes the
// gateway's anti-entropy pass issue an eager re-sync from a complete
// replica.
func (d *Daemon) fetchLazyChunks(name, source string, refs []snapfile.ChunkRef, t *lazyTail) (fetched, abandoned int) {
	for i, ref := range refs {
		dg := casstore.Digest(ref.Digest)
		var err error
		// A sibling's sync or a local recording may have stored it since
		// the plan: never fetch what the store holds.
		if !d.cas.Has(dg) {
			err = d.fetchLazyChunk(t.ctx, source, dg)
		}
		if err != nil && t.ctx.Err() != nil {
			// Halted: the remainder is no longer this fetcher's to resolve.
			d.casLazyPending.Add(-float64(len(refs) - i))
			return fetched, abandoned
		}
		if err != nil {
			abandoned++
			d.casLazyFailed.Inc()
			d.log.Printf("lazy chunk fetch for %s: %v (abandoned after %d attempts)", name, err, lazyAttempts)
		} else {
			fetched++
		}
		// Resolved either way — stored, or nobody's from here on. After
		// the store, so chunkDeficit never counts a chunk twice.
		t.pending.Add(-1)
		d.casLazyPending.Dec()
	}
	if abandoned > 0 {
		d.log.Printf("sync of %s left %d lazy chunks unfetched; reported as chunks_missing for anti-entropy re-sync", name, abandoned)
	}
	d.updateDedupGauge()
	return fetched, abandoned
}

const lazyAttempts = 3

// fetchLazyChunk fetches one chunk, retrying transient failures with a
// short backoff; a halt ends it at once.
func (d *Daemon) fetchLazyChunk(ctx context.Context, source string, dg casstore.Digest) error {
	return resilience.Retry(ctx, lazyAttempts, 50*time.Millisecond, nil, func() error {
		_, _, err := d.fetchChunk(source, dg)
		return err
	})
}

type gcRequest struct {
	// Demote moves live chunks outside every loading set to the
	// compressed cold tier.
	Demote bool `json:"demote"`
}

// GCResponse reports one sweep plus the store's resulting state.
type GCResponse struct {
	casstore.GCResult
	// ChunksExamined is every chunk the sweep judged (kept + removed).
	ChunksExamined int64          `json:"chunks_examined"`
	WallMs         float64        `json:"wall_ms"`
	TraceID        string         `json:"trace_id,omitempty"`
	Stats          casstore.Stats `json:"stats"`
	DedupRatio     float64        `json:"dedup_ratio"`
}

// handleGC runs the refcount sweep. Liveness comes from the registry,
// which mirrors the manifest's live entries — tombstoned functions are
// absent, so an acked delete's chunks are unreferenced (unless shared)
// and collected; they can never resurrect a deleted function.
func (d *Daemon) handleGC(w http.ResponseWriter, r *http.Request) {
	if d.gateRecovering(w) {
		return
	}
	if d.cas == nil {
		writeErr(w, http.StatusConflict, "gc requires a state directory")
		return
	}
	var req gcRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	res, err := d.sweepChunks(req.Demote)
	wall := time.Since(start)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "gc: %v", err)
		return
	}
	d.telemetry.Histogram("faasnap_cas_gc_seconds",
		"Wall time of chunk-store garbage-collection sweeps.", nil).Observe(wall)
	st, _ := d.cas.Stats()

	gcTags := map[string]string{
		"examined": strconv.FormatInt(res.Kept+res.Removed, 10),
		"removed":  strconv.FormatInt(res.Removed, 10),
		"demoted":  strconv.FormatInt(res.Demoted, 10),
		"bytes":    strconv.FormatInt(res.ReclaimedBytes, 10),
	}
	tid := d.traces.NextID()
	tb := trace.NewBuilder(tid, "cas-gc")
	tb.Span("cas-gc", "", 0, wall, gcTags)
	d.traces.Put(tb.Finish())
	d.publishEvent(events.Event{Type: events.GCSweep, TraceID: string(tid), Fields: gcTags})

	d.log.Printf("cas gc: removed %d chunks (%d bytes), kept %d, demoted %d in %s",
		res.Removed, res.ReclaimedBytes, res.Kept, res.Demoted, wall)
	writeJSON(w, http.StatusOK, GCResponse{
		GCResult:       res,
		ChunksExamined: res.Kept + res.Removed,
		WallMs:         float64(wall) / float64(time.Millisecond),
		TraceID:        string(tid),
		Stats:          st,
		DedupRatio:     d.casDedup.Value(),
	})
}

// CASResponse is GET /cas: the store's occupancy and dedup accounting.
type CASResponse struct {
	Stats             casstore.Stats `json:"stats"`
	LogicalBytes      int64          `json:"logical_bytes"`
	DedupRatio        float64        `json:"dedup_ratio"`
	RestoreBytesSaved int64          `json:"restore_bytes_saved"`
	LazyPendingChunks int64          `json:"lazy_pending_chunks"`
}

func (d *Daemon) handleCAS(w http.ResponseWriter, r *http.Request) {
	if d.cas == nil {
		writeErr(w, http.StatusNotFound, "no state directory; this daemon keeps no chunk store")
		return
	}
	d.updateDedupGauge()
	st, err := d.cas.Stats()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, CASResponse{
		Stats:             st,
		LogicalBytes:      d.logicalChunkBytes(),
		DedupRatio:        d.casDedup.Value(),
		RestoreBytesSaved: int64(d.casSaved.Value()),
		LazyPendingChunks: int64(d.casLazyPending.Value()),
	})
}

// sweepChunks is the refcount sweep: chunks no live function references
// are removed and, with demote, live chunks outside every loading set
// move to the cold tier. The liveness set and the sweep run under the
// write side of casOps: an in-flight record/sync must publish its chunk
// map (or not have committed any chunks yet) before the sweep judges
// liveness.
func (d *Daemon) sweepChunks(demote bool) (casstore.GCResult, error) {
	d.casOps.Lock()
	live, hot := d.liveChunkSets()
	var hotFn func(casstore.Digest) bool
	if demote {
		hotFn = func(dg casstore.Digest) bool { return hot[dg] }
	}
	res, err := d.cas.GC(func(dg casstore.Digest) bool { return live[dg] }, hotFn)
	d.casOps.Unlock()
	if err == nil {
		d.casGCRemoved.Add(float64(res.Removed))
		d.updateDedupGauge()
	}
	return res, err
}

// casRecoverySweep runs after manifest replay: temp chunks from a
// writer that died mid-commit are dropped, then unreferenced chunks —
// orphans of a crash between chunk commit and snapfile/journal — are
// collected. No demotion here; recovery stays fast.
func (d *Daemon) casRecoverySweep() {
	d.cas.SweepTemp()
	res, err := d.sweepChunks(false)
	if err != nil {
		d.log.Printf("recovery cas sweep: %v", err)
		return
	}
	if res.Removed > 0 {
		d.log.Printf("recovery cas sweep: removed %d orphan chunks (%d bytes)", res.Removed, res.ReclaimedBytes)
	}
}
