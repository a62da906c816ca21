package gateway

// Anti-entropy re-sync: the health sweep learns each backend's durable
// manifest (digest + per-function generations from GET /manifest), and
// after every sweep the gateway compares manifests across each
// function's replica set. A backend that rejoined with lost or stale
// state — wiped disk, quarantined snapshot, missed delete — is marked
// stale, demoted in placement, and repaired through its normal API
// from the owner/standby copy: missing registrations and deletes are
// replayed, missing snapshots pulled chunk by chunk. When a sweep finds
// no deficits the backend returns to full ring weight. See GATEWAY.md.

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"faasnap/internal/events"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
)

// manifestEntry mirrors the daemon's statedir.Entry JSON: one
// function's durable state on one backend.
type manifestEntry struct {
	Name        string `json:"name"`
	Generation  uint64 `json:"generation"`
	Deleted     bool   `json:"deleted"`
	HasSnapshot bool   `json:"has_snapshot"`
	RecordInput string `json:"record_input,omitempty"`
	Spec        string `json:"spec,omitempty"`
	// ChunksMissing is the backend's chunk-store deficit against this
	// function's chunk map (lazy chunks lost to a failed background
	// fetch); non-zero triggers an eager chunk re-sync repair.
	ChunksMissing int `json:"chunks_missing,omitempty"`
	// DeficitSeq is the seq of the backend's manifest_deficit ledger
	// event announcing that deficit; the gateway's repair event cites it
	// as cause_seq so the causality chain resolves across daemons.
	DeficitSeq uint64 `json:"deficit_seq,omitempty"`
}

// manifestInfo mirrors the daemon's GET /manifest response.
type manifestInfo struct {
	Digest     string          `json:"digest"`
	Recovering bool            `json:"recovering"`
	Functions  []manifestEntry `json:"functions"`
}

func (m *manifestInfo) entry(fn string) (manifestEntry, bool) {
	for _, e := range m.Functions {
		if e.Name == fn {
			return e, true
		}
	}
	return manifestEntry{}, false
}

// fetchManifest pulls one backend's durable-state summary; nil for
// daemons without a state dir (404) or that did not answer.
func (p *Pool) fetchManifest(b *Backend) *manifestInfo {
	var mi manifestInfo
	if !p.callBackend(context.Background(), b, http.MethodGet, "/manifest", nil, &mi) {
		return nil
	}
	return &mi
}

// resyncCounter counts one repair action issued to a backend.
func (p *Pool) resyncCounter(b *Backend, action string) *telemetry.Counter {
	return p.reg.Counter("faasnap_gw_resync_total",
		"Anti-entropy repair operations issued to stale backends, by backend and action.",
		telemetry.L("backend", b.Addr, "action", action))
}

// chunkBytesCounter counts chunk payload bytes moved into a backend by
// anti-entropy chunk-sync repairs.
func (p *Pool) chunkBytesCounter(b *Backend) *telemetry.Counter {
	return p.reg.Counter("faasnap_gw_resync_chunk_bytes_total",
		"Chunk payload bytes transferred by anti-entropy chunk-sync repairs, by backend.",
		telemetry.L("backend", b.Addr))
}

// syncResult mirrors the subset of the daemon's POST /functions/{name}/sync
// response the gateway accounts for.
type syncResult struct {
	ChunksTotal   int   `json:"chunks_total"`
	ChunksFetched int   `json:"chunks_fetched"`
	BytesTotal    int64 `json:"bytes_total"`
	BytesFetched  int64 `json:"bytes_fetched"`
	SnapfileBytes int64 `json:"snapfile_bytes"`
	// TraceID identifies the restore-waterfall trace the target daemon
	// minted for this sync; the gateway's repair event carries it so the
	// transfer can be rendered with `faasnapctl waterfall`.
	TraceID string `json:"trace_id,omitempty"`
}

// noteRepair publishes a repair event and remembers its seq as the
// backend's most recent repair, so the converged event a later clean
// pass emits can cite it as cause_seq.
func (p *Pool) noteRepair(addr string, e events.Event) {
	if p.events == nil {
		return
	}
	ev := p.events.Append(e)
	p.repairMu.Lock()
	p.lastRepairSeq[addr] = ev.Seq
	p.repairMu.Unlock()
}

// ResyncNow runs one anti-entropy pass over the manifests collected by
// the last health sweep and returns the number of repair actions
// issued. The sweep loop calls it after every CheckNow; tests call it
// directly for a deterministic pass.
//
// Staleness is judged within each function's replica set (the ring
// owner plus the configured standbys — the backends that are supposed
// to hold it):
//
//   - the highest-generation entry wins: generations count acknowledged
//     mutations per function, so replicas that processed the same
//     fan-out history agree, and a backend that missed operations sits
//     strictly below;
//   - winner live: backends missing the registration (or holding a
//     stale tombstone) get the registration replayed — spec body
//     included for custom functions — and backends missing the snapshot
//     pull it from the winner with a chunk-level sync;
//   - winner tombstoned: live lower-generation copies are deleted, so
//     an acknowledged delete can never resurrect through a backend that
//     was down when it happened.
//
// Backends without a manifest (stateless, recovering, or unreachable
// this sweep) are neither sources nor targets.
func (p *Pool) ResyncNow() int {
	t0 := time.Now()
	type repairRec struct {
		fn, backend, action, traceID string
		start, dur                   time.Duration
	}
	var repairs []repairRec
	actions := 0
	// repaired books one successful repair: the per-action counter, a
	// span on the sweep's trace, and a ledger event.
	repaired := func(b *Backend, fn, counter, action string, start time.Duration, ev events.Event) {
		p.resyncCounter(b, counter).Inc()
		actions++
		repairs = append(repairs, repairRec{
			fn: fn, backend: b.Addr, action: action, traceID: ev.TraceID,
			start: start, dur: time.Since(t0) - start,
		})
		ev.Type, ev.Function = events.Repair, fn
		if ev.Fields == nil {
			ev.Fields = make(map[string]string, 2)
		}
		ev.Fields["backend"], ev.Fields["action"] = b.Addr, action
		p.noteRepair(b.Addr, ev)
	}
	// replay repairs b by replaying one mutation through its normal API.
	replay := func(b *Backend, fn, action, method string, body []byte) bool {
		start := time.Since(t0)
		if !p.callBackend(context.Background(), b, method, "/functions/"+fn, body, nil) {
			return false
		}
		repaired(b, fn, action, action, start, events.Event{})
		return true
	}
	// syncChunks repairs b by having it pull fn's snapshot from source
	// over the chunk-level sync endpoint, so only chunks b doesn't
	// already hold move over the wire; eager makes it fetch every missing
	// chunk before replying instead of leaving the tail to its background
	// fetcher. A failed sync issues nothing in its place: the backend
	// stays stale and the next sweep retries. An eager sync repairs a
	// chunk deficit the backend itself announced, so its event cites the
	// backend's manifest_deficit event as cause: cause_seq plus
	// cause_origin (the backend's address) resolve against that daemon's
	// /events ledger, and trace_id resolves to the restore waterfall the
	// sync minted.
	syncChunks := func(b *Backend, fn, source string, eager bool, deficitSeq uint64) {
		start := time.Since(t0)
		body, _ := json.Marshal(map[string]interface{}{"source": source, "eager": eager})
		var sr syncResult
		if !p.callBackend(context.Background(), b, http.MethodPost, "/functions/"+fn+"/sync", body, &sr) {
			return
		}
		p.chunkBytesCounter(b).Add(float64(sr.BytesFetched))
		action := "chunks"
		ev := events.Event{TraceID: sr.TraceID, Fields: map[string]string{
			"source":         source,
			"chunks_fetched": strconv.Itoa(sr.ChunksFetched),
			"bytes_fetched":  strconv.FormatInt(sr.BytesFetched, 10),
		}}
		if eager {
			action = "chunks_eager"
			ev.CauseSeq, ev.CauseOrigin = deficitSeq, b.Addr
		}
		repaired(b, fn, "chunks", action, start, ev)
	}
	backends := p.snapshot()
	manifests := make(map[string]*manifestInfo, len(backends))
	fns := make(map[string]bool)
	for _, b := range backends {
		mi := b.manifestInfo()
		if mi == nil || mi.Recovering || !b.Ready() {
			continue
		}
		manifests[b.Addr] = mi
		for _, e := range mi.Functions {
			fns[e.Name] = true
		}
	}
	// Deterministic repair order keeps logs and tests stable.
	names := make([]string, 0, len(fns))
	for fn := range fns {
		names = append(names, fn)
	}
	sort.Strings(names)

	stale := make(map[string]bool)
	for _, fn := range names {
		prefs := p.preference(fn, 1+p.replicas)
		var winner *manifestEntry
		var winnerAddr string
		for _, b := range prefs {
			mi := manifests[b.Addr]
			if mi == nil {
				continue
			}
			if e, ok := mi.entry(fn); ok {
				// Highest generation wins; among equals prefer a copy with
				// the snapshot, then the one with the smallest chunk-store
				// deficit — a repair source must be able to serve every
				// chunk it advertises.
				better := winner == nil || e.Generation > winner.Generation
				if winner != nil && e.Generation == winner.Generation {
					if e.HasSnapshot != winner.HasSnapshot {
						better = e.HasSnapshot
					} else {
						better = e.ChunksMissing < winner.ChunksMissing
					}
				}
				if better {
					we := e
					winner = &we
					winnerAddr = b.Addr
				}
			}
		}
		if winner == nil {
			continue
		}
		for _, b := range prefs {
			mi := manifests[b.Addr]
			if mi == nil {
				continue
			}
			e, ok := mi.entry(fn)
			if winner.Deleted {
				if ok && !e.Deleted && e.Generation < winner.Generation {
					stale[b.Addr] = true
					replay(b, fn, "delete", http.MethodDelete, nil)
				}
				continue
			}
			if !ok || e.Deleted {
				stale[b.Addr] = true
				if !replay(b, fn, "register", http.MethodPut, []byte(winner.Spec)) {
					continue // no point syncing onto a failed register
				}
				e = manifestEntry{Name: fn}
			}
			if winner.HasSnapshot && !e.HasSnapshot {
				// The backend pulls the winner's chunk map and fetches only
				// the chunks it is missing, so a standby that shares most
				// content (same base image, or a stale-but-overlapping copy)
				// repairs with a fraction of the snapfile's bytes.
				stale[b.Addr] = true
				syncChunks(b, fn, winnerAddr, false, 0)
			} else if winner.HasSnapshot && e.HasSnapshot && e.ChunksMissing > 0 &&
				winner.ChunksMissing == 0 && b.Addr != winnerAddr {
				// The backend has the snapshot but lost part of its chunk
				// content — a lazy tail its background fetcher abandoned, or
				// out-of-band loss. It serves fine from its loading set but
				// answers 404 to peers for the missing digests, so repair by
				// pulling the deficit eagerly from a complete copy.
				stale[b.Addr] = true
				syncChunks(b, fn, winnerAddr, true, e.DeficitSeq)
			}
		}
	}
	for _, b := range backends {
		prev := b.Stale()
		now := stale[b.Addr]
		b.setStale(now)
		v := 0.0
		if now {
			v = 1
		}
		p.reg.Gauge("faasnap_gw_backend_stale",
			"Backends found stale by the last anti-entropy pass (1 = repairs in flight, demoted in placement).",
			telemetry.L("backend", b.Addr)).Set(v)
		if p.events == nil || now == prev {
			continue
		}
		if now {
			p.events.Append(events.Event{
				Type:   events.BackendStale,
				Fields: map[string]string{"backend": b.Addr},
			})
			continue
		}
		p.events.Append(events.Event{
			Type:   events.BackendClean,
			Fields: map[string]string{"backend": b.Addr},
		})
		// Converged closes the causality chain: it cites the backend's
		// last repair event (a gateway-ledger seq) as cause_seq.
		p.repairMu.Lock()
		cause := p.lastRepairSeq[b.Addr]
		p.repairMu.Unlock()
		ev := events.Event{
			Type:   events.Converged,
			Fields: map[string]string{"backend": b.Addr},
		}
		if cause > 0 {
			ev.CauseSeq = cause
			ev.CauseOrigin = "gateway"
		}
		p.events.Append(ev)
	}

	// A sweep that issued repairs leaves a trace in the gateway-local
	// store: one root span for the pass, one child per repair action,
	// chunk syncs cross-linked to the daemon-minted restore waterfall
	// via the sync_trace tag.
	if actions > 0 && p.traces != nil {
		wall := time.Since(t0)
		tid := p.traces.NextID()
		tb := trace.NewBuilder(tid, "anti-entropy-sweep")
		root := tb.Span("anti-entropy-sweep", "", 0, wall,
			map[string]string{"actions": strconv.Itoa(actions)})
		for _, r := range repairs {
			tags := map[string]string{"backend": r.backend, "action": r.action}
			if r.traceID != "" {
				tags["sync_trace"] = r.traceID
			}
			tb.Span("repair "+r.fn, root, r.start, r.dur, tags)
		}
		p.traces.Put(tb.Finish())
	}
	return actions
}
