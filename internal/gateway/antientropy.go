package gateway

// Anti-entropy re-sync: the health sweep learns each backend's durable
// state (digest + per-function generations, in its GET /status reply),
// and after every sweep the gateway compares it across each function's
// replica set. A backend that rejoined with lost or stale state — wiped
// disk, quarantined snapshot, missed delete or re-record — is marked
// stale, demoted in placement, and repaired through its normal API from
// the owner/standby copy: missing registrations and deletes are
// replayed, missing snapshots pulled chunk by chunk. When a pass that
// has the backend's status finds no deficits it returns to its place
// in preference order. See GATEWAY.md.

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"faasnap/internal/daemon"
	"faasnap/internal/events"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
)

// incomplete is how many of its chunks the copy cannot serve to a peer
// right now: what its backend's lazy fetcher still owes, plus the
// deficit nobody owns.
func incomplete(e daemon.StatusFunction) int { return e.ChunksPending + e.ChunksMissing }

// outranks reports whether copy e beats copy w as the version its
// replica set converges on: the higher generation; among equals — two
// replicas that each missed a different mutation can count to the same
// number — a tombstone, so an acknowledged delete never resurrects
// through a tie, then the copy with the snapshot, then the most
// complete, since a repair source must be able to serve every chunk it
// advertises.
func outranks(e, w daemon.StatusFunction) bool {
	switch {
	case e.Generation != w.Generation:
		return e.Generation > w.Generation
	case e.Deleted != w.Deleted:
		return e.Deleted
	case e.HasSnapshot != w.HasSnapshot:
		return e.HasSnapshot
	}
	return incomplete(e) < incomplete(w)
}

func (v *backendView) entry(fn string) (daemon.StatusFunction, bool) {
	for _, e := range v.Functions {
		if e.Name == fn {
			return e, true
		}
	}
	return daemon.StatusFunction{}, false
}

// ResyncNow runs one anti-entropy pass over the status replies
// collected by the last health sweep and returns the number of repair
// actions issued. The sweep loop calls it after every CheckNow; tests
// call it directly for a deterministic pass. Passes never overlap.
//
// Staleness is judged within each function's replica set (the
// owner plus the configured standbys — the backends that are supposed
// to hold it). The highest-generation entry wins: generations count
// acknowledged client mutations per function, and neither losing a
// snapshot nor copying one mints, so replicas that processed the same
// fan-out history agree and a backend that missed operations sits
// strictly below (outranks settles ties). GATEWAY.md ("Repair rules")
// tabulates what each replica state gets:
//
//   - winner tombstoned: live copies are deleted, so an acknowledged
//     delete can never resurrect through a backend that was down when it
//     happened;
//   - winner live, replica absent or tombstoned: the registration is
//     replayed, spec body included for custom functions;
//   - winner has a snapshot the replica lacks or holds at a lower
//     generation: the replica pulls it with a chunk-level sync and
//     adopts the winner's generation, so the rule cannot re-fire;
//   - same snapshot, replica's store missing chunks nobody owns: an
//     eager chunk sync from a complete copy.
//
// Backends without a current status (unreachable this sweep, not ready,
// recovering, or stateless) are neither sources nor targets, and keep
// the stale verdict they had.
func (g *Gateway) ResyncNow() int {
	g.resyncMu.Lock()
	defer g.resyncMu.Unlock()
	t0 := time.Now()
	type repairRec struct {
		fn, backend, action, traceID string
		start, dur                   time.Duration
	}
	var repairs []repairRec
	// repaired books one successful repair: the per-action counter, a
	// span on the sweep's trace, and a ledger event — remembered as the
	// backend's most recent, for the converged event of a later clean pass
	// to cite as cause_seq.
	repaired := func(b *Backend, fn, counter, action string, start time.Duration, ev events.Event) {
		g.reg.Counter("faasnap_gw_resync_total",
			"Anti-entropy repair operations issued to stale backends, by backend and action.",
			telemetry.L("backend", b.Addr, "action", counter)).Inc()
		repairs = append(repairs, repairRec{
			fn: fn, backend: b.Addr, action: action, traceID: ev.TraceID,
			start: start, dur: time.Since(t0) - start,
		})
		ev.Type, ev.Function = events.Repair, fn
		if ev.Fields == nil {
			ev.Fields = make(map[string]string, 2)
		}
		ev.Fields["backend"], ev.Fields["action"] = b.Addr, action
		g.lastRepairSeq[b.Addr] = g.events.Append(ev).Seq
	}
	// call issues one repair under the deadline a client request gets;
	// Close cuts it short.
	call := func(b *Backend, method, path string, body []byte, out interface{}) error {
		ctx, cancel := context.WithTimeout(g.ctx, g.cfg.RequestTimeout)
		defer cancel()
		return g.callBackend(ctx, b, method, path, body, out)
	}
	// replay repairs b by replaying one mutation through its normal API.
	replay := func(b *Backend, fn, action, method string, body []byte) bool {
		start := time.Since(t0)
		if call(b, method, "/functions/"+fn, body, nil) != nil {
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
		var sr daemon.SyncResponse
		if call(b, http.MethodPost, "/functions/"+fn+"/sync", body, &sr) != nil {
			return
		}
		g.reg.Counter("faasnap_gw_resync_chunk_bytes_total",
			"Chunk payload bytes transferred by anti-entropy chunk-sync repairs, by backend.",
			telemetry.L("backend", b.Addr)).Add(float64(sr.BytesFetched))
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
	current := make(map[string]*backendView, len(g.backends))
	fns := make(map[string]bool)
	for _, b := range g.backends {
		v := b.view.Load()
		if !v.Ready || v.Recovering || v.Digest == "" {
			continue
		}
		current[b.Addr] = v
		for _, e := range v.Functions {
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
		prefs := preference(g.backends, fn, 1+g.cfg.Replicas)
		var winner *daemon.StatusFunction
		var winnerAddr string
		for _, b := range prefs {
			v := current[b.Addr]
			if v == nil {
				continue
			}
			if e, ok := v.entry(fn); ok && (winner == nil || outranks(e, *winner)) {
				we := e
				winner = &we
				winnerAddr = b.Addr
			}
		}
		if winner == nil {
			continue
		}
		for _, b := range prefs {
			v := current[b.Addr]
			if v == nil || b.Addr == winnerAddr {
				continue
			}
			e, ok := v.entry(fn)
			if winner.Deleted {
				if ok && !e.Deleted {
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
				e = daemon.StatusFunction{}
			}
			if !winner.HasSnapshot {
				continue
			}
			if !e.HasSnapshot || e.Generation < winner.Generation {
				// The backend pulls the winner's chunk map and fetches only
				// the chunks it is missing, so a standby that shares most
				// content (same base image, or a stale-but-overlapping copy)
				// repairs with a fraction of the snapfile's bytes.
				stale[b.Addr] = true
				syncChunks(b, fn, winnerAddr, false, 0)
			} else if e.ChunksMissing > 0 && incomplete(*winner) == 0 {
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
	for _, b := range g.backends {
		if current[b.Addr] == nil {
			continue // no status, no verdict: it keeps the one it had
		}
		now := stale[b.Addr]
		prev := b.stale.Swap(now)
		g.reg.Gauge("faasnap_gw_backend_stale",
			"Backends found stale by the last anti-entropy pass that had their status (1 = repairs in flight, demoted in placement).",
			telemetry.L("backend", b.Addr)).Set(oneIf(now))
		if now == prev {
			continue
		}
		verdict := func(typ events.Type) events.Event {
			return events.Event{Type: typ, Fields: map[string]string{"backend": b.Addr}}
		}
		if now {
			g.events.Append(verdict(events.BackendStale))
			continue
		}
		g.events.Append(verdict(events.BackendClean))
		// Converged closes the causality chain: it cites the backend's
		// last repair event (a gateway-ledger seq) as cause_seq.
		ev := verdict(events.Converged)
		if cause := g.lastRepairSeq[b.Addr]; cause > 0 {
			ev.CauseSeq, ev.CauseOrigin = cause, "gateway"
		}
		g.events.Append(ev)
	}

	// A sweep that issued repairs leaves a trace in the gateway-local
	// store: one root span for the pass, one child per repair action,
	// chunk syncs cross-linked to the daemon-minted restore waterfall
	// via the sync_trace tag.
	if len(repairs) > 0 {
		wall := time.Since(t0)
		tid := g.traces.NextID()
		tb := trace.NewBuilder(tid, "anti-entropy-sweep")
		root := tb.Span("anti-entropy-sweep", "", 0, wall,
			map[string]string{"actions": strconv.Itoa(len(repairs))})
		for _, r := range repairs {
			tags := map[string]string{"backend": r.backend, "action": r.action}
			if r.traceID != "" {
				tags["sync_trace"] = r.traceID
			}
			tb.Span("repair "+r.fn, root, r.start, r.dur, tags)
		}
		g.traces.Put(tb.Finish())
	}
	return len(repairs)
}
