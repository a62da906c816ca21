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
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"faasnap/internal/daemon"
	"faasnap/internal/events"
	"faasnap/internal/telemetry"
)

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
	return e.ChunksMissing < w.ChunksMissing
}

// repairKind is one repair action: the repair event's fields.action.
type repairKind string

const (
	repairDelete      repairKind = "delete"       // replay the winner's delete
	repairRegister    repairKind = "register"     // replay the registration, spec included
	repairChunks      repairKind = "chunks"       // pull the winner's snapshot
	repairChunksEager repairKind = "chunks_eager" // re-pull a chunk deficit the target announced
)

// counter is the faasnap_gw_resync_total action label k books under:
// a deficit repair counts as a chunk sync.
func (k repairKind) counter() string { return strings.TrimSuffix(string(k), "_eager") }

// repair is one action plan decides: target repairs fn. A register
// carries the winner's spec; a sync names the winner as source, and a
// deficit repair the seq of the target's manifest_deficit event.
type repair struct {
	kind       repairKind
	fn         string
	target     *Backend
	source     string
	spec       string
	deficitSeq uint64
}

// plan decides one anti-entropy pass. views holds the last sweep's
// answer of every backend that has a current status, by address; the
// others are neither sources nor targets. It returns the repairs that
// bring each function's replica set — its first 1+replicas backends in
// preference order — to the set's winner, by function name, then in
// preference order. plan is the one implementation of GATEWAY.md's
// "Repair rules" table, and TestRepairRuleEveryState checks it over
// every state of one function on three replicas.
//
// The winner is the entry that outranks the others. Generations count
// acknowledged client mutations, and neither losing a snapshot nor
// copying one mints, so replicas that saw the same fan-out history
// agree and one that missed a mutation sits strictly below. A sync
// makes the target adopt the winner's generation, so the rule cannot
// fire twice. A register is followed by the sync in the same pass, as
// the registered copy holds no snapshot. A deficit repair needs a
// complete winner, since it fetches the whole deficit from that one
// source.
func plan(views map[string]*backendView, backends []*Backend, replicas int) []repair {
	held := make(map[string]map[string]daemon.StatusFunction, len(views))
	var names []string
	for addr, v := range views {
		byName := make(map[string]daemon.StatusFunction, len(v.Functions))
		for _, e := range v.Functions {
			byName[e.Name] = e
			names = append(names, e.Name)
		}
		held[addr] = byName
	}
	sort.Strings(names)
	var out []repair
	for _, fn := range slices.Compact(names) {
		prefs := preference(backends, fn, 1+replicas)
		var winner daemon.StatusFunction
		source := ""
		for _, b := range prefs {
			if e, ok := held[b.Addr][fn]; ok && (source == "" || outranks(e, winner)) {
				winner, source = e, b.Addr
			}
		}
		if source == "" {
			continue // held only outside its replica set
		}
		for _, b := range prefs {
			byName, current := held[b.Addr]
			if !current || b.Addr == source {
				continue
			}
			e, ok := byName[fn]
			switch {
			case winner.Deleted:
				if ok && !e.Deleted {
					out = append(out, repair{kind: repairDelete, fn: fn, target: b})
				}
				continue
			case !ok || e.Deleted:
				out = append(out, repair{kind: repairRegister, fn: fn, target: b, spec: winner.Spec})
				e = daemon.StatusFunction{}
			}
			sync := repair{kind: repairChunks, fn: fn, target: b, source: source}
			switch {
			case !winner.HasSnapshot:
			case !e.HasSnapshot || e.Generation < winner.Generation:
				out = append(out, sync)
			case e.ChunksMissing > 0 && winner.ChunksMissing == 0:
				sync.kind, sync.deficitSeq = repairChunksEager, e.DeficitSeq
				out = append(out, sync)
			}
		}
	}
	return out
}

// ResyncNow runs one anti-entropy pass over the status replies
// collected by the last health sweep and returns the number of repairs
// that succeeded. The sweep loop calls it after every CheckNow; tests
// call it directly for a deterministic pass. Passes never overlap.
//
// plan decides the repairs; ResyncNow drops those of a function fanned
// out since the last CheckNow began (its statuses may predate the
// outcome), issues the rest, books each one that succeeds, and marks
// stale exactly the backends plan targeted. A failed repair issues
// nothing in its place — a failed register not even its target's sync
// — and the next pass retries. Backends without a current status
// (unreachable this sweep, not ready, recovering, or stateless), or
// targeted by dropped repairs alone, keep their verdict.
func (g *Gateway) ResyncNow() int {
	g.resyncMu.Lock()
	defer g.resyncMu.Unlock()
	views := make(map[string]*backendView, len(g.backends))
	for _, b := range g.backends {
		if v := b.view.Load(); v.Ready && !v.Recovering && v.Digest != "" {
			views[b.Addr] = v
		}
	}
	planned := plan(views, g.backends, g.cfg.Replicas)
	g.fanMu.Lock()
	repairs := slices.DeleteFunc(slices.Clone(planned), func(r repair) bool { _, ok := g.fanouts[r.fn]; return ok })
	g.fanMu.Unlock()

	done := 0
	var failed repair // the last repair that failed
	for _, r := range repairs {
		if r.target == failed.target && r.fn == failed.fn {
			continue // no point syncing onto a failed register
		}
		start := time.Now()
		ev, err := g.issue(r)
		if err != nil {
			failed = r
			continue
		}
		done++
		ev.Fields["wall_ms"] = events.Millis(time.Since(start))
		g.reg.Counter("faasnap_gw_resync_total",
			"Anti-entropy repair operations issued to stale backends, by backend and action.",
			telemetry.L("backend", r.target.Addr, "action", r.kind.counter())).Inc()
		// The event is remembered as the backend's most recent repair, for
		// the converged event of a later clean pass to cite as cause_seq.
		g.lastRepairSeq[r.target.Addr] = g.events.Append(ev).Seq
	}

	for _, b := range g.backends {
		targets := func(r repair) bool { return r.target == b }
		now := slices.ContainsFunc(repairs, targets)
		if views[b.Addr] == nil || !now && slices.ContainsFunc(planned, targets) {
			continue // no status, or one a fan-out overtook: it keeps its verdict
		}
		prev := b.stale.Swap(now)
		g.reg.Gauge("faasnap_gw_backend_stale",
			"Backends found stale by the last anti-entropy pass that had their status (1 = repairs in flight, demoted in placement).",
			telemetry.L("backend", b.Addr)).Set(oneIf(now))
		if now == prev {
			continue
		}
		ev := events.Event{Type: events.BackendStale, Fields: map[string]string{"backend": b.Addr}}
		if !now {
			// Converged records the backend coming back clean and closes
			// the causality chain: it cites the backend's last repair
			// event (a gateway-ledger seq) as cause_seq.
			ev.Type = events.Converged
			if cause := g.lastRepairSeq[b.Addr]; cause > 0 {
				ev.CauseSeq, ev.CauseOrigin = cause, "gateway"
			}
		}
		g.events.Append(ev)
	}

	return done
}

// issue sends one repair through the target's normal API under the
// deadline a client request gets (Close cuts it short), and returns the
// repair event that books it. A sync has the target pull fn's snapshot
// from source over the chunk-level sync endpoint, so only the chunks it
// lacks move over the wire. A deficit repair answers a deficit the
// target itself announced, so its event cites that manifest_deficit
// event: cause_seq plus cause_origin (the target's address) resolve
// against the daemon's /events ledger, and trace_id resolves to the
// restore waterfall the sync minted.
func (g *Gateway) issue(r repair) (events.Event, error) {
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.RequestTimeout)
	defer cancel()
	ev := events.Event{Type: events.Repair, Function: r.fn,
		Fields: map[string]string{"backend": r.target.Addr, "action": string(r.kind)}}
	path := "/functions/" + r.fn
	switch r.kind {
	case repairDelete:
		return ev, g.callBackend(ctx, r.target, http.MethodDelete, path, nil, nil)
	case repairRegister:
		return ev, g.callBackend(ctx, r.target, http.MethodPut, path, []byte(r.spec), nil)
	}
	body, _ := json.Marshal(daemon.SyncRequest{Source: r.source})
	var sr daemon.SyncResponse
	if err := g.callBackend(ctx, r.target, http.MethodPost, path+"/sync", body, &sr); err != nil {
		return ev, err
	}
	g.reg.Counter("faasnap_gw_resync_chunk_bytes_total",
		"Chunk payload bytes transferred by anti-entropy chunk-sync repairs, by backend.",
		telemetry.L("backend", r.target.Addr)).Add(float64(sr.BytesFetched))
	ev.TraceID = sr.TraceID
	ev.Fields["source"] = r.source
	ev.Fields["chunks_fetched"] = strconv.Itoa(sr.ChunksFetched)
	ev.Fields["bytes_fetched"] = strconv.FormatInt(sr.BytesFetched, 10)
	if r.kind == repairChunksEager {
		ev.CauseSeq, ev.CauseOrigin = r.deficitSeq, r.target.Addr
	}
	return ev, nil
}
