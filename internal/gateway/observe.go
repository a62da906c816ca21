package gateway

// The gateway half of the observability plane: cluster roll-ups over
// the per-daemon SLO engines and flight recorders. The health sweep
// (pool.check) already fetched every backend's GET /slo and
// GET /profiles?summary=1; the handlers here merge those snapshots so
// one request answers "is the cluster meeting its objectives, and
// which functions/backends are burning budget" without fanning out on
// the query path.

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"time"

	"faasnap/internal/events"
	"faasnap/internal/obs"
	"faasnap/internal/slo"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
)

// clusterSLO merges the last sweep's per-backend SLO reports. The
// per-backend map keys are daemon addresses; backends whose sweep
// found no report (down, or predating GET /slo) are absent.
func (g *Gateway) clusterSLO() (*slo.Report, map[string]*slo.Report) {
	per := make(map[string]*slo.Report)
	var reports []*slo.Report
	for _, b := range g.pool.snapshot() {
		if rep := b.sloReport(); rep != nil {
			per[b.Addr] = rep
			reports = append(reports, rep)
		}
	}
	return slo.Merge(reports), per
}

// handleClusterSLO serves GET /cluster/slo: the merged burn-rate view
// (window counts summed across backends, burn rates recomputed from
// the merged counts) plus each backend's own report.
func (g *Gateway) handleClusterSLO(w http.ResponseWriter, r *http.Request) {
	merged, per := g.clusterSLO()
	burning := merged.Burning()
	if burning == nil {
		burning = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"cluster":           merged,
		"burning_functions": burning,
		"backends":          per,
	})
}

// handleClusterProfiles serves GET /cluster/profiles: the merged
// flight-recorder aggregation (see obs.MergeSummaries for how counts
// and quantiles combine) plus each backend's own summary.
func (g *Gateway) handleClusterProfiles(w http.ResponseWriter, r *http.Request) {
	per := make(map[string]*obs.Summary)
	var sums []*obs.Summary
	for _, b := range g.pool.snapshot() {
		if s := b.profileSummary(); s != nil {
			per[b.Addr] = s
			sums = append(sums, s)
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"cluster":  obs.MergeSummaries(sums),
		"backends": per,
	})
}

// handleClusterEvents serves GET /cluster/events: the gateway's own
// ledger (origin "gateway") merged with every ready backend's
// GET /events, each event tagged with the address of the ledger it
// came from. Seq values stay per-origin — the merge orders by wall
// time with seq as the tiebreak, and (cause_seq, cause_origin) pairs
// resolve against the named origin's ledger. Supports the same
// since_seq/type/function filters as the daemon endpoint (since_seq
// applies to backend ledgers; the gateway's own events are filtered by
// type/function only). No watch mode: poll, or watch one daemon.
func (g *Gateway) handleClusterEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var sinceSeq uint64
	if v := q.Get("since_seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad since_seq %q: %v", v, err)
			return
		}
		sinceSeq = n
	}
	typ := q.Get("type")
	fn := q.Get("function")

	merged := g.events.Since(0, events.Type(typ), fn)
	for i := range merged {
		merged[i].Origin = "gateway"
	}
	for _, b := range g.pool.snapshot() {
		if !b.Ready() {
			continue
		}
		evs := g.fetchBackendEvents(r.Context(), b, sinceSeq, typ, fn)
		for i := range evs {
			evs[i].Origin = b.Addr
		}
		merged = append(merged, evs...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].UnixMs != merged[j].UnixMs {
			return merged[i].UnixMs < merged[j].UnixMs
		}
		return merged[i].Seq < merged[j].Seq
	})
	writeJSON(w, http.StatusOK, map[string]interface{}{"events": merged})
}

// fetchBackendEvents pulls one backend's ledger tail for the cluster
// merge; empty on any error — a backend that cannot answer simply
// contributes nothing to this poll.
func (g *Gateway) fetchBackendEvents(ctx context.Context, b *Backend, sinceSeq uint64, typ, fn string) []events.Event {
	path := "/events?since_seq=" + strconv.FormatUint(sinceSeq, 10)
	if typ != "" {
		path += "&type=" + typ
	}
	if fn != "" {
		path += "&function=" + fn
	}
	var reply struct {
		Events []events.Event `json:"events"`
	}
	g.pool.callBackend(ctx, b, http.MethodGet, path, nil, &reply)
	return reply.Events
}

// handleTraceFind looks a trace id up across backends: the gateway
// minted the id, but only the daemon that served the invocation stored
// the stitched trace. Probes fan out concurrently, each holding a
// slice of the request budget rather than the whole of it, so one
// wedged backend cannot starve the lookup; the first 200 wins.
// Gateway-local traces (anti-entropy sweeps) resolve without fan-out.
func (g *Gateway) handleTraceFind(w http.ResponseWriter, r *http.Request) {
	if t, ok := g.traces.Get(trace.ID(r.PathValue("id"))); ok {
		raw, err := t.MarshalZipkin()
		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(raw)
			return
		}
	}
	var ready []*Backend
	for _, b := range g.pool.snapshot() {
		if b.Ready() {
			ready = append(ready, b)
		}
	}
	if len(ready) == 0 {
		writeErr(w, http.StatusNotFound, "trace %q not found: no ready backends", r.PathValue("id"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	// Per-backend timeout slice: an even share of the budget, floored at
	// 1s so a wide pool still gives each probe a usable window. Probes
	// run concurrently, so the slice bounds one slow backend's cost
	// without serializing the rest behind it.
	per := g.cfg.RequestTimeout / time.Duration(len(ready))
	if per < time.Second {
		per = time.Second
	}
	if per > g.cfg.RequestTimeout {
		per = g.cfg.RequestTimeout
	}
	results := make(chan *proxyResult, len(ready))
	for _, b := range ready {
		go func(b *Backend) {
			bctx, bcancel := context.WithTimeout(ctx, per)
			defer bcancel()
			res, err := g.do(bctx, b, http.MethodGet, r.URL.Path, "", nil, telemetry.SpanContext{})
			if err == nil && res.status == http.StatusOK {
				results <- &res
				return
			}
			results <- nil
		}(b)
	}
	for range ready {
		if res := <-results; res != nil {
			g.writeRaw(w, *res)
			return
		}
	}
	writeErr(w, http.StatusNotFound, "trace %q not found on any backend", r.PathValue("id"))
}
