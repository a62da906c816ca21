package gateway

// The gateway half of the observability plane: cluster roll-ups over
// the per-daemon SLO engines, flight recorders and event ledgers. Each
// /cluster/* roll-up asks the ready backends when it is asked — one
// fan-out (fanOut) behind all three, and behind GET /functions — and
// merges the answers, so one
// request answers "is the cluster meeting its objectives, and which
// functions/backends are burning budget" from what the daemons hold
// now, not from a cache a sweep refreshed.

import (
	"context"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"faasnap/internal/events"
	"faasnap/internal/obs"
	"faasnap/internal/slo"
	"faasnap/internal/telemetry"
)

// fanOut GETs path from every ready backend concurrently and returns
// the 2xx JSON answers keyed by backend address, plus those addresses
// in backend order. A backend that cannot answer within probeTimeout
// (down, wedged, or without the endpoint) contributes nothing to this
// poll.
func fanOut[T any](ctx context.Context, g *Gateway, path string) (map[string]*T, []string) {
	outs := make([]*T, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		if !b.Ready() {
			continue
		}
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			out := new(T)
			if g.callBackend(ctx, b, http.MethodGet, path, nil, out) == nil {
				outs[i] = out
			}
		}(i, b)
	}
	wg.Wait()
	per := make(map[string]*T)
	var addrs []string
	for i, b := range g.backends {
		if outs[i] != nil {
			per[b.Addr] = outs[i]
			addrs = append(addrs, b.Addr)
		}
	}
	return per, addrs
}

// clusterSLO asks every ready backend for its GET /slo and merges the
// answers: the merged report, its burning functions (never nil), and
// each backend's own report by address.
func (g *Gateway) clusterSLO(ctx context.Context) (*slo.Report, []string, map[string]*slo.Report) {
	per, addrs := fanOut[slo.Report](ctx, g, "/slo")
	reports := make([]*slo.Report, 0, len(addrs))
	for _, a := range addrs {
		reports = append(reports, per[a])
	}
	merged := slo.Merge(reports)
	burning := merged.Burning()
	if burning == nil {
		burning = []string{}
	}
	return merged, burning, per
}

// handleClusterSLO serves GET /cluster/slo: the merged burn-rate view
// (window counts summed across backends, burn rates recomputed from
// the merged counts) plus each backend's own report.
func (g *Gateway) handleClusterSLO(w http.ResponseWriter, r *http.Request) {
	merged, burning, per := g.clusterSLO(r.Context())
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
	per, addrs := fanOut[obs.Summary](r.Context(), g, "/profiles?summary=1")
	sums := make([]*obs.Summary, 0, len(addrs))
	for _, a := range addrs {
		sums = append(sums, per[a])
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
	fwd := url.Values{"since_seq": {strconv.FormatUint(sinceSeq, 10)}}
	if typ != "" {
		fwd.Set("type", typ)
	}
	if fn != "" {
		fwd.Set("function", fn)
	}
	per, addrs := fanOut[struct {
		Events []events.Event `json:"events"`
	}](r.Context(), g, "/events?"+fwd.Encode())
	for _, a := range addrs {
		for _, e := range per[a].Events {
			e.Origin = a
			merged = append(merged, e)
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].UnixMs != merged[j].UnixMs {
			return merged[i].UnixMs < merged[j].UnixMs
		}
		return merged[i].Seq < merged[j].Seq
	})
	if merged == nil {
		merged = []events.Event{} // "events":[], as a daemon's GET /events answers
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"events": merged})
}

// handleTraceFind looks a trace id up across backends: the gateway
// minted the id, but only the daemon that served the invocation stored
// the stitched trace. Probes fan out concurrently, each holding a
// slice of the request budget rather than the whole of it, so one
// wedged backend cannot starve the lookup; the first 200 wins. The
// gateway holds no traces of its own: a repair is recorded as its
// repair event, which names its sync's daemon waterfall.
func (g *Gateway) handleTraceFind(w http.ResponseWriter, r *http.Request) {
	var ready []*Backend
	for _, b := range g.backends {
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
			writeRaw(w, *res)
			return
		}
	}
	writeErr(w, http.StatusNotFound, "trace %q not found on any backend", r.PathValue("id"))
}
