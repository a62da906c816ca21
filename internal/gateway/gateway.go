// Package gateway is the multi-host serving tier in front of N
// faasnapd backends: the load balancer the daemon's §4.1 deployment
// story assumes. Placement is snapshot-locality-aware — backends are
// ranked by rendezvous hashing of the function name, so repeat
// requests land on the backend that already holds the function's
// snapfile and page-cache state (§7.2), with least-loaded spillover
// when the owner is down, draining, saturated, or breaker-open.
// Failures retry on another backend under the client's deadline, so
// one dead host degrades capacity, never availability. See GATEWAY.md.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/events"
	"faasnap/internal/resilience"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
)

// Placement values reported in the "placement" response field.
const (
	// PlacementSticky: the request was served by its owner (the first
	// backend in preference order) on the first attempt.
	PlacementSticky = "sticky"
	// PlacementSpillover: the owner was unusable (down, unready,
	// saturated, breaker-open) and the first attempt went elsewhere.
	PlacementSpillover = "spillover"
	// PlacementRetry: at least one backend failed or missed and the
	// request was retried on another.
	PlacementRetry = "retry"
)

// Config configures a gateway.
type Config struct {
	// Backends are the daemon addresses (host:port) to route across.
	Backends []string
	// Logger receives operational logs; nil discards them.
	Logger *log.Logger
	// HealthInterval is the GET /status sweep period (default 1s).
	HealthInterval time.Duration
	// RequestTimeout bounds one client request across every backend
	// attempt, and one anti-entropy repair (default 30s); a client
	// request that runs it out gets 504.
	RequestTimeout time.Duration
	// Replicas is how many standby backends receive function
	// registration and snapshot recording besides the owner (default 1).
	Replicas int
	// MaxPerBackend is the per-backend in-flight load above which the
	// owner is considered saturated and spilled over (default 256).
	MaxPerBackend int64
	// QuietHTTP drops the per-request access log line entirely (for load
	// benchmarks; telemetry still counts every request). Scrape noise
	// (/metrics, /healthz) is never logged regardless.
	QuietHTTP bool
}

const (
	// retryAttempts is the most backends one request may be sent to.
	retryAttempts = 3
	// A backend's circuit breaker opens after breakerThreshold unhealthy
	// attempts in a row and admits one probe breakerCooldown later.
	breakerThreshold = 3
	breakerCooldown  = 2 * time.Second
	// probeTimeout bounds one backend's answer to the status sweep and
	// to each fan-out of GET /functions and the /cluster roll-ups, so a
	// backend that never answers costs a sweep or a roll-up this much.
	probeTimeout = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "faasnap-gw: ", log.LstdFlags)
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.MaxPerBackend == 0 {
		c.MaxPerBackend = 256
	}
	return c
}

// Gateway fronts a set of faasnapd backends.
type Gateway struct {
	cfg Config
	log *log.Logger
	reg *telemetry.Registry
	// backends is the configured set, deduplicated and in address
	// order, fixed at construction: what placement ranks.
	backends []*Backend

	// events is the gateway's own event ledger (repairs, convergence,
	// backend breaker/staleness transitions), merged with the daemons'
	// ledgers by GET /cluster/events; traces holds the anti-entropy
	// sweep traces GET /traces/{id} checks before fanning out.
	events *events.Ledger
	traces *trace.Store

	// client carries every request to a backend. It has no timeout of
	// its own: each call's context carries the deadline of whoever
	// waits on it (GATEWAY.md, "Deadlines").
	client *http.Client

	// ctx scopes the health loop — sweeps and the repairs they issue —
	// and Close cancels it; done closes when the loop has exited.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// resyncMu makes anti-entropy passes one at a time, ticker and
	// callers alike; under it, lastRepairSeq remembers each backend's
	// most recent repair event so the converged event a later pass
	// emits can cite it as cause_seq.
	resyncMu      sync.Mutex
	lastRepairSeq map[string]uint64

	traceSeq atomic.Uint64
}

// New builds a gateway and runs the first health sweep before
// returning, so routing decisions never start from an unknown state.
func New(cfg Config) (*Gateway, error) {
	g, err := build(cfg)
	if err != nil {
		return nil, err
	}
	g.start()
	return g, nil
}

// build wires a gateway up without starting its health loop.
func build(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	g := &Gateway{
		cfg:           cfg,
		log:           cfg.Logger,
		reg:           telemetry.NewRegistry(),
		events:        events.NewLedger(0),
		traces:        trace.NewStore(0),
		client:        &http.Client{},
		done:          make(chan struct{}),
		lastRepairSeq: make(map[string]uint64),
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	addrs := append([]string(nil), cfg.Backends...)
	sort.Strings(addrs)
	for _, addr := range slices.Compact(addrs) {
		g.backends = append(g.backends, newBackend(addr, g.reg, g.events))
	}
	return g, nil
}

// Close stops the health loop, cutting short whatever sweep or repair
// it has in flight.
func (g *Gateway) Close() {
	g.cancel()
	<-g.done
	g.events.Close()
}

// Events exposes the gateway's own event ledger (tests, bench harness).
func (g *Gateway) Events() *events.Ledger { return g.events }

// Handler returns the gateway's REST API handler. The surface mirrors
// the daemon's so faasnapctl and other clients work unchanged against
// either tier.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /cluster", g.handleCluster)
	mux.HandleFunc("GET /cluster/slo", g.handleClusterSLO)
	mux.HandleFunc("GET /cluster/profiles", g.handleClusterProfiles)
	mux.HandleFunc("GET /cluster/events", g.handleClusterEvents)
	mux.HandleFunc("GET /functions", g.handleListAll)
	mux.HandleFunc("PUT /functions/{name}", g.handleFanout)
	mux.HandleFunc("POST /functions/{name}/record", g.handleFanout)
	mux.HandleFunc("GET /functions/{name}", g.handleForward)
	mux.HandleFunc("DELETE /functions/{name}", g.handleDeleteAll)
	mux.HandleFunc("POST /functions/{name}/invoke", g.handleForward)
	mux.HandleFunc("POST /functions/{name}/burst", g.handleForward)
	mux.HandleFunc("GET /functions/{name}/faults", g.handleForward)
	mux.HandleFunc("GET /traces/{id}", g.handleTraceFind)
	return g.logRequests(mux)
}

func (g *Gateway) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Scrape and liveness probes arrive every sweep interval from
		// every monitor; logging them would drown real traffic.
		if g.cfg.QuietHTTP || r.URL.Path == "/metrics" || r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		g.log.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "ready_backends": g.readyCount()})
}

// handleReadyz: the gateway is ready when at least one backend is.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	n := g.readyCount()
	if n == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"ready": false, "reason": "no ready backends"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"ready": true, "ready_backends": n})
}

func (g *Gateway) readyCount() int {
	n := 0
	for _, b := range g.backends {
		if b.Ready() {
			n++
		}
	}
	return n
}

// handleCluster reports the serving topology: every backend's health,
// breaker, and load from the last sweep, the functions burning SLO
// budget (asked of the ready backends now) and — with ?fn=<name> — the
// preference order (owner first) placement assigns it.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	backends := make([]BackendStatus, 0)
	for _, b := range g.backends {
		backends = append(backends, b.status())
	}
	_, burning, _ := g.clusterSLO(r.Context())
	out := map[string]interface{}{
		"replicas":          g.cfg.Replicas,
		"backends":          backends,
		"burning_functions": burning,
	}
	if fn := r.URL.Query().Get("fn"); fn != "" {
		var prefs []string
		for _, b := range preference(g.backends, fn, 0) {
			prefs = append(prefs, b.Addr)
		}
		out["function"] = fn
		out["preference"] = prefs
	}
	writeJSON(w, http.StatusOK, out)
}

// nextTraceSC mints a trace context for a request that arrived without
// one, so the daemon's stitched trace carries a gateway-issued id the
// client can look up via GET /traces/{id}.
func (g *Gateway) nextTraceSC() telemetry.SpanContext {
	return telemetry.SpanContext{
		TraceID: fmt.Sprintf("gw%014x", g.traceSeq.Add(1)),
		SpanID:  "0000000000000001",
	}
}

// candidates returns the ordered backends a request for fn should try:
// the owner first, then the remaining backends by ascending load,
// ties broken by preference (standby) order so equally-loaded snapshot
// replicas are preferred.
func (g *Gateway) candidates(fn string) []*Backend {
	prefs := preference(g.backends, fn, 0)
	if len(prefs) > 1 {
		// Spillover order: a standby whose admission window was full at
		// the last sweep will certainly shed, so unsaturated backends go
		// first; within each group, least-loaded wins. prefs is this
		// call's own slice, so the standbys sort in place.
		rest := prefs[1:]
		sort.SliceStable(rest, func(i, j int) bool {
			si, sj := rest[i].view.Load().saturation() >= 1, rest[j].view.Load().saturation() >= 1
			if si != sj {
				return !si
			}
			return rest[i].load() < rest[j].load()
		})
	}
	return demoteStale(prefs)
}

// demoteStale keeps a stale backend (anti-entropy repairs in flight)
// usable but last: it rejoined without its acknowledged state, so
// sending sticky traffic there before re-sync finishes would trade
// snapshot locality for guaranteed misses. Order within each group is
// preserved.
func demoteStale(prefs []*Backend) []*Backend {
	sort.SliceStable(prefs, func(i, j int) bool {
		return !prefs[i].Stale() && prefs[j].Stale()
	})
	return prefs
}

// proxyResult is one backend attempt's outcome.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// do forwards one request to one backend, tracking per-backend
// in-flight load and latency. extra headers (e.g. the tenant id the
// daemon's flight recorder attributes profiles to) are copied onto the
// outgoing request.
func (g *Gateway) do(ctx context.Context, b *Backend, method, path string, query string, body []byte, sc telemetry.SpanContext, extra ...http.Header) (proxyResult, error) {
	if query != "" {
		path += "?" + query
	}
	req, err := newRequest(ctx, b, method, path, body)
	if err != nil {
		return proxyResult{}, err
	}
	for _, h := range extra {
		for k, vs := range h {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
	}
	telemetry.Inject(req.Header, sc)
	b.inflight.Add(1)
	start := time.Now()
	resp, err := g.client.Do(req)
	g.reg.Histogram("faasnap_gw_backend_seconds",
		"Wall time of forwarded backend requests, by backend.",
		telemetry.L("backend", b.Addr)).Observe(time.Since(start))
	b.inflight.Add(-1)
	if err != nil {
		return proxyResult{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return proxyResult{}, err
	}
	return proxyResult{status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

// placementFanout labels the requests a mutation sends to every replica
// (register, record, delete): they are addressed, not placed.
const placementFanout = "fanout"

func (g *Gateway) countRequest(b *Backend, placement string, status int) {
	g.reg.Counter("faasnap_gw_requests_total",
		"Requests sent to backends, by backend, placement, and status class.",
		telemetry.L("backend", b.Addr, "placement", placement, "class", statusClass(status))).Inc()
}

func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", code/100)
}

// classify is the one reading of what a backend attempt says about the
// backend's health: the table in GATEWAY.md, "Classifying an attempt".
func classify(ctx context.Context, res proxyResult, err error) resilience.Verdict {
	switch {
	case err != nil && ctx.Err() != nil:
		return resilience.NoVerdict
	case err != nil, res.status >= 500 && res.status != http.StatusGatewayTimeout:
		return resilience.Unhealthy
	}
	return resilience.Healthy
}

// attempt sends one request to one backend and is where every outcome
// reaches that backend's breaker and the request counter, exactly once.
// report is what the breaker's admission handed a gated request
// (forward); nil for one sent whatever its state (fan-out, delete).
func (g *Gateway) attempt(ctx context.Context, b *Backend, report func(resilience.Verdict), placement, method, path, query string, body []byte, sc telemetry.SpanContext, extra ...http.Header) (proxyResult, resilience.Verdict, error) {
	if report == nil {
		report = b.breaker.Report
	}
	v := resilience.NoVerdict
	defer func() { report(v) }() // also on a panic: a probe slot is never left held
	res, err := g.do(ctx, b, method, path, query, body, sc, extra...)
	if v = classify(ctx, res, err); v != resilience.NoVerdict {
		g.countRequest(b, placement, res.status)
	}
	return res, v, err
}

// handleForward routes one function-scoped request (invoke, burst,
// get, faults) with snapshot-locality-aware placement and bounded
// retry-on-another-backend. What an attempt says about its backend is
// classify's; what the request does next is decided here:
//
//   - an unhealthy attempt (transport error, 5xx) moves to the next
//     candidate;
//   - 429 honors the backend's shed and tries a less-loaded backend,
//     propagating the largest Retry-After if every candidate sheds;
//   - 404 means this backend does not hold the function — another
//     replica may, so it is a miss, not an error;
//   - deadline expiry anywhere returns 504.
//
// Successful JSON-object responses gain "placement" and "backend"
// fields recording where and how the request landed.
func (g *Gateway) handleForward(w http.ResponseWriter, r *http.Request) {
	fn := r.PathValue("name")
	if r.URL.Query().Get("watch") != "" && r.URL.Path == "/functions/"+fn+"/faults" {
		// A watch streams from the one daemon running fn; relayed here it
		// would be buffered until the deadline ran out.
		writeErr(w, http.StatusBadRequest, "a fault watch is per daemon: GET /cluster?fn=%s names the owner to watch", fn)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	// Propagate the client's trace context, or mint one, so the
	// daemon's stitched trace carries an id known at this tier.
	sc, ok := telemetry.Extract(r.Header)
	if !ok {
		sc = g.nextTraceSC()
	}
	var fwd http.Header
	if t := r.Header.Get("X-Faasnap-Tenant"); t != "" {
		fwd = http.Header{"X-Faasnap-Tenant": []string{t}}
	}

	cands := g.candidates(fn)
	if len(cands) == 0 {
		writeErr(w, http.StatusServiceUnavailable, "no backends configured")
		return
	}
	owner := preference(g.backends, fn, 1)
	attempts := 0
	sawShed, retryAfter := false, 1
	var lastMiss *proxyResult
	var lastErr error
	for _, b := range cands {
		if attempts >= retryAttempts {
			break
		}
		if ctx.Err() != nil {
			g.deadlineExceeded(w, ctx.Err())
			return
		}
		if !b.Ready() || b.load() >= g.cfg.MaxPerBackend {
			continue
		}
		report, admitted := b.breaker.Allow()
		if !admitted {
			continue
		}
		placement := PlacementRetry
		if attempts == 0 {
			placement = PlacementSpillover
			if len(owner) > 0 && b == owner[0] {
				placement = PlacementSticky
			}
		}
		attempts++
		res, v, err := g.attempt(ctx, b, report, placement, r.Method, r.URL.Path, r.URL.RawQuery, body, sc, fwd)
		switch {
		case v == resilience.NoVerdict:
			g.deadlineExceeded(w, ctx.Err())
			return
		case err != nil:
			lastErr = err
			g.log.Printf("backend %s: %s %s failed: %v", b.Addr, r.Method, r.URL.Path, err)
		case res.status == http.StatusTooManyRequests:
			// The backend shed by policy. Spill to a less-loaded backend,
			// remembering its backoff hint.
			sawShed = true
			if ra, err := strconv.Atoi(res.header.Get("Retry-After")); err == nil && ra > retryAfter {
				retryAfter = ra
			}
		case res.status == http.StatusNotFound:
			// Not registered here; a snapshot replica may hold it.
			lastMiss = &res
		case v == resilience.Unhealthy:
			lastErr = fmt.Errorf("backend %s returned %d", b.Addr, res.status)
		default:
			// 2xx, 4xx client errors, and backend 504s pass through.
			g.writeProxied(w, res, b, placement, nil)
			return
		}
	}
	if ctx.Err() != nil {
		g.deadlineExceeded(w, ctx.Err())
		return
	}
	if sawShed {
		g.reg.Counter("faasnap_gw_shed_total",
			"Requests answered 429 because every candidate backend shed.", nil).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeErr(w, http.StatusTooManyRequests, "all candidate backends saturated; retry later")
		return
	}
	if lastMiss != nil {
		g.writeRaw(w, *lastMiss)
		return
	}
	g.reg.Counter("faasnap_gw_unroutable_total",
		"Requests that exhausted every candidate backend.", nil).Inc()
	if lastErr != nil {
		writeErr(w, http.StatusServiceUnavailable, "no backend could serve the request: %v", lastErr)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, "no ready backend for %q", fn)
}

func (g *Gateway) deadlineExceeded(w http.ResponseWriter, err error) {
	g.reg.Counter("faasnap_gw_deadline_exceeded_total",
		"Requests that ran out their gateway deadline.", nil).Inc()
	writeErr(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
}

// writeProxied relays a backend response, stamping placement metadata
// (and the caller's extra fields) into JSON-object bodies and always
// into response headers.
func (g *Gateway) writeProxied(w http.ResponseWriter, res proxyResult, b *Backend, placement string, extra map[string]interface{}) {
	w.Header().Set("X-Faasnap-Backend", b.Addr)
	w.Header().Set("X-Faasnap-Placement", placement)
	var obj map[string]interface{}
	if json.Unmarshal(res.body, &obj) == nil && obj != nil {
		obj["backend"] = b.Addr
		obj["placement"] = placement
		for k, v := range extra {
			obj[k] = v
		}
		if raw, err := json.Marshal(obj); err == nil {
			res.body, res.header = raw, http.Header{"Content-Type": []string{"application/json"}}
		}
	}
	g.writeRaw(w, res)
}

func (g *Gateway) writeRaw(w http.ResponseWriter, res proxyResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// handleFanout serves PUT /functions/{name} and POST .../record:
// the mutation lands on the function's owner and is replicated to the
// next Replicas standbys in preference order, so spillover and failover
// backends already hold the snapshot state when traffic reaches them.
// The owner's response is returned (first success if the owner is
// down), extended with the list of backends that accepted the change.
func (g *Gateway) handleFanout(w http.ResponseWriter, r *http.Request) {
	fn := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	sc, ok := telemetry.Extract(r.Header)
	if !ok {
		sc = g.nextTraceSC()
	}
	prefs := preference(g.backends, fn, 1+g.cfg.Replicas)
	if len(prefs) == 0 {
		writeErr(w, http.StatusServiceUnavailable, "no backends configured")
		return
	}
	var accepted []string
	var first, clientErr *proxyResult
	var firstBackend *Backend
	for _, b := range prefs {
		if ctx.Err() != nil {
			g.deadlineExceeded(w, ctx.Err())
			return
		}
		if !b.Ready() {
			continue
		}
		res, _, err := g.attempt(ctx, b, nil, placementFanout, r.Method, r.URL.Path, r.URL.RawQuery, body, sc)
		if err != nil {
			g.log.Printf("fanout %s to %s failed: %v", r.URL.Path, b.Addr, err)
			continue
		}
		if res.status/100 == 2 {
			accepted = append(accepted, b.Addr)
			if first == nil {
				first, firstBackend = &res, b
			}
		} else if res.status < 500 {
			// A 4xx is deterministic (bad spec, unknown function):
			// every backend would refuse it the same way.
			clientErr = &res
			break
		}
	}
	if first == nil {
		if clientErr != nil {
			g.writeRaw(w, *clientErr)
			return
		}
		if ctx.Err() != nil {
			g.deadlineExceeded(w, ctx.Err())
			return
		}
		writeErr(w, http.StatusServiceUnavailable, "no backend accepted %s %s", r.Method, r.URL.Path)
		return
	}
	placement := PlacementSpillover
	if firstBackend == prefs[0] {
		placement = PlacementSticky
	}
	g.writeProxied(w, *first, firstBackend, placement, map[string]interface{}{"replicated_to": accepted})
}

// handleListAll merges GET /functions across every ready backend,
// deduplicating by name and annotating each entry with the backends
// that hold it.
func (g *Gateway) handleListAll(w http.ResponseWriter, r *http.Request) {
	per, addrs := fanOut[[]map[string]interface{}](r.Context(), g, "/functions")
	merged := make(map[string]map[string]interface{})
	for _, addr := range addrs {
		for _, entry := range *per[addr] {
			name, _ := entry["name"].(string)
			if name == "" {
				continue
			}
			if have, ok := merged[name]; ok {
				have["backends"] = append(have["backends"].([]string), addr)
			} else {
				entry["backends"] = []string{addr}
				merged[name] = entry
			}
		}
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]map[string]interface{}, 0, len(names))
	for _, n := range names {
		out = append(out, merged[n])
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDeleteAll removes a function everywhere it lives; 204 if any
// backend had it.
func (g *Gateway) handleDeleteAll(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	found := false
	for _, b := range g.backends {
		if !b.Ready() {
			continue
		}
		res, _, err := g.attempt(ctx, b, nil, placementFanout, http.MethodDelete, r.URL.Path, "", nil, telemetry.SpanContext{})
		if err == nil && res.status/100 == 2 {
			found = true
		}
	}
	if !found {
		writeErr(w, http.StatusNotFound, "function %q not found on any backend", r.PathValue("name"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}
