package gateway

// The backend pool: one entry per configured faasnapd, actively health
// checked. Liveness/readiness comes from each daemon's GET /readyz (a
// backend that answers /healthz but cannot persist snapshots or reach
// its kvstore is drained, not black-holed); load comes from scraping
// the daemon's Prometheus /metrics for its in-flight gauge, combined
// with the gateway's own per-backend in-flight count, which reacts
// faster than the scrape interval.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/events"
	"faasnap/internal/obs"
	"faasnap/internal/resilience"
	"faasnap/internal/slo"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
)

// Backend is one faasnapd the gateway routes to.
type Backend struct {
	// Addr is the daemon's host:port; it doubles as the backend's
	// identity on the placement ring.
	Addr string

	breaker  *resilience.Breaker
	inflight atomic.Int64 // requests this gateway currently has open

	mu        sync.Mutex
	ready     bool
	lastErr   string
	lastCheck time.Time
	scraped   float64 // daemon-reported in-flight from the last scrape
	admitted  float64 // daemon admission-limiter occupancy
	capacity  float64 // daemon admission-limiter window

	// Observability snapshots from the last sweep, feeding the gateway's
	// /cluster/slo and /cluster/profiles roll-ups. Nil until a sweep has
	// fetched them.
	sloRep  *slo.Report
	profSum *obs.Summary

	// manifest is the durable-state summary from the last sweep (nil for
	// stateless daemons); stale marks a backend the last anti-entropy
	// pass found missing acknowledged state — demoted in placement until
	// a pass finds nothing to repair.
	manifest *manifestInfo
	stale    bool
}

// Ready reports the last health sweep's verdict.
func (b *Backend) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready
}

func (b *Backend) setReady(ready bool, reason string) {
	b.mu.Lock()
	b.ready = ready
	b.lastErr = reason
	b.lastCheck = time.Now()
	b.mu.Unlock()
}

func (b *Backend) setScraped(inflight, admitted, capacity float64) {
	b.mu.Lock()
	b.scraped = inflight
	b.admitted = admitted
	b.capacity = capacity
	b.mu.Unlock()
}

func (b *Backend) setObserved(rep *slo.Report, sum *obs.Summary) {
	b.mu.Lock()
	b.sloRep = rep
	b.profSum = sum
	b.mu.Unlock()
}

func (b *Backend) setManifest(mi *manifestInfo) {
	b.mu.Lock()
	b.manifest = mi
	b.mu.Unlock()
}

// manifestInfo returns the backend's /manifest snapshot from the last
// sweep.
func (b *Backend) manifestInfo() *manifestInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.manifest
}

func (b *Backend) setStale(s bool) {
	b.mu.Lock()
	b.stale = s
	b.mu.Unlock()
}

// Stale reports the last anti-entropy verdict: true while re-sync
// repairs are in flight for this backend.
func (b *Backend) Stale() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stale
}

// sloReport returns the backend's /slo report from the last sweep.
func (b *Backend) sloReport() *slo.Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sloRep
}

// profileSummary returns the backend's /profiles?summary=1 aggregation
// from the last sweep.
func (b *Backend) profileSummary() *obs.Summary {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.profSum
}

// saturation is the backend's admission-window occupancy in [0, 1] from
// the last scrape (0 until a scrape has reported the admission gauges).
func (b *Backend) saturation() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.capacity <= 0 {
		return 0
	}
	return b.admitted / b.capacity
}

// load is the placement load signal: the gateway's own open requests
// plus the daemon's last-scraped in-flight gauge (which counts load
// arriving from other gateways or direct clients).
func (b *Backend) load() int64 {
	b.mu.Lock()
	scraped := b.scraped
	b.mu.Unlock()
	return b.inflight.Load() + int64(scraped)
}

// BackendStatus is a backend's row in GET /cluster.
type BackendStatus struct {
	Addr            string  `json:"addr"`
	Ready           bool    `json:"ready"`
	Breaker         string  `json:"breaker"`
	InFlightGateway int64   `json:"inflight_gateway"`
	InFlightDaemon  int64   `json:"inflight_daemon"`
	AdmissionUsed   int64   `json:"admission_used"`
	AdmissionMax    int64   `json:"admission_max"`
	Saturation      float64 `json:"saturation"`
	Stale           bool    `json:"stale"`
	ManifestDigest  string  `json:"manifest_digest,omitempty"`
	LastError       string  `json:"last_error,omitempty"`
	LastCheck       string  `json:"last_check,omitempty"`
}

func (b *Backend) status() BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BackendStatus{
		Addr:            b.Addr,
		Ready:           b.ready,
		Breaker:         b.breaker.State().String(),
		InFlightGateway: b.inflight.Load(),
		InFlightDaemon:  int64(b.scraped),
		AdmissionUsed:   int64(b.admitted),
		AdmissionMax:    int64(b.capacity),
		Stale:           b.stale,
		LastError:       b.lastErr,
	}
	if b.manifest != nil {
		st.ManifestDigest = b.manifest.Digest
	}
	if b.capacity > 0 {
		st.Saturation = b.admitted / b.capacity
	}
	if !b.lastCheck.IsZero() {
		st.LastCheck = b.lastCheck.Format(time.RFC3339Nano)
	}
	return st
}

// Pool owns the backend set, the placement ring, and the health loop.
type Pool struct {
	ring     *Ring
	client   *http.Client
	interval time.Duration
	reg      *telemetry.Registry
	// replicas is the gateway's standby count: a function's replica set
	// (the anti-entropy repair scope) is the ring owner + replicas.
	replicas int

	mu       sync.RWMutex
	backends map[string]*Backend

	// events/traces are the gateway's ledger and trace store, wired by
	// New before start; nil in bare-pool tests. repairMu/lastRepairSeq
	// remember each backend's most recent repair event so the converged
	// event a later pass emits can cite it as cause_seq.
	events        *events.Ledger
	traces        *trace.Store
	repairMu      sync.Mutex
	lastRepairSeq map[string]uint64

	stop chan struct{}
	done chan struct{}
}

func newPool(addrs []string, vnodes int, interval time.Duration, breakerThreshold int, breakerCooldown time.Duration, reg *telemetry.Registry) *Pool {
	p := &Pool{
		ring:          NewRing(vnodes),
		client:        &http.Client{Timeout: 2 * time.Second},
		interval:      interval,
		reg:           reg,
		backends:      make(map[string]*Backend),
		lastRepairSeq: make(map[string]uint64),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	for _, addr := range addrs {
		if _, dup := p.backends[addr]; dup {
			continue
		}
		b := &Backend{Addr: addr}
		gauge := reg.Gauge("faasnap_gw_breaker_state",
			"Per-backend circuit-breaker state (0 closed, 1 open, 2 half-open).",
			telemetry.L("backend", addr))
		b.breaker = resilience.NewBreaker(breakerThreshold, breakerCooldown,
			func(s resilience.BreakerState) {
				gauge.Set(float64(s))
				if p.events != nil {
					p.events.Append(events.Event{
						Type:   events.BreakerTransition,
						Fields: map[string]string{"backend": addr, "state": s.String()},
					})
				}
			})
		p.backends[addr] = b
		p.ring.Add(addr)
	}
	return p
}

// start launches the health loop. The first sweep runs synchronously
// so a freshly-built gateway has a verdict for every backend before it
// serves its first request; every sweep is followed by an anti-entropy
// pass so a rejoined-but-stale backend is repaired within one interval
// of coming back.
func (p *Pool) start() {
	sweepHist := p.reg.Histogram("faasnap_gw_sweep_seconds",
		"Wall time of one health-check plus anti-entropy sweep across all backends.", nil)
	sweep := func() {
		t0 := time.Now()
		p.CheckNow()
		p.ResyncNow()
		sweepHist.Observe(time.Since(t0))
	}
	sweep()
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				sweep()
			}
		}
	}()
}

func (p *Pool) close() {
	close(p.stop)
	<-p.done
}

// CheckNow runs one health + load sweep across all backends,
// concurrently, and returns when every verdict is in.
func (p *Pool) CheckNow() {
	var wg sync.WaitGroup
	for _, b := range p.snapshot() {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			p.check(b)
		}(b)
	}
	wg.Wait()
}

// check probes one backend: /readyz for the routing verdict, /metrics
// for the daemon's own in-flight load.
func (p *Pool) check(b *Backend) {
	up := p.reg.Gauge("faasnap_gw_backend_up",
		"Backend readiness as seen by the gateway health checker (1 ready).",
		telemetry.L("backend", b.Addr))
	resp, err := p.client.Get("http://" + b.Addr + "/readyz")
	if err != nil {
		b.setReady(false, err.Error())
		up.Set(0)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.setReady(false, fmt.Sprintf("readyz returned %d", resp.StatusCode))
		up.Set(0)
		return
	}
	b.setReady(true, "")
	up.Set(1)

	if mresp, err := p.client.Get("http://" + b.Addr + "/metrics"); err == nil {
		sums := sumPromGauges(io.LimitReader(mresp.Body, 1<<20),
			"faasnap_http_in_flight", "faasnap_admission_inflight", "faasnap_admission_capacity")
		mresp.Body.Close()
		inflight := sums["faasnap_http_in_flight"]
		admitted := sums["faasnap_admission_inflight"]
		capacity := sums["faasnap_admission_capacity"]
		b.setScraped(inflight, admitted, capacity)
		p.reg.Gauge("faasnap_gw_backend_inflight",
			"Daemon-reported in-flight requests from the last /metrics scrape.",
			telemetry.L("backend", b.Addr)).Set(inflight)
		p.reg.Gauge("faasnap_gw_backend_admission_inflight",
			"Daemon admission-limiter occupancy from the last /metrics scrape.",
			telemetry.L("backend", b.Addr)).Set(admitted)
		if capacity > 0 {
			p.reg.Gauge("faasnap_gw_backend_saturation",
				"Backend admission-window occupancy in [0,1] from the last scrape.",
				telemetry.L("backend", b.Addr)).Set(admitted / capacity)
		}
	}

	b.setObserved(p.fetchSLO(b), p.fetchProfiles(b))
	b.setManifest(p.fetchManifest(b))
}

// callBackend issues one request against a backend's normal API,
// decoding a 2xx JSON answer into out when out is non-nil; true on a
// 2xx answer. It carries the sweep's scrapes and its repairs — which
// ride the same endpoints clients use, so every daemon-side invariant
// (journaling, verification, quarantine) applies to replicated state
// too.
func (p *Pool) callBackend(ctx context.Context, b *Backend, method, path string, body []byte, out interface{}) bool {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+b.Addr+path, rd)
	if err != nil {
		return false
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false
	}
	if out != nil {
		return json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(out) == nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return true
}

// fetchSLO pulls one backend's GET /slo report and mirrors its burn
// rates into per-backend gateway gauges, so one scrape of the gateway
// shows which backend is burning which function's budget.
func (p *Pool) fetchSLO(b *Backend) *slo.Report {
	var rep slo.Report
	if !p.callBackend(context.Background(), b, http.MethodGet, "/slo", nil, &rep) {
		return nil
	}
	for _, f := range rep.Functions {
		p.reg.Gauge("faasnap_gw_backend_attainment",
			"Per-backend SLO attainment from the last /slo sweep.",
			telemetry.L("backend", b.Addr, "function", f.Function)).Set(f.Attainment)
		for _, w := range f.Windows {
			p.reg.Gauge("faasnap_gw_backend_burn_rate",
				"Per-backend error-budget burn rate from the last /slo sweep.",
				telemetry.L("backend", b.Addr, "function", f.Function, "window", w.Window)).Set(w.BurnRate)
		}
	}
	return &rep
}

// fetchProfiles pulls one backend's flight-recorder aggregation.
func (p *Pool) fetchProfiles(b *Backend) *obs.Summary {
	var sum obs.Summary
	if !p.callBackend(context.Background(), b, http.MethodGet, "/profiles?summary=1", nil, &sum) {
		return nil
	}
	return &sum
}

// sumPromGauges sums every series of each named metric family in one
// pass over a Prometheus text exposition stream. Parsing is
// deliberately minimal: the gateway only needs a few daemon gauges, not
// a full scrape model.
func sumPromGauges(r io.Reader, names ...string) map[string]float64 {
	sums := make(map[string]float64, len(names))
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, name := range names {
			if !strings.HasPrefix(line, name) {
				continue
			}
			rest := line[len(name):]
			// Series are "name{labels} value" or "name value"; skip
			// other families sharing the prefix (e.g. name_total).
			if len(rest) > 0 && rest[0] != '{' && rest[0] != ' ' {
				continue
			}
			i := strings.LastIndexByte(rest, ' ')
			if i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
				sums[name] += v
			}
			break
		}
	}
	return sums
}

// snapshot returns the backend list in stable (address) order.
func (p *Pool) snapshot() []*Backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Backend, 0, len(p.backends))
	for _, addr := range p.ring.Members() {
		if b, ok := p.backends[addr]; ok {
			out = append(out, b)
		}
	}
	return out
}

// backend looks up one backend by address.
func (p *Pool) backend(addr string) (*Backend, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	b, ok := p.backends[addr]
	return b, ok
}

// preference maps the ring's member order for key onto live Backend
// structs: element 0 is the sticky owner.
func (p *Pool) preference(key string, n int) []*Backend {
	addrs := p.ring.Preference(key, n)
	out := make([]*Backend, 0, len(addrs))
	for _, a := range addrs {
		if b, ok := p.backend(a); ok {
			out = append(out, b)
		}
	}
	return out
}
