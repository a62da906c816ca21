package gateway

// The backend pool: one entry per configured faasnapd, actively health
// checked. Each sweep asks every daemon one question — GET /status —
// and keeps the answer as one immutable snapshot: the routing verdict
// (a backend that answers /healthz but cannot persist snapshots or
// reach its kvstore is drained, not black-holed), the daemon's own
// in-flight and admission load (combined with the gateway's per-backend
// in-flight count, which reacts faster than the sweep interval), and
// the durable-state summary the anti-entropy pass compares.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/events"
	"faasnap/internal/resilience"
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

	// view is what the last sweep learned, swapped whole; never nil.
	view atomic.Pointer[backendView]
	// stale marks a backend an anti-entropy pass found missing
	// acknowledged state — demoted in placement until a pass that has
	// its status finds nothing to repair.
	stale atomic.Bool
}

// backendView is one sweep's answer from one backend.
type backendView struct {
	// backendState is the daemon's GET /status reply, zero when the
	// daemon did not answer; err says why it did not, or why it is not
	// ready.
	backendState
	err     string
	checked time.Time
}

// backendState mirrors the daemon's GET /status reply.
type backendState struct {
	Ready         bool     `json:"ready"`
	Reasons       []string `json:"reasons"`
	Recovering    bool     `json:"recovering"`
	InFlight      int64    `json:"inflight"`
	AdmissionUsed int64    `json:"admission_used"`
	AdmissionMax  int64    `json:"admission_max"`
	// Digest and Functions are the durable-state summary; a daemon
	// without a state dir sends neither.
	Digest    string          `json:"digest"`
	Functions []manifestEntry `json:"functions"`
}

// Ready reports the last health sweep's verdict.
func (b *Backend) Ready() bool { return b.view.Load().Ready }

// Stale reports the last anti-entropy verdict: true while re-sync
// repairs are in flight for this backend.
func (b *Backend) Stale() bool { return b.stale.Load() }

// saturation is the backend's admission-window occupancy in [0, 1] from
// the last sweep (0 until one has reported the admission window).
func (v *backendView) saturation() float64 {
	if v.AdmissionMax <= 0 {
		return 0
	}
	return float64(v.AdmissionUsed) / float64(v.AdmissionMax)
}

// load is the placement load signal: the gateway's own open requests
// plus the daemon's in-flight count from the last sweep (which counts
// load arriving from other gateways or direct clients).
func (b *Backend) load() int64 {
	return b.inflight.Load() + b.view.Load().InFlight
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
	v := b.view.Load()
	st := BackendStatus{
		Addr:            b.Addr,
		Ready:           v.Ready,
		Breaker:         b.breaker.State().String(),
		InFlightGateway: b.inflight.Load(),
		InFlightDaemon:  v.InFlight,
		AdmissionUsed:   v.AdmissionUsed,
		AdmissionMax:    v.AdmissionMax,
		Saturation:      v.saturation(),
		Stale:           b.Stale(),
		ManifestDigest:  v.Digest,
		LastError:       v.err,
	}
	if !v.checked.IsZero() {
		st.LastCheck = v.checked.Format(time.RFC3339Nano)
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

	backends map[string]*Backend // fixed at construction

	// events/traces are the gateway's ledger and trace store, wired by
	// New before start; nil in bare-pool tests. resyncMu makes
	// anti-entropy passes one at a time, ticker and callers alike;
	// under it, lastRepairSeq remembers each backend's most recent
	// repair event so the converged event a later pass emits can cite it
	// as cause_seq.
	events        *events.Ledger
	traces        *trace.Store
	resyncMu      sync.Mutex
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
		b.view.Store(&backendView{err: "not checked yet"})
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

// check asks one backend its one question and swaps the answer in.
func (p *Pool) check(b *Backend) {
	v := &backendView{checked: time.Now()}
	if err := p.callBackend(context.Background(), b, http.MethodGet, "/status", nil, &v.backendState); err != nil {
		*v = backendView{checked: v.checked, err: err.Error()}
	} else if !v.Ready {
		v.err = "not ready: " + strings.Join(v.Reasons, "; ")
	}
	b.view.Store(v)

	gauge := func(name, help string, val float64) {
		p.reg.Gauge(name, help, telemetry.L("backend", b.Addr)).Set(val)
	}
	gauge("faasnap_gw_backend_up",
		"Backend readiness as seen by the gateway health checker (1 ready).", oneIf(v.Ready))
	gauge("faasnap_gw_backend_inflight",
		"Daemon-reported in-flight requests from the last status sweep.", float64(v.InFlight))
	gauge("faasnap_gw_backend_admission_inflight",
		"Daemon admission-limiter occupancy from the last status sweep.", float64(v.AdmissionUsed))
	gauge("faasnap_gw_backend_saturation",
		"Backend admission-window occupancy in [0,1] from the last status sweep.", v.saturation())
}

// oneIf is a boolean as a gauge value.
func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// callBackend issues one request against a backend's normal API,
// decoding a 2xx JSON answer into out when out is non-nil; any other
// outcome is an error. It carries the sweep's status question, the
// /cluster roll-ups' fan-out and the repairs — which ride the same
// endpoints clients use, so every daemon-side invariant (journaling,
// verification, quarantine) applies to replicated state too.
func (p *Pool) callBackend(ctx context.Context, b *Backend, method, path string, body []byte, out interface{}) error {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+b.Addr+path, rd)
	if err != nil {
		return err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s returned %d", method, path, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(out)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}

// snapshot returns the backend list in stable (address) order.
func (p *Pool) snapshot() []*Backend {
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
