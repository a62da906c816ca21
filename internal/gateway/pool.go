package gateway

// The backend pool: one entry per configured faasnapd, actively health
// checked. Each sweep asks every daemon one question — GET /status —
// and keeps the answer as one immutable snapshot: the routing verdict
// (a backend that answers /healthz but cannot persist snapshots or
// reach its kvstore is drained, not black-holed), the admission
// window's occupancy (the one load figure placement reads; a backend
// that fills up between sweeps says so with its own 429), and the
// durable-state summary the anti-entropy pass compares.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/daemon"
	"faasnap/internal/events"
	"faasnap/internal/resilience"
	"faasnap/internal/telemetry"
)

// Backend is one faasnapd the gateway routes to.
type Backend struct {
	// Addr is the daemon's host:port; it doubles as the backend's
	// identity in placement.
	Addr string

	breaker *resilience.Breaker

	// view is what the last sweep learned, swapped whole; never nil.
	view atomic.Pointer[backendView]
	// stale marks a backend an anti-entropy pass found missing
	// acknowledged state — demoted in placement until a pass that has
	// its status finds nothing to repair.
	stale atomic.Bool
}

// backendView is one sweep's answer from one backend: the daemon's
// GET /status reply, zero when the daemon did not answer; err says why
// it did not, or why it is not ready.
type backendView struct {
	daemon.StatusResponse
	err     string
	checked time.Time
}

// Ready reports the last health sweep's verdict.
func (b *Backend) Ready() bool { return b.view.Load().Ready }

// Stale reports the last anti-entropy verdict: true while re-sync
// repairs are in flight for this backend.
func (b *Backend) Stale() bool { return b.stale.Load() }

// saturation is the backend's admission-window occupancy in [0, 1] from
// the last sweep (0 until one has reported the admission window): the
// one load figure placement reads.
func (v *backendView) saturation() float64 {
	if v.AdmissionMax <= 0 {
		return 0
	}
	return float64(v.AdmissionUsed) / float64(v.AdmissionMax)
}

// BackendStatus is a backend's row in GET /cluster.
type BackendStatus struct {
	Addr           string  `json:"addr"`
	Ready          bool    `json:"ready"`
	Breaker        string  `json:"breaker"`
	AdmissionUsed  int64   `json:"admission_used"`
	AdmissionMax   int64   `json:"admission_max"`
	Saturation     float64 `json:"saturation"`
	Stale          bool    `json:"stale"`
	ManifestDigest string  `json:"manifest_digest,omitempty"`
	LastError      string  `json:"last_error,omitempty"`
	LastCheck      string  `json:"last_check,omitempty"`
}

func (b *Backend) status() BackendStatus {
	v := b.view.Load()
	st := BackendStatus{
		Addr:           b.Addr,
		Ready:          v.Ready,
		Breaker:        b.breaker.State().String(),
		AdmissionUsed:  v.AdmissionUsed,
		AdmissionMax:   v.AdmissionMax,
		Saturation:     v.saturation(),
		Stale:          b.Stale(),
		ManifestDigest: v.Digest,
		LastError:      v.err,
	}
	if !v.checked.IsZero() {
		st.LastCheck = v.checked.Format(time.RFC3339Nano)
	}
	return st
}

// newBackend builds one backend entry; every breaker transition lands
// on the per-backend gauge and in ledger.
func newBackend(addr string, reg *telemetry.Registry, ledger *events.Ledger) *Backend {
	b := &Backend{Addr: addr}
	b.view.Store(&backendView{err: "not checked yet"})
	gauge := reg.Gauge("faasnap_gw_breaker_state",
		"Per-backend circuit-breaker state (0 closed, 1 open, 2 half-open).",
		telemetry.L("backend", addr))
	b.breaker = resilience.NewBreaker(breakerThreshold, breakerCooldown,
		func(s resilience.BreakerState) {
			gauge.Set(float64(s))
			ledger.Append(events.Event{
				Type:   events.BreakerTransition,
				Fields: map[string]string{"backend": addr, "state": s.String()},
			})
		})
	return b
}

// start launches the health loop. The first sweep runs synchronously
// so a freshly-built gateway has a verdict for every backend before it
// serves its first request; every sweep is followed by an anti-entropy
// pass so a rejoined-but-stale backend is repaired within one interval
// of coming back.
func (g *Gateway) start() {
	sweepHist := g.reg.Histogram("faasnap_gw_sweep_seconds",
		"Wall time of one health-check plus anti-entropy sweep across all backends.", nil)
	sweep := func() {
		t0 := time.Now()
		g.CheckNow()
		g.ResyncNow()
		sweepHist.Observe(time.Since(t0))
	}
	sweep()
	go func() {
		defer close(g.done)
		t := time.NewTicker(g.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-g.ctx.Done():
				return
			case <-t.C:
				sweep()
			}
		}
	}()
}

// CheckNow runs one health + load sweep across all backends,
// concurrently, and returns when every verdict is in.
func (g *Gateway) CheckNow() {
	g.fanMu.Lock()
	maps.DeleteFunc(g.fanouts, func(_ string, n int) bool { return n == 0 })
	g.fanMu.Unlock()
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			g.check(b)
		}(b)
	}
	wg.Wait()
}

// check asks one backend its one question and swaps the answer in.
func (g *Gateway) check(b *Backend) {
	v := &backendView{checked: time.Now()}
	ctx, cancel := context.WithTimeout(g.ctx, probeTimeout)
	defer cancel()
	if err := g.callBackend(ctx, b, http.MethodGet, "/status", nil, &v.StatusResponse); err != nil {
		*v = backendView{checked: v.checked, err: err.Error()}
	} else if !v.Ready {
		v.err = "not ready: " + strings.Join(v.Reasons, "; ")
	}
	b.view.Store(v)

	gauge := func(name, help string, val float64) {
		g.reg.Gauge(name, help, telemetry.L("backend", b.Addr)).Set(val)
	}
	gauge("faasnap_gw_backend_up",
		"Backend readiness as seen by the gateway health checker (1 ready).", oneIf(v.Ready))
	gauge("faasnap_gw_backend_admission_used",
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

// newRequest builds every request the gateway sends to a daemon: target
// is the path, with its query if any, on b's normal API.
func newRequest(ctx context.Context, b *Backend, method, target string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+b.Addr+target, rd)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// callBackend issues one request against a backend's normal API,
// decoding a 2xx JSON answer into out when out is non-nil; any other
// outcome is an error. It carries the sweep's status question, the
// fan-outs of GET /functions and the /cluster roll-ups, and the repairs
// — which ride the same endpoints clients use, so every daemon-side
// invariant (journaling, verification, quarantine) applies to
// replicated state too.
func (g *Gateway) callBackend(ctx context.Context, b *Backend, method, target string, body []byte, out interface{}) error {
	req, err := newRequest(ctx, b, method, target, body)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s returned %d", method, target, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(out)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}
