package daemon

// The daemon's failure handling: admission control, deadlines, retried
// restores behind a per-function circuit breaker, and the graceful-
// degradation fallback chain. The design goal is that the invoke path
// never returns a 500 for a snapshot-layer failure — it retries, falls
// back toward a cold boot (which needs no snapshot at all), or sheds
// the request with 429 before taking it on. See RESILIENCE.md.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/resilience"
	"faasnap/internal/telemetry"
	"faasnap/internal/vmm"
)

// ResilienceConfig tunes the invocation pipeline's failure handling.
// Zero fields take the defaults below.
type ResilienceConfig struct {
	// InvokeTimeout is the per-request deadline propagated from the
	// daemon through the VMM client to the guest agent.
	InvokeTimeout time.Duration
	// MaxInFlight bounds admitted work across /invoke (weight 1) and
	// /burst (weight = parallel); excess requests get 429 + Retry-After.
	// It is also the widest burst accepted: a wider one could never be
	// admitted and gets 400.
	MaxInFlight int64
}

const (
	// One restore gets restoreAttempts tries (the first included), with
	// exponential backoff from restoreBackoff between them.
	restoreAttempts = 3
	restoreBackoff  = 2 * time.Millisecond
	// A function's circuit breaker opens after breakerThreshold restore
	// failures in a row and admits one half-open probe breakerCooldown
	// later.
	breakerThreshold = 3
	breakerCooldown  = 2 * time.Second
)

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.InvokeTimeout == 0 {
		c.InvokeTimeout = 30 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	return c
}

// Sentinel errors for the daemon's error paths; handlers classify with
// errors.Is rather than matching message strings.
var (
	errNotRegistered = failf(http.StatusNotFound, "function not registered")
	errNoSnapshot    = errors.New("function has no snapshot; POST /functions/{name}/record first")
	errCircuitOpen   = errors.New("circuit breaker open")
)

// breaker returns (creating on first use) the named function's circuit
// breaker, with its state mirrored into the telemetry gauge. The map is
// read-dominated — every invoke loads, only a function's first invoke
// stores — so it lives in a sync.Map instead of behind a global mutex.
func (d *Daemon) breaker(fn string) *resilience.Breaker {
	if b, ok := d.breakers.Load(fn); ok {
		return b.(*resilience.Breaker)
	}
	gauge := d.telemetry.Gauge("faasnap_breaker_state",
		"Restore circuit-breaker state per function (0 closed, 1 open, 2 half-open).",
		telemetry.L("function", fn))
	b := resilience.NewBreaker(breakerThreshold, breakerCooldown,
		func(s resilience.BreakerState) {
			gauge.Set(float64(s))
			d.publishEvent(events.Event{
				Type:     events.BreakerTransition,
				Function: fn,
				Fields:   map[string]string{"state": s.String()},
			})
		})
	actual, _ := d.breakers.LoadOrStore(fn, b)
	return actual.(*resilience.Breaker)
}

// admit acquires weight w from the admission limiter, mirroring the new
// occupancy into the scrape surface the gateway's health sweep reads.
func (d *Daemon) admit(w int64) bool {
	if !d.limiter.Acquire(w) {
		return false
	}
	d.admInFlight.Set(float64(d.limiter.InFlight()))
	return true
}

// release returns weight admitted by admit.
func (d *Daemon) release(w int64) {
	d.limiter.Release(w)
	d.admInFlight.Set(float64(d.limiter.InFlight()))
}

// ShedRetryAfter is the Retry-After, in seconds, of every shed: by a
// daemon at admission, and by a gateway whose backends' windows are all
// full. A shed request exceeds the window by at most one window (the
// admitted weight is within it, and validation keeps a burst within it),
// so the work ahead of it plus its own drains in two windows.
const ShedRetryAfter = 2

// shed rejects a request at admission with Retry-After ShedRetryAfter,
// so well-behaved clients back off instead of hammering a saturated
// host.
func (d *Daemon) shed(w http.ResponseWriter, route string) {
	d.telemetry.Counter("faasnap_invoke_shed_total",
		"Requests shed by admission control, by route.",
		telemetry.L("route", route)).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(ShedRetryAfter))
	writeErr(w, http.StatusTooManyRequests,
		"server saturated (%d/%d in flight); retry later", d.limiter.InFlight(), d.limiter.Max())
}

// deadlineExceeded reports a request that ran out its deadline.
func (d *Daemon) deadlineExceeded(w http.ResponseWriter, route string, err error) {
	d.telemetry.Counter("faasnap_deadline_exceeded_total",
		"Requests that exceeded their deadline, by route.",
		telemetry.L("route", route)).Inc()
	writeErr(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
}

// fallbackChain orders the modes a restore failure degrades through:
// the requested mode, then Cached (a plain snapshot restore without
// FaaSnap's mapping machinery), then a cold boot, which needs no
// snapshot artifacts at all and therefore always terminates the chain.
// Warm and cold requests need no restore and never degrade.
func fallbackChain(mode core.Mode) []core.Mode {
	switch mode {
	case core.ModeWarm, core.ModeCold:
		return []core.Mode{mode}
	case core.ModeCached:
		return []core.Mode{core.ModeCached, core.ModeCold}
	default:
		return []core.Mode{mode, core.ModeCached, core.ModeCold}
	}
}

// restoreOutcome is how the restore phase of one invocation ended.
type restoreOutcome struct {
	mode    core.Mode // the mode actually served
	spans   []telemetry.RemoteSpan
	reason  string // non-empty when mode differs from the request
	retries int    // restore attempts beyond the first, across the chain
}

// loadBodies are a published snapshot's PUT /snapshot/load bodies,
// each encoded by the first restore that sends it: the plain one, and
// the one carrying the mapping plan as FaaSnap's region maps. They are
// a pure function of the view's artifacts, and a re-record or sync
// publishes a new view, so a body is never stale.
type loadBodies struct {
	plain, mapped onceLoad
}

type onceLoad struct {
	once sync.Once
	body vmm.EncodedLoad
	err  error
}

// load returns the view's snapshot-load body for a restore in mode,
// encoding it on first use.
func (v *view) load(mode core.Mode) (vmm.EncodedLoad, error) {
	mapped := mode == core.ModeFaaSnap || mode == core.ModePerRegion
	o := &v.loads.plain
	if mapped {
		o = &v.loads.mapped
	}
	o.once.Do(func() {
		req := vmm.SnapshotLoadRequest{
			SnapshotPath: "/snapshots/" + v.name + ".state",
			MemBackend:   vmm.MemBackend{BackendType: "File", BackendPath: "/snapshots/" + v.name + ".mem"},
			ResumeVM:     true,
		}
		if mapped {
			req.RegionMaps = regionMaps(v.arts, v.name)
		}
		o.body, o.err = vmm.EncodeLoad(req)
	})
	return o.body, o.err
}

// regionMaps converts the artifacts' mapping plan into the VMM API's
// region-map extension.
func regionMaps(arts *core.Artifacts, name string) []vmm.RegionMap {
	var out []vmm.RegionMap
	for _, m := range arts.MappingPlan(true) {
		rm := vmm.RegionMap{StartPage: m.Start, Pages: m.Pages}
		switch m.Backing {
		case core.MapAnon:
			rm.Backing = "anonymous"
		case core.MapMemoryFile:
			rm.Backing = "memory_file"
			rm.Path = "/snapshots/" + name + ".mem"
			rm.Offset = m.FileOff
		case core.MapLoadingSet:
			rm.Backing = "loading_set"
			rm.Path = "/snapshots/" + name + ".ls"
			rm.Offset = m.FileOff
		}
		out = append(out, rm)
	}
	return out
}

// restoreVMM drives one snapshot restore of v through the
// Firecracker-style API with bounded retries: each attempt gets a fresh
// VMM (a failed load leaves the instance unusable, as with real
// Firecracker), and only transient errors (transport, 5xx, injected
// faults) re-try. Every attempt sends the view's one encoded body.
func (d *Daemon) restoreVMM(ctx context.Context, name string, v *view, mode core.Mode, sc telemetry.SpanContext) ([]telemetry.RemoteSpan, int, error) {
	body, err := v.load(mode)
	if err != nil {
		return nil, 0, fmt.Errorf("encode snapshot load: %w", err)
	}
	var spans []telemetry.RemoteSpan
	attempt := 0
	err = resilience.Retry(ctx, restoreAttempts, restoreBackoff, vmm.Retryable, func() error {
		attempt++
		if attempt > 1 {
			d.telemetry.Counter("faasnap_restore_retries_total",
				"Snapshot-restore attempts beyond the first, by function.",
				telemetry.L("function", name)).Inc()
		}
		m := vmm.Launch(name + "-restore")
		m.SetTelemetry(d.telemetry)
		m.SetChaos(d.chaos)
		defer m.Close()
		c := m.Client()
		c.SetContext(ctx)
		c.SetTraceContext(sc)
		if err := c.LoadSnapshot(body); err != nil {
			return err
		}
		if st := m.State(); st != vmm.StateRunning {
			return fmt.Errorf("restored VM in state %q", st)
		}
		spans = c.TraceSpans()
		return nil
	})
	retries := attempt - 1
	if retries < 0 {
		retries = 0
	}
	return spans, retries, err
}

// resilientRestore walks the fallback chain until a restore succeeds or
// a mode needing none is reached. Every restore is guarded by the
// function's circuit breaker — an open breaker skips straight down the
// chain without burning attempts on a known-bad path. The only error it
// returns is deadline expiry: the chain ends in a cold boot, which
// cannot fail at this layer.
func (d *Daemon) resilientRestore(ctx context.Context, fn string, v *view, mode core.Mode, sc telemetry.SpanContext) (restoreOutcome, error) {
	out := restoreOutcome{mode: mode}
	chain := fallbackChain(mode)
	for i, m := range chain {
		if m == core.ModeWarm || m == core.ModeCold {
			out.mode = m
			return out, nil
		}
		err := errCircuitOpen
		if report, admitted := d.breaker(fn).Allow(); admitted {
			var spans []telemetry.RemoteSpan
			var retries int
			spans, retries, err = d.restoreVMM(ctx, fn, v, m, sc)
			out.retries += retries
			if err == nil {
				report(resilience.Healthy)
				out.mode = m
				out.spans = spans
				return out, nil
			}
			report(resilience.Unhealthy)
		}
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		next := chain[i+1] // chain always ends in ModeCold, handled above
		reason := "restore-error"
		if errors.Is(err, errCircuitOpen) {
			reason = "circuit-open"
		}
		d.telemetry.Counter("faasnap_invoke_fallback_total",
			"Invocations degraded to a fallback mode after restore failure.",
			telemetry.L("from", m.String(), "to", next.String(), "reason", reason)).Inc()
		out.reason = reason
		d.log.Printf("restore %s as %s failed (%v); falling back to %s", fn, m, err, next)
	}
	return out, nil
}

// chaosStatus reports the chaos injector's config and fire counts.
func (d *Daemon) chaosStatus(*http.Request) (chaos.Status, error) { return d.chaos.Status(), nil }

// configureChaos replaces the chaos configuration live. Reconfiguring
// reseeds the RNG and zeroes per-rule fire counts, so a fixed config
// replays a fixed fault sequence.
func (d *Daemon) configureChaos(r *http.Request) (chaos.Status, error) {
	var cfg chaos.Config
	if err := decodeBody(r, &cfg); err != nil {
		return chaos.Status{}, err
	}
	if err := d.chaos.Configure(cfg); err != nil {
		return chaos.Status{}, failf(http.StatusBadRequest, "%v", err)
	}
	d.log.Printf("chaos reconfigured: enabled=%v seed=%d rules=%d", cfg.Enabled, cfg.Seed, len(cfg.Rules))
	return d.chaos.Status(), nil
}
