// Package daemon implements the FaaSnap daemon: the control-plane
// service that manages function VMs and snapshot artifacts and serves
// invocation requests (§4.1). It exposes a REST API to remote clients
// (load balancers and cluster resource managers in a production
// deployment), drives each Firecracker-style VMM over its API socket,
// persists snapshot artifacts as snapfiles in a state directory, and
// keeps function input descriptors in the Redis-like kvstore.
//
// The data plane (paging, loading, execution timing) runs in the
// deterministic simulator; everything else — HTTP, VMM lifecycle,
// persistence — is real.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/casstore"
	"faasnap/internal/chaos"
	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/guestagent"
	"faasnap/internal/kvstore"
	"faasnap/internal/obs"
	"faasnap/internal/resilience"
	"faasnap/internal/slo"
	"faasnap/internal/snapfile"
	"faasnap/internal/statedir"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
	"faasnap/internal/vmm"
	"faasnap/internal/workload"
)

// Config configures a daemon.
type Config struct {
	// StateDir is where snapfiles are persisted; empty disables
	// persistence.
	StateDir string
	// Host is the simulated measurement host configuration.
	Host core.HostConfig
	// KVAddr is the kvstore address for input descriptors; empty
	// disables kvstore integration.
	KVAddr string
	// Logger receives operational logs; nil discards them.
	Logger *log.Logger
	// Registry is the telemetry registry backing GET /metrics; nil
	// creates a private one.
	Registry *telemetry.Registry
	// Resilience tunes deadlines, retries, the circuit breaker, and
	// admission control; zero fields take defaults.
	Resilience ResilienceConfig
	// Chaos optionally arms fault injection from daemon start; the
	// injector is always present and reconfigurable via PUT /chaos.
	Chaos *chaos.Config
	// QuietHTTP drops the per-request log line. Under open-loop load the
	// logger's mutex and stderr write serialize the request path; the
	// load harness and benchmarked deployments turn it off.
	QuietHTTP bool
	// TraceRing caps the trace store; <= 0 takes obs.DefaultRing. It
	// shares its default with ProfileRing so a profile's exemplar trace
	// usually still resolves while the profile is retained.
	TraceRing int
	// ProfileRing caps the flight recorder; <= 0 takes obs.DefaultRing.
	ProfileRing int
	// SLO configures per-function objectives and burn-rate windows for
	// the GET /slo engine; the zero value takes the package defaults.
	SLO slo.Config
	// EventRing caps the cluster event ledger behind GET /events; <= 0
	// takes events.DefaultRing.
	EventRing int
	// AsyncRecovery runs manifest replay and snapshot re-deployment in
	// the background after New returns; /readyz answers 503 with
	// Retry-After until recovery completes. faasnapd sets it so a host
	// with many snapshots starts listening immediately; tests leave it
	// false for a fully-recovered daemon on return.
	AsyncRecovery bool
}

// fnState is one managed function.
type fnState struct {
	mu      sync.Mutex
	spec    *workload.Spec
	machine *vmm.Machine
	agent   *guestagent.Agent
	arts    *core.Artifacts
	chunks  *snapfile.ChunkMap
	// tail is the background fetcher that owns the lazy chunks of the
	// sync that committed chunks — at most one per function; nil when
	// no sync left one. See lazyTail in cas.go.
	tail *lazyTail
	// deficitN/deficitSeq are the chunk deficit GET /status last saw and
	// the seq of the manifest_deficit event that announced it, so each
	// deficit is announced once and the gateway can cite the event as
	// its repair's cause.
	deficitN   int
	deficitSeq uint64
	// lastFaults is the most recent invocation's fault timeline, kept
	// raw; GET /functions/{name}/faults encodes it on demand.
	lastFaults *faultTimeline
}

// shutdown stops the function's lazy fetcher, VMM and guest agent.
func (fs *fnState) shutdown() {
	fs.haltTail()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.machine != nil {
		fs.machine.Close()
	}
	if fs.agent != nil {
		fs.agent.Close()
	}
}

// chunkMap returns the function's published chunk map, nil without a
// persisted snapshot.
func (fs *fnState) chunkMap() *snapfile.ChunkMap {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.chunks
}

// Daemon is the FaaSnap control plane.
type Daemon struct {
	cfg Config
	log *log.Logger
	kv  *kvstore.Client

	// reg is the function registry; see registry.go.
	reg *registry

	traces    *trace.Store
	profiles  *obs.Ring
	slo       *slo.Engine
	telemetry *telemetry.Registry
	// faults fans each invocation's fault timeline out to the watchers
	// of GET /functions/{name}/faults?watch=1, keyed by function.
	faults *events.Hub

	// events is the control-plane event ledger behind GET /events.
	events *events.Ledger

	res     ResilienceConfig
	chaos   *chaos.Injector
	limiter *resilience.Limiter

	// manifest is the durable registration journal (nil without a state
	// dir); recovering gates mutating routes until replay completes and
	// recovered unblocks WaitRecovered.
	manifest   *statedir.Manifest
	recovering atomic.Bool
	recovered  chan struct{}

	// cas is the content-addressed chunk store (nil without a state
	// dir); see cas.go for the chunk plane it backs.
	cas            *casstore.Store
	casDedup       *telemetry.Gauge
	casSaved       *telemetry.Counter
	casLazyPending *telemetry.Gauge
	casLazyFailed  *telemetry.Counter
	casSyncs       *telemetry.Counter
	casGCRemoved   *telemetry.Counter

	// casOps excludes the GC sweep from record/sync's chunk-commit →
	// registry-publish window: GC liveness comes from the registry's
	// chunk maps, so a sweep running between a writer's chunk commits
	// and its snapfile/registry publish would collect the just-written
	// chunks as orphans and the acked snapfile would then reference
	// chunks that no longer exist. Writers hold read; sweeps hold write.
	casOps sync.RWMutex

	// casLazyCtx/casLazyWG halt and drain the background lazy-chunk
	// fetchers on Close, so no goroutine writes into the state dir
	// after shutdown. Whatever tail they leave is reported as
	// chunks_missing and re-synced by anti-entropy.
	casLazyCtx  context.Context
	casLazyHalt context.CancelFunc
	casLazyWG   sync.WaitGroup

	// syncLocks (function name → *sync.Mutex) serializes one function's
	// POST .../sync from takeover of its live lazy fetcher to the start
	// of its successor, so a function never has two fetchers; syncs of
	// different functions run concurrently.
	syncLocks sync.Map

	// inFlight counts requests inside instrumented routes — the load
	// GET /status reports.
	inFlight atomic.Int64

	// admInFlight/admCapacity mirror the admission limiter into the
	// scrape surface; cached here so the hot path never takes the
	// registry's family lock to find them.
	admInFlight *telemetry.Gauge
	admCapacity *telemetry.Gauge

	// breakers maps function -> *resilience.Breaker. A sync.Map because
	// the access pattern is read-dominated: every invoke loads, only the
	// first invoke of a function stores.
	breakers sync.Map
}

// New builds a daemon, reloading persisted snapshots from StateDir.
func New(cfg Config) (*Daemon, error) {
	if cfg.Logger == nil {
		cfg.Logger = log.New(os.Stderr, "faasnapd: ", log.LstdFlags)
	}
	// Fill host defaults field-wise: a partially-specified Host (custom
	// costs, core count, seed) must survive construction intact.
	cfg.Host = cfg.Host.WithDefaults()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	traceRing := cfg.TraceRing
	if traceRing <= 0 {
		traceRing = obs.DefaultRing
	}
	sloCfg := cfg.SLO
	if sloCfg.Gauges == nil {
		sloCfg.Gauges = sloGauges{reg: cfg.Registry}
	}
	// The ledger exists before the SLO engine and chaos injector so
	// their transition callbacks can close over it.
	ledger := events.NewLedger(cfg.EventRing)
	if sloCfg.OnPage == nil {
		sloCfg.OnPage = func(fn string, burning bool) {
			ledger.Append(events.Event{
				Type: events.SLOPage, Function: fn,
				Fields: map[string]string{"burning": strconv.FormatBool(burning)},
			})
		}
	}
	d := &Daemon{
		cfg:       cfg,
		log:       cfg.Logger,
		reg:       newRegistry(),
		traces:    trace.NewStore(traceRing),
		profiles:  obs.NewRing(cfg.ProfileRing),
		slo:       slo.New(sloCfg),
		telemetry: cfg.Registry,
		faults:    events.NewHub(faultWatchDepth),
		events:    ledger,
		res:       cfg.Resilience.withDefaults(),
		chaos:     chaos.New(),
	}
	d.casLazyCtx, d.casLazyHalt = context.WithCancel(context.Background())
	d.limiter = resilience.NewLimiter(d.res.MaxInFlight)
	d.admInFlight = d.telemetry.Gauge("faasnap_admission_inflight",
		"Weight currently admitted by the invocation limiter.", nil)
	d.admCapacity = d.telemetry.Gauge("faasnap_admission_capacity",
		"The invocation limiter's total weight capacity.", nil)
	d.admCapacity.Set(float64(d.limiter.Max()))
	d.faults.OnDrop = d.telemetry.Counter("faasnap_fault_watch_dropped_total",
		"Fault timelines dropped, whole, because a watcher was too slow.", nil).Inc
	d.events.OnDrop = d.telemetry.Counter("faasnap_events_watch_dropped_total",
		"Event-ledger lines dropped because a watcher was too slow.", nil).Inc
	d.chaos.SetTelemetry(d.telemetry)
	d.chaos.SetOnFire(func(point, op string, kind chaos.Kind) {
		ledger.Append(events.Event{
			Type:   events.ChaosInjected,
			Fields: map[string]string{"point": point, "op": op, "kind": string(kind)},
		})
	})
	if cfg.Chaos != nil {
		if err := d.chaos.Configure(*cfg.Chaos); err != nil {
			return nil, fmt.Errorf("daemon: chaos config: %w", err)
		}
	}
	// The simulated data plane consults the same injector, so one chaos
	// config reaches every layer: VMM API, transport, block devices,
	// snapfiles, guest agents.
	d.cfg.Host.Chaos = d.chaos
	if cfg.KVAddr != "" {
		kv, err := kvstore.Dial(cfg.KVAddr)
		if err != nil {
			return nil, fmt.Errorf("daemon: kvstore: %w", err)
		}
		d.kv = kv
	}
	d.recovered = make(chan struct{})
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("daemon: state dir: %w", err)
		}
		if err := d.initCAS(); err != nil {
			return nil, fmt.Errorf("daemon: chunk store: %w", err)
		}
		d.cas.SetOnQuarantine(func(dg casstore.Digest, tier casstore.Tier) {
			ledger.Append(events.Event{
				Type:   events.ChunkQuarantine,
				Fields: map[string]string{"digest": dg.String(), "tier": tier.String()},
			})
		})
		m, rec, err := statedir.Open(cfg.StateDir)
		if err != nil {
			return nil, fmt.Errorf("daemon: manifest: %w", err)
		}
		d.manifest = m
		d.recovering.Store(true)
		if cfg.AsyncRecovery {
			go d.recoverState(rec)
		} else {
			d.recoverState(rec)
		}
	} else {
		close(d.recovered)
	}
	return d, nil
}

// Close shuts down managed VMMs and connections.
// DrainStreams disconnects long-lived watch streams (fault timelines)
// so http.Server.Shutdown can finish; pass it to RegisterOnShutdown.
func (d *Daemon) DrainStreams() {
	d.faults.Close()
	d.events.Close()
}

func (d *Daemon) Close() {
	d.DrainStreams()
	// Stop and drain the lazy-chunk fetchers before anything touches
	// the state dir they write into.
	d.casLazyHalt()
	d.casLazyWG.Wait()
	for _, fs := range d.reg.snapshot() {
		fs.shutdown()
	}
	if d.kv != nil {
		_ = d.kv.Close()
	}
	if d.manifest != nil {
		// Recovery may still be appending (invalidations); let it finish
		// before closing the journal under it.
		d.WaitRecovered()
		_ = d.manifest.Close()
	}
}

func (d *Daemon) fn(name string) (*fnState, bool) {
	return d.reg.get(name)
}

// Handler returns the daemon's REST API handler.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	// The metrics route is deliberately uninstrumented: scraping must
	// not change what the next scrape reports.
	mux.HandleFunc("GET /metrics", d.handleMetricsProm)
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, d.instrument(pattern, h))
	}
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	handle("GET /readyz", d.handleReady)
	handle("GET /status", d.handleStatus)
	handle("GET /functions", d.handleList)
	handle("PUT /functions/{name}", d.handleCreate)
	handle("GET /functions/{name}", d.handleGet)
	handle("DELETE /functions/{name}", d.handleDelete)
	handle("POST /functions/{name}/record", d.handleRecord)
	handle("GET /functions/{name}/chunkmap", d.handleChunkMap)
	handle("POST /functions/{name}/sync", d.handleSync)
	handle("GET /chunks/{digest}", d.handleChunkGet)
	handle("GET /cas", d.handleCAS)
	handle("POST /gc", d.handleGC)
	handle("POST /functions/{name}/invoke", d.handleInvoke)
	handle("POST /functions/{name}/burst", d.handleBurst)
	handle("GET /functions/{name}/faults", d.handleFaults)
	handle("GET /events", d.handleEvents)
	handle("GET /traces", d.handleTraceList)
	handle("GET /traces/{id}", d.handleTraceGet)
	handle("GET /profiles", d.handleProfiles)
	handle("GET /slo", d.handleSLO)
	handle("GET /chaos", d.handleChaosGet)
	handle("PUT /chaos", d.handleChaosPut)
	return d.logRequests(mux)
}

// notReady lists why the daemon should not be routed to; empty means
// ready. Readiness is distinct from /healthz liveness: a daemon that is
// still recovering, cannot persist snapshots or cannot reach its
// kvstore keeps answering /healthz (the process is alive) but is
// drained by a gateway instead of black-holing requests. GET /readyz
// (the probe) and GET /status (the gateway's sweep) both report it.
func (d *Daemon) notReady() []string {
	// A recovering daemon is alive but not yet authoritative: manifest
	// replay or snapshot re-deployment is still in flight, so a gateway
	// must keep routing elsewhere until the registry matches the journal.
	if d.recovering.Load() {
		return []string{"manifest replay in progress"}
	}
	var reasons []string
	if d.cfg.StateDir != "" {
		probe, err := os.CreateTemp(d.cfg.StateDir, ".readyz-*")
		if err != nil {
			reasons = append(reasons, fmt.Sprintf("state dir not writable: %v", err))
		} else {
			probe.Close()
			os.Remove(probe.Name())
		}
	}
	if d.kv != nil {
		if err := d.kv.Ping(); err != nil {
			reasons = append(reasons, fmt.Sprintf("kvstore ping: %v", err))
		}
	}
	return reasons
}

func (d *Daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	reasons := d.notReady()
	if len(reasons) == 0 {
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
		return
	}
	body := map[string]interface{}{"ready": false, "reasons": reasons}
	if d.recovering.Load() {
		w.Header().Set("Retry-After", "1")
		body["state"] = "recovering"
	}
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// recordTrace builds a Zipkin-style span tree for one invocation, as
// the paper's artifact exposes through Zipkin (App. A.4). Remote spans
// reported by lower layers (the VMM's snapshot-load handling, the
// guest agent's invoke) are stitched in under the ids they already
// carry: the daemon handed them the trace id and root span id via the
// traceparent header before the work ran. VMM spans anchor at the
// start of setup; guest-agent spans anchor at the start of execution,
// keeping child timestamps at or after their parents'.
func (d *Daemon) recordTrace(fn string, r *core.InvokeResult, id trace.ID, remote []telemetry.RemoteSpan) trace.ID {
	b := trace.NewBuilder(id, fmt.Sprintf("invoke %s [%s]", fn, r.Mode))
	root := b.Span("invocation", "", 0, r.Total, map[string]string{
		"function": fn,
		"mode":     r.Mode.String(),
		"input":    r.Input,
		"faults":   fmt.Sprintf("%d", r.Faults.Total()),
		"majors":   fmt.Sprintf("%d", r.Faults.Majors()),
	})
	b.Span("vm-setup", root, 0, r.Setup, map[string]string{
		"mmap_calls": fmt.Sprintf("%d", r.MmapCalls),
	})
	if r.Fetch > 0 {
		fetchStart := r.Setup // concurrent loaders start when the VM does
		if r.Mode == core.ModeREAP {
			fetchStart = r.Setup - r.Fetch // REAP's fetch is a blocking prefix of setup
		}
		b.Span("working-set-fetch", root, fetchStart, r.Fetch, map[string]string{
			"bytes": fmt.Sprintf("%d", r.FetchBytes),
		})
	}
	b.Span("function-execution", root, r.Setup, r.Invoke, map[string]string{
		"fault_time": r.Faults.TotalTime().String(),
	})
	for _, rs := range remote {
		anchor := int64(0)
		if rs.Service == "guest-agent" {
			anchor = r.Setup.Microseconds()
		}
		tags := make(map[string]string, len(rs.Tags)+1)
		for k, v := range rs.Tags {
			tags[k] = v
		}
		tags["service"] = rs.Service
		b.Append(&trace.Span{
			SpanID:    trace.ID(rs.SpanID),
			ParentID:  trace.ID(rs.ParentID),
			Name:      rs.Name,
			Timestamp: anchor + rs.StartUs,
			Duration:  rs.DurUs,
			Tags:      tags,
		})
	}
	d.traces.Put(b.Finish())
	return id
}

// traceIDFor mints the id of the trace a request leaves behind. A
// request arriving with a traceparent (from the gateway tier or any
// tracing client) keeps its trace id, so the stored trace is
// addressable by the id the upstream hop already knows.
func (d *Daemon) traceIDFor(r *http.Request) trace.ID {
	if sc, ok := telemetry.Extract(r.Header); ok && sc.TraceID != "" {
		return trace.ID(sc.TraceID)
	}
	return d.traces.NextID()
}

// queryCount reads the positive integer query parameter key (def when
// absent); on a malformed one it answers 400 and reports false.
func queryCount(w http.ResponseWriter, r *http.Request, key string, def int) (int, bool) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		writeErr(w, http.StatusBadRequest, "bad %s %q", key, s)
		return 0, false
	}
	return n, true
}

func (d *Daemon) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if limit, ok := queryCount(w, r, "limit", 100); ok {
		writeJSON(w, http.StatusOK, d.traces.ListNewest(limit))
	}
}

func (d *Daemon) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	t, ok := d.traces.Get(trace.ID(r.PathValue("id")))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown trace %q", r.PathValue("id"))
		return
	}
	raw, err := t.MarshalZipkin()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

type errorBody struct {
	Error string `json:"error"`
}

// encBufPool recycles response-encoding buffers across invocations.
// Encoding into a pooled buffer instead of straight to the socket both
// removes a per-request allocation from the hot path and turns the
// response into a single Write.
var encBufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledBuf caps what goes back in the pool, so one giant burst
// response doesn't pin megabytes behind every pool slot.
const maxPooledBuf = 1 << 18

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Encoding our own response types cannot fail; fall back to the
		// direct path just in case a handler passes something exotic.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		encBufPool.Put(buf)
	}
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// FunctionInfo is the API representation of a managed function.
type FunctionInfo struct {
	Name         string  `json:"name"`
	Description  string  `json:"description"`
	VMState      string  `json:"vm_state,omitempty"`
	HasSnapshot  bool    `json:"has_snapshot"`
	WSPages      int64   `json:"ws_pages,omitempty"`
	LSPages      int64   `json:"ls_pages,omitempty"`
	LSRegions    int     `json:"ls_regions,omitempty"`
	ReapWSPages  int64   `json:"reap_ws_pages,omitempty"`
	SnapshotMB   float64 `json:"snapshot_mb,omitempty"`
	RecordInput  string  `json:"record_input,omitempty"`
	WorkingSetMB float64 `json:"paper_ws_a_mb,omitempty"`
	// Chunks/ChunkBytes describe the snapshot's content-addressed chunk
	// map (zero on a daemon with no state directory).
	Chunks     int   `json:"chunks,omitempty"`
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	// GuestInvocations counts requests served by the in-guest agent.
	GuestInvocations int64 `json:"guest_invocations,omitempty"`
}

func (d *Daemon) info(fs *fnState) FunctionInfo {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return d.infoLocked(fs)
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	fns := d.reg.snapshot()
	out := make([]FunctionInfo, 0, len(fns))
	for _, fs := range fns {
		out = append(out, d.info(fs))
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *Daemon) handleCreate(w http.ResponseWriter, r *http.Request) {
	if d.gateRecovering(w) {
		return
	}
	name := r.PathValue("name")
	spec, err := workload.ByName(name)
	if err != nil {
		// Not in the catalog: the body may carry a custom spec.
		if r.Body == nil || r.ContentLength == 0 {
			writeErr(w, http.StatusNotFound, "unknown function %q (catalog: %s; or PUT a custom spec body)", name, strings.Join(workload.Names(), ", "))
			return
		}
		raw, rerr := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if rerr != nil {
			writeErr(w, http.StatusBadRequest, "read body: %v", rerr)
			return
		}
		spec, err = workload.ParseSpec(raw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		if spec.Name != name {
			writeErr(w, http.StatusBadRequest, "spec name %q does not match path %q", spec.Name, name)
			return
		}
	}
	fs, exists := d.reg.getOrCreate(name, func() *fnState { return &fnState{spec: spec} })

	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.machine == nil {
		// Any failure on the boot path must tear down whatever came up
		// (machine, agent) and, for a function this request registered,
		// deregister it — a failed PUT may not leave a machine-less
		// entry in GET /functions or a leaked VMM behind a 500.
		bootFail := func(m *vmm.Machine, a *guestagent.Agent, code int, format string, args ...interface{}) {
			if a != nil {
				a.Close()
			}
			if m != nil {
				m.Close()
			}
			fs.machine, fs.agent = nil, nil
			if !exists {
				d.reg.removeIf(name, fs)
			}
			writeErr(w, code, format, args...)
		}
		// Boot a clean VM through the Firecracker-style API.
		// Telemetry is attached before the first API call so the boot
		// itself is counted.
		m := vmm.Launch(name)
		m.SetTelemetry(d.telemetry)
		m.SetChaos(d.chaos)
		c := m.Client()
		if err := c.SetMachineConfig(vmm.MachineConfig{VcpuCount: 2, MemSizeMib: 2048}); err != nil {
			bootFail(m, nil, http.StatusInternalServerError, "machine config: %v", err)
			return
		}
		if err := c.Start(); err != nil {
			bootFail(m, nil, http.StatusInternalServerError, "instance start: %v", err)
			return
		}
		// The in-guest server comes up with the VM; invocation
		// requests are forwarded to it.
		agent := guestagent.Start(name, func(req guestagent.InvokeRequest) (guestagent.InvokeReply, error) {
			return guestagent.InvokeReply{}, nil
		})
		agent.SetTelemetry(d.telemetry)
		agent.SetChaos(d.chaos)
		if err := agent.Client().Health(); err != nil {
			bootFail(m, agent, http.StatusInternalServerError, "guest agent: %v", err)
			return
		}
		fs.machine = m
		fs.agent = agent
		d.log.Printf("booted VM for %s (guest agent up)", name)
	}
	// Journal the registration before acknowledging it: a crash after
	// the append (CrashRegisterPostJournal) must still recover this
	// function — spec-only registrations included. Register is
	// idempotent, so a repeated PUT with an unchanged spec appends
	// nothing and keeps its generation.
	if d.manifest != nil {
		if _, err := d.manifest.Register(name, specJSON(fs.spec)); err != nil {
			if !exists {
				d.reg.removeIf(name, fs)
			}
			writeErr(w, http.StatusInternalServerError, "journal registration: %v", err)
			return
		}
		chaos.MaybeCrash(chaos.CrashRegisterPostJournal)
	}
	writeJSON(w, http.StatusOK, d.infoLocked(fs))
}

// infoLocked is info for a caller already holding fs.mu.
func (d *Daemon) infoLocked(fs *fnState) FunctionInfo {
	info := FunctionInfo{
		Name:         fs.spec.Name,
		Description:  fs.spec.Description,
		HasSnapshot:  fs.arts != nil,
		WorkingSetMB: fs.spec.WSA,
	}
	if fs.machine != nil {
		info.VMState = string(fs.machine.State())
	}
	if fs.agent != nil {
		info.GuestInvocations = fs.agent.Invocations()
	}
	if fs.arts != nil {
		info.WSPages = fs.arts.WS.Pages()
		info.LSPages = fs.arts.LS.Total
		info.LSRegions = len(fs.arts.LS.Regions)
		info.ReapWSPages = fs.arts.ReapWS.PageCount()
		info.SnapshotMB = float64(fs.arts.Mem.SparseBytes()) / (1 << 20)
		info.RecordInput = fs.arts.RecordInput.Name
	}
	if fs.chunks != nil {
		info.Chunks = len(fs.chunks.Refs)
		info.ChunkBytes = fs.chunks.TotalBytes()
	}
	return info
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	fs, ok := d.fn(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "%v", errNotRegistered)
		return
	}
	writeJSON(w, http.StatusOK, d.info(fs))
}

func (d *Daemon) handleDelete(w http.ResponseWriter, r *http.Request) {
	if d.gateRecovering(w) {
		return
	}
	name := r.PathValue("name")
	fs, ok := d.fn(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "%v", errNotRegistered)
		return
	}
	// Journal the tombstone before tearing anything down: once the
	// delete is acknowledged a restart must not resurrect the function,
	// and generations keep climbing across the tombstone so re-registers
	// are ordered after it. A crash right after the append
	// (CrashDeletePostJournal) leaves the snapfile behind — recovery
	// sweeps it into quarantine off the tombstone.
	if d.manifest != nil {
		if _, err := d.manifest.Delete(name); err != nil {
			writeErr(w, http.StatusInternalServerError, "journal delete: %v", err)
			return
		}
		chaos.MaybeCrash(chaos.CrashDeletePostJournal)
	}
	if fs, ok = d.reg.remove(name); !ok {
		writeErr(w, http.StatusNotFound, "%v", errNotRegistered)
		return
	}
	fs.shutdown()
	if d.cfg.StateDir != "" {
		_ = os.Remove(filepath.Join(d.cfg.StateDir, name+".snap"))
	}
	w.WriteHeader(http.StatusNoContent)
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

// inputDescriptor is what the daemon stores in the kvstore per input.
type inputDescriptor struct {
	Name      string `json:"name"`
	Bytes     int64  `json:"bytes"`
	Seed      int64  `json:"seed"`
	DataPages int64  `json:"data_pages"`
}

// resolveInput maps an API input name to a workload input: a
// descriptor under that name in the kvstore, when one is configured,
// else whatever the function model resolves it to. A kvstore descriptor
// is outside input and passes the same size check as a ratio input.
func (d *Daemon) resolveInput(spec *workload.Spec, name string) (workload.Input, error) {
	if name == "" {
		name = "A"
	}
	if d.kv != nil {
		if raw, err := d.kv.Get("input:" + spec.Name + ":" + name); err == nil {
			var desc inputDescriptor
			if err := json.Unmarshal(raw, &desc); err == nil {
				in := workload.Input{Name: desc.Name, Bytes: desc.Bytes, Seed: desc.Seed, DataPages: desc.DataPages}
				if err := spec.CheckInput(in); err != nil {
					return workload.Input{}, fmt.Errorf("kvstore input %q: %w", name, err)
				}
				return in, nil
			}
		}
	}
	return spec.ResolveInput(name)
}

// storeInput publishes the input descriptor to the kvstore, as
// function inputs live in external storage (§5).
func (d *Daemon) storeInput(spec *workload.Spec, in workload.Input) {
	if d.kv == nil {
		return
	}
	desc, _ := json.Marshal(inputDescriptor{Name: in.Name, Bytes: in.Bytes, Seed: in.Seed, DataPages: in.DataPages})
	if err := d.kv.Set("input:"+spec.Name+":"+in.Name, desc); err != nil {
		d.log.Printf("kvstore set failed: %v", err)
	}
}

type recordRequest struct {
	Input string `json:"input"`
}

// RecordResponse is the record endpoint's reply.
type RecordResponse struct {
	Function string            `json:"function"`
	Input    string            `json:"input"`
	Result   core.RecordResult `json:"result"`
	Duration string            `json:"record_duration"`
}

// recordSnapshot is the record phase on fs's long-lived VM in the
// paper's order (§5; RESILIENCE.md, "The record sequence"). It is the
// one owner of the sanitize and pause windows, so no early return
// leaves either open: a pause that succeeded is always followed by a
// resume, and a VM found Paused (an earlier resume itself failed) has
// its window closed by this record. The caller holds fs.mu.
func (d *Daemon) recordSnapshot(fs *fnState, in workload.Input) (arts *core.Artifacts, res core.RecordResult, err error) {
	sanitize := func(on bool) error {
		if fs.agent == nil {
			return nil
		}
		return fs.agent.Client().SetSanitize(on)
	}
	if err := sanitize(true); err != nil {
		return nil, res, fmt.Errorf("enable sanitizing: %w", err)
	}
	// Pure: nothing between the two toggles can fail.
	arts, res = core.Record(d.cfg.Host, fs.spec, in)
	if err := sanitize(false); err != nil {
		return nil, res, fmt.Errorf("disable sanitizing: %w", err)
	}
	if fs.machine == nil {
		return arts, res, nil
	}
	c := fs.machine.Client()
	if fs.machine.State() != vmm.StatePaused {
		if err := c.Pause(); err != nil {
			return nil, res, fmt.Errorf("pause: %w", err)
		}
	}
	defer func() {
		if rerr := c.Resume(); rerr != nil {
			err = errors.Join(err, fmt.Errorf("resume: %w", rerr))
		}
	}()
	if err := c.CreateSnapshot(vmm.SnapshotCreateRequest{
		SnapshotPath: fmt.Sprintf("/snapshots/%s.state", fs.spec.Name),
		MemFilePath:  fmt.Sprintf("/snapshots/%s.mem", fs.spec.Name),
	}); err != nil {
		return nil, res, fmt.Errorf("snapshot create: %w", err)
	}
	return arts, res, nil
}

func (d *Daemon) handleRecord(w http.ResponseWriter, r *http.Request) {
	if d.gateRecovering(w) {
		return
	}
	fs, ok := d.fn(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "function not registered; PUT /functions/%s first", r.PathValue("name"))
		return
	}
	var req recordRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	in, err := d.resolveInput(fs.spec, req.Input)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Hold the GC sweep off until this recording's chunks are referenced
	// by the registry-published chunk map. Taken before fs.mu — the order
	// the sweep and sync use — so the three cannot deadlock.
	d.casOps.RLock()
	defer d.casOps.RUnlock()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	arts, res, err := d.recordSnapshot(fs, in)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	d.storeInput(fs.spec, in)
	if d.cfg.StateDir == "" {
		fs.arts = arts
	} else {
		// Chunk the snapshot into the content-addressed store first:
		// chunks shared with earlier recordings (the base image) dedup to
		// nothing, and a crash before the snapfile commit leaves only
		// unreferenced chunks for the recovery sweep.
		chunks, payloads := casstore.BuildChunks(arts, 0)
		for _, c := range payloads {
			if _, err := d.cas.PutDigest(casstore.Digest(c.Ref.Digest), c.Data); err != nil {
				writeErr(w, http.StatusInternalServerError, "persist chunk: %v", err)
				return
			}
		}
		err := d.commitSnapshot(fs, func(path string) error {
			return snapfile.SaveChunked(path, arts, chunks)
		}, func() error {
			_, err := d.manifest.Record(fs.spec.Name, in.Name)
			return err
		})
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	core.ObserveRecord(d.telemetry, fs.spec.Name, res)
	d.log.Printf("recorded %s input %s: ws=%d ls=%d regions=%d", fs.spec.Name, in.Name, res.WSPages, res.LSPages, res.LSRegions)
	acknowledgeCommit(w, RecordResponse{
		Function: fs.spec.Name,
		Input:    in.Name,
		Result:   res,
		Duration: res.Duration.String(),
	})
	// Refresh the dedup gauge once this function's lock drops (the
	// helper walks every fnState, so it cannot run under fs.mu).
	go d.updateDedupGauge()
}

type invokeRequest struct {
	Mode  string `json:"mode"`
	Input string `json:"input"`
}

// InvokeResponse is the invoke endpoint's reply.
type InvokeResponse struct {
	Function      string  `json:"function"`
	Mode          string  `json:"mode"`
	Input         string  `json:"input"`
	SetupMs       float64 `json:"setup_ms"`
	InvokeMs      float64 `json:"invoke_ms"`
	TotalMs       float64 `json:"total_ms"`
	FetchMs       float64 `json:"fetch_ms"`
	FetchMB       float64 `json:"fetch_mb"`
	Faults        int64   `json:"faults"`
	MajorFaults   int64   `json:"major_faults"`
	FaultTimeMs   float64 `json:"fault_time_ms"`
	MmapCalls     int     `json:"mmap_calls"`
	BlockRequests int64   `json:"block_requests"`
	TraceID       string  `json:"trace_id,omitempty"`

	// Degraded marks an invocation that succeeded but not as asked: a
	// restore fell back to another mode, the loading set was unreadable,
	// or the guest agent failed. The fields after it say which.
	Degraded       bool   `json:"degraded,omitempty"`
	FallbackMode   string `json:"fallback_mode,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	AgentError     string `json:"agent_error,omitempty"`
}

// call is one /invoke or /burst request on its way through serve:
// what validation resolved, and how the restore ended.
type call struct {
	prof *obs.Profile
	fs   *fnState
	arts *core.Artifacts
	mode core.Mode // what the client asked for
	in   workload.Input
	// served is the restore's outcome; served.mode is what actually
	// runs and differs from mode after a fallback.
	served restoreOutcome
}

// serve is the one request pipeline behind /invoke and /burst — a burst
// is a weight-N invoke. It owns what the two share: the flight record
// of every exit path, the recovering gate, validation, weighted
// admission, the per-request deadline and the reply (restore,
// markFallback and response are its helpers). A route supplies what
// differs: body is its request type and common the mode/input fields
// inside it, weigh validates the route's own fields and returns the
// admission weight, and run restores, simulates and builds the reply
// (its only error is deadline expiry).
func (d *Daemon) serve(w http.ResponseWriter, r *http.Request, route string,
	body interface{}, common *invokeRequest, weigh func() (int64, error),
	run func(context.Context, *call) (interface{}, error)) {
	// The flight recorder sees every exit path: the profile is finalized
	// (status, real wall time) and appended on the way out, and the SLO
	// engine judges the same wall time the client observes.
	prof := &obs.Profile{
		Function: r.PathValue("name"),
		Tenant:   r.Header.Get("X-Faasnap-Tenant"),
		Route:    route,
	}
	sw := &statusWriter{ResponseWriter: w}
	w = sw
	wallStart := time.Now()
	defer func() { d.recordProfile(prof, sw.status, time.Since(wallStart)) }()
	if d.gateRecovering(w) {
		return
	}
	// Validation — function, body, mode, the route's own fields, input,
	// snapshot, in that order — runs no simulation and takes no lock
	// beyond the registry read, so it comes before admission: the weight
	// is in the body, and an invalid request is answered as such even by
	// a saturated host.
	c := &call{prof: prof}
	weight, err := d.parseCall(r, c, body, common, weigh)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errNoSnapshot) || errors.Is(err, errNotRegistered) {
			code = http.StatusNotFound
		}
		writeErr(w, code, "%v", err)
		return
	}
	prof.Mode = c.mode.String()
	// Admission is all-or-nothing at the request's full weight: a
	// saturated host sheds before doing any work, and admitting half a
	// burst would skew the concurrency the caller asked to measure.
	if !d.admit(weight) {
		d.shed(w, route, weight)
		return
	}
	prof.AdmissionMs = ms(time.Since(wallStart))
	defer d.release(weight)
	// The per-request deadline rides this context through every hop:
	// daemon -> VMM API client -> guest agent.
	ctx, cancel := context.WithTimeout(r.Context(), d.res.InvokeTimeout)
	defer cancel()
	reply, err := run(ctx, c)
	if err != nil {
		d.deadlineExceeded(w, route, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// parseCall validates a serving request into c and returns its
// admission weight.
func (d *Daemon) parseCall(r *http.Request, c *call, body interface{}, common *invokeRequest, weigh func() (int64, error)) (int64, error) {
	var ok bool
	if c.fs, ok = d.fn(r.PathValue("name")); !ok {
		return 0, errNotRegistered
	}
	if err := decodeBody(r, body); err != nil {
		return 0, err
	}
	if common.Mode == "" {
		common.Mode = "faasnap"
	}
	var err error
	if c.mode, err = core.ParseMode(common.Mode); err != nil {
		return 0, err
	}
	weight, err := weigh()
	if err != nil {
		return 0, err
	}
	if c.in, err = d.resolveInput(c.fs.spec, common.Input); err != nil {
		return 0, err
	}
	c.fs.mu.Lock()
	c.arts = c.fs.arts
	c.fs.mu.Unlock()
	if c.arts == nil {
		return 0, errNoSnapshot
	}
	return weight, nil
}

// restore runs c's guarded control-plane restore (resilientRestore),
// its VMM spans parented under sc, and notes the outcome in c.served and
// the profile. One restore guards a whole burst: invocations of one
// snapshot share it (§6.6). The only error is deadline expiry.
func (d *Daemon) restore(ctx context.Context, c *call, sc telemetry.SpanContext) (err error) {
	if c.served, err = d.resilientRestore(ctx, c.fs.spec.Name, c.arts, c.mode, sc); err != nil {
		return err
	}
	c.prof.Retries = c.served.retries
	c.markFallback(&c.prof.Degraded, &c.prof.FallbackMode, &c.prof.DegradedReason)
	return nil
}

// markFallback is the one degraded annotation: after a fallback it
// fills the degraded fields of a reply or of the profile.
func (c *call) markFallback(degraded *bool, fallbackMode, reason *string) {
	if c.served.mode != c.mode {
		*degraded = true
		*fallbackMode = c.served.mode.String()
		*reason = c.served.reason
	}
}

// response converts one simulated invocation into its API form. Mode
// reports what the client asked for; after a fallback FallbackMode says
// what actually served it.
func (c *call) response(r *core.InvokeResult) InvokeResponse {
	resp := InvokeResponse{
		Function:      c.fs.spec.Name,
		Mode:          c.mode.String(),
		Input:         r.Input,
		SetupMs:       ms(r.Setup),
		InvokeMs:      ms(r.Invoke),
		TotalMs:       ms(r.Total),
		FetchMs:       ms(r.Fetch),
		FetchMB:       float64(r.FetchBytes) / (1 << 20),
		Faults:        r.Faults.Total(),
		MajorFaults:   r.Faults.Majors(),
		FaultTimeMs:   ms(r.Faults.TotalTime()),
		MmapCalls:     r.MmapCalls,
		BlockRequests: r.BlockRequests,
	}
	if r.LSDegraded {
		resp.Degraded = true
		resp.DegradedReason = "loading-set-io"
	}
	c.markFallback(&resp.Degraded, &resp.FallbackMode, &resp.DegradedReason)
	return resp
}

func (d *Daemon) handleInvoke(w http.ResponseWriter, r *http.Request) {
	var req invokeRequest
	d.serve(w, r, "invoke", &req, &req,
		func() (int64, error) { return 1, nil },
		func(ctx context.Context, c *call) (interface{}, error) { return d.invokeOne(ctx, r, c) })
}

// invokeOne is /invoke's part of the pipeline: one traced simulation,
// forwarded to the guest agent, leaving a stitched trace and the fault
// timeline behind.
func (d *Daemon) invokeOne(ctx context.Context, r *http.Request, c *call) (interface{}, error) {
	fs, prof := c.fs, c.prof
	// Allocate the trace id before any work runs so lower layers can
	// parent their spans under the root span the trace builder will
	// create first (SpanID keeps the derivation in sync).
	traceID := d.traceIDFor(r)
	rootSC := telemetry.SpanContext{TraceID: string(traceID), SpanID: string(trace.SpanID(traceID, 1))}
	if err := d.restore(ctx, c, rootSC); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	remote := c.served.spans
	// The guest agent's work is causally downstream of the VMM restore,
	// so its spans parent under the restore's request span when one
	// exists, else directly under the root.
	agentParent := rootSC
	if len(remote) > 0 {
		agentParent.SpanID = remote[0].SpanID
	}
	res := core.RunSingleTraced(d.cfg.Host, c.arts, c.served.mode, c.in)
	fillProfile(prof, res)
	out := c.response(res)
	// Forward the request to the in-guest server, as the daemon does
	// for a live VM ("it uses the guest IP address to connect to the
	// Flask server for invoking functions", §5). Agent failures must
	// not be swallowed: they surface in the response and telemetry.
	fs.mu.Lock()
	agent := fs.agent
	fs.mu.Unlock()
	if agent != nil {
		ac := agent.Client()
		ac.SetContext(ctx)
		ac.SetTraceContext(agentParent)
		if _, err := ac.Invoke(guestagent.InvokeRequest{Input: c.in.Name}); err != nil {
			d.telemetry.Counter("faasnap_agent_errors_total",
				"Guest-agent invoke failures surfaced to clients, by function.",
				telemetry.L("function", fs.spec.Name)).Inc()
			d.log.Printf("guest agent invoke: %v", err)
			out.Degraded = true
			out.AgentError = err.Error()
			prof.Degraded = true
			if prof.DegradedReason == "" {
				prof.DegradedReason = "agent-error"
			}
		}
		remote = append(remote, ac.TraceSpans()...)
	}
	core.ObserveInvoke(d.telemetry, res)
	if res.LSDegraded {
		d.telemetry.Counter("faasnap_ls_degraded_total",
			"FaaSnap restores served without the loading-set file after an I/O error, by function.",
			telemetry.L("function", fs.spec.Name)).Inc()
	}
	out.TraceID = string(d.recordTrace(fs.spec.Name, res, traceID, remote))
	prof.TraceID = out.TraceID
	d.publishFaults(fs, traceID, res)
	return out, nil
}

type burstRequest struct {
	invokeRequest
	Parallel     int   `json:"parallel"`
	SameSnapshot *bool `json:"same_snapshot,omitempty"`
}

// BurstResponse is the burst endpoint's reply.
type BurstResponse struct {
	Function string  `json:"function"`
	Mode     string  `json:"mode"`
	Parallel int     `json:"parallel"`
	Same     bool    `json:"same_snapshot"`
	MeanMs   float64 `json:"mean_ms"`
	StdMs    float64 `json:"std_ms"`
	// Degraded marks a burst whose restore fell back to another mode;
	// every result carries the fallback too.
	Degraded       bool             `json:"degraded,omitempty"`
	FallbackMode   string           `json:"fallback_mode,omitempty"`
	DegradedReason string           `json:"degraded_reason,omitempty"`
	Results        []InvokeResponse `json:"results"`
}

func (d *Daemon) handleBurst(w http.ResponseWriter, r *http.Request) {
	var req burstRequest
	weigh := func() (int64, error) {
		if req.Parallel <= 0 || req.Parallel > d.res.MaxBurstParallel {
			return 0, fmt.Errorf("parallel must be in [1,%d]", d.res.MaxBurstParallel)
		}
		return int64(req.Parallel), nil
	}
	// /burst's part of the pipeline: Parallel contending VMs in one
	// simulation. The flight record's exec/total timings are the burst
	// mean — the burst is the unit the client asked for and the SLO
	// judges.
	run := func(ctx context.Context, c *call) (interface{}, error) {
		if err := d.restore(ctx, c, telemetry.SpanContext{}); err != nil {
			return nil, err
		}
		same := req.SameSnapshot == nil || *req.SameSnapshot
		br := core.RunBurst(d.cfg.Host, c.arts, c.served.mode, c.in, req.Parallel, same)
		c.prof.ServedMode = c.served.mode.String()
		c.prof.ExecMs = ms(br.Mean)
		c.prof.TotalMs = ms(br.Mean)
		resp := BurstResponse{
			Function: c.fs.spec.Name,
			Mode:     c.mode.String(),
			Parallel: req.Parallel,
			Same:     same,
			MeanMs:   ms(br.Mean),
			StdMs:    ms(br.Std),
		}
		c.markFallback(&resp.Degraded, &resp.FallbackMode, &resp.DegradedReason)
		for _, res := range br.Results {
			resp.Results = append(resp.Results, c.response(res))
		}
		core.ObserveBurst(d.telemetry, br)
		return resp, nil
	}
	d.serve(w, r, "burst", &req, &req.invokeRequest, weigh, run)
}

// handleMetricsProm serves the telemetry registry in Prometheus text
// exposition format.
func (d *Daemon) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.telemetry.WritePrometheus(w)
}

func decodeBody(r *http.Request, v interface{}) error {
	if r.Body == nil || r.ContentLength == 0 {
		return nil
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
