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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/guestagent"
	"faasnap/internal/kvstore"
	"faasnap/internal/obs"
	"faasnap/internal/resilience"
	"faasnap/internal/slo"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
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
	// Resilience tunes deadlines and admission control; zero fields take
	// defaults.
	Resilience ResilienceConfig
	// Chaos optionally arms fault injection from daemon start; the
	// injector is always present and reconfigurable via PUT /chaos.
	Chaos *chaos.Config
	// QuietHTTP drops the per-request log line. Under load the logger's
	// mutex and stderr write serialize the request path; benchmarked
	// deployments turn it off.
	QuietHTTP bool
	// SLO is the objective the GET /slo engine judges every function
	// against; zero fields take slo.DefaultObjective's.
	SLO slo.Objective
	// AsyncRecovery runs manifest replay and snapshot re-deployment in
	// the background after New returns; /readyz answers 503 with
	// Retry-After until recovery completes. faasnapd sets it so a host
	// with many snapshots starts listening immediately; tests leave it
	// false for a fully-recovered daemon on return.
	AsyncRecovery bool
}

// env is what every layer of the daemon — handlers, index, store,
// lifecycle — logs, counts, injects faults and leaves events and traces
// through.
type env struct {
	log       *log.Logger
	telemetry *telemetry.Registry
	chaos     *chaos.Injector
	// events is the control-plane event ledger behind GET /events.
	events *events.Ledger
	traces *trace.Store
}

// Daemon is the FaaSnap control plane.
type Daemon struct {
	env
	cfg Config
	kv  *kvstore.Client

	// The three owners of a function's state (index.go, store.go,
	// lifecycle.go); the handlers below are adapters over them. store is
	// nil without a state directory.
	idx   *index
	store *store
	life  *lifecycle

	profiles *obs.Ring
	slo      *slo.Engine
	// faults fans each invocation's fault timeline out to the watchers
	// of GET /functions/{name}/faults?watch=1, keyed by function.
	faults *events.Hub

	res     ResilienceConfig
	limiter *resilience.Limiter

	// recovering gates mutating routes until journal replay completes
	// and recovered unblocks WaitRecovered.
	recovering atomic.Bool
	recovered  chan struct{}

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
	d := &Daemon{
		env: env{
			log:       cfg.Logger,
			telemetry: telemetry.NewRegistry(),
			chaos:     chaos.New(),
			events:    events.NewLedger(0),
			traces:    trace.NewStore(obs.DefaultRing),
		},
		cfg:       cfg,
		profiles:  obs.NewRing(obs.DefaultRing),
		slo:       slo.New(cfg.SLO),
		faults:    events.NewHub(faultWatchDepth),
		res:       cfg.Resilience.withDefaults(),
		recovered: make(chan struct{}),
	}
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
		d.events.Append(events.Event{
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
	// The journal's Open creates the state directory.
	var err error
	if d.idx, err = openIndex(cfg.StateDir); err != nil {
		return nil, fmt.Errorf("daemon: manifest: %w", err)
	}
	d.life = &lifecycle{env: d.env, idx: d.idx, host: d.cfg.Host, kv: d.kv}
	d.life.bgCtx, d.life.bgHalt = context.WithCancel(context.Background())
	if cfg.StateDir == "" {
		close(d.recovered)
		return d, nil
	}
	if d.store, err = openStore(cfg.StateDir, d.env, d.idx.chunkMaps); err != nil {
		d.idx.close()
		return nil, fmt.Errorf("daemon: chunk store: %w", err)
	}
	d.life.store = d.store
	d.recovering.Store(true)
	recover := func() {
		d.life.recover()
		d.recovering.Store(false)
		close(d.recovered)
	}
	if cfg.AsyncRecovery {
		go recover()
	} else {
		recover()
	}
	return d, nil
}

// DrainStreams disconnects long-lived watch streams (fault timelines,
// the event ledger) so http.Server.Shutdown can finish; pass it to
// RegisterOnShutdown.
func (d *Daemon) DrainStreams() {
	d.faults.Close()
	d.events.Close()
}

// Close halts background work and the transfers of syncs in flight,
// waits for records and syncs still in flight, then stops managed VMMs
// and connections.
func (d *Daemon) Close() {
	d.DrainStreams()
	d.life.close(d.recovered)
	if d.kv != nil {
		_ = d.kv.Close()
	}
}

// WaitRecovered blocks until recovery completes (immediately for a
// daemon without a state dir, or one built with synchronous recovery).
func (d *Daemon) WaitRecovered() { <-d.recovered }

// gateRecovering rejects a request while recovery is in flight, with
// the same Retry-After contract as admission shed: the state the
// request would read or mutate is not yet authoritative.
func (d *Daemon) gateRecovering(w http.ResponseWriter) bool {
	if !d.recovering.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "daemon recovering: manifest replay in progress; retry shortly")
	return true
}

// settled keeps a mutating route closed while recovery is in flight.
func (d *Daemon) settled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !d.gateRecovering(w) {
			h(w, r)
		}
	}
}

// stored answers a chunk route of a daemon that keeps no store the way
// the store says to (verb as in store.need).
func (d *Daemon) stored(verb string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := d.store.need(verb); err != nil {
			writeFailure(w, err)
			return
		}
		h(w, r)
	}
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
	handle("GET /status", route(d.status, answer))
	handle("GET /functions", route(d.list, answer))
	handle("PUT /functions/{name}", d.settled(route(d.create, answer)))
	handle("GET /functions/{name}", route(d.get, answer))
	handle("DELETE /functions/{name}", d.settled(route(d.remove, noContent)))
	handle("POST /functions/{name}/record", d.settled(route(d.record, answer)))
	handle("GET /functions/{name}/chunkmap", d.stored("", route(d.chunkMap, answer)))
	handle("POST /functions/{name}/sync", d.settled(d.stored("sync", route(d.sync, answer))))
	handle("GET /chunks/{digest}", d.stored("", d.handleChunkGet))
	handle("GET /cas", d.stored("", route(d.cas, answer)))
	handle("POST /gc", d.settled(d.stored("gc", route(d.gc, answer))))
	handle("POST /functions/{name}/invoke", d.handleInvoke)
	handle("POST /functions/{name}/burst", d.handleBurst)
	handle("GET /functions/{name}/faults", d.handleFaults)
	handle("GET /events", d.handleEvents)
	handle("GET /traces", d.handleTraceList)
	handle("GET /traces/{id}", d.handleTraceGet)
	handle("GET /profiles", d.handleProfiles)
	handle("GET /slo", route(d.sloReport, answer))
	handle("GET /chaos", route(d.chaosStatus, answer))
	handle("PUT /chaos", route(d.configureChaos, answer))
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
	if d.store != nil {
		if err := d.store.writable(); err != nil {
			reasons = append(reasons, fmt.Sprintf("state dir not writable: %v", err))
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

// failure is an error that knows the status its route answers it with;
// any other error from the index, the store or the lifecycle is a 500.
type failure struct {
	code int
	msg  string
}

func (f *failure) Error() string { return f.msg }

func failf(code int, format string, args ...interface{}) *failure {
	return &failure{code: code, msg: fmt.Sprintf(format, args...)}
}

func writeFailure(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var f *failure
	if errors.As(err, &f) {
		code = f.code
	}
	writeErr(w, code, "%v", err)
}

// route is the one adapter of the JSON routes: one call into the index,
// the store or the lifecycle, then the call's failure, or its result sent
// by reply (answer or noContent). The call reads what it needs from the
// request, the body through decodeBody after its own checks, so record
// still answers an unknown function before a bad body.
func route[Resp any](call func(*http.Request) (Resp, error), reply func(http.ResponseWriter, interface{})) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp, err := call(r)
		if err != nil {
			writeFailure(w, err)
			return
		}
		reply(w, resp)
	}
}

// answer replies with a route's result as 200 JSON.
func answer(w http.ResponseWriter, v interface{}) { writeJSON(w, http.StatusOK, v) }

// noContent replies to a route whose success has no body.
func noContent(w http.ResponseWriter, _ interface{}) { w.WriteHeader(http.StatusNoContent) }

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

// info reports fs as the API shows it, from its published view.
func info(fs *fnState) FunctionInfo {
	v := fs.published()
	info := FunctionInfo{
		Name:         fs.spec.Name,
		Description:  fs.spec.Description,
		HasSnapshot:  v.arts != nil,
		WorkingSetMB: fs.spec.WSA,
	}
	if machine, agent := fs.guest(); machine != nil {
		info.VMState = string(machine.State())
		info.GuestInvocations = agent.Invocations()
	}
	if v.arts != nil {
		info.WSPages = v.arts.WS.Pages()
		info.LSPages = v.arts.LS.Total
		info.LSRegions = len(v.arts.LS.Regions)
		info.ReapWSPages = v.arts.ReapWS.PageCount()
		info.SnapshotMB = float64(v.arts.Mem.SparseBytes()) / (1 << 20)
		info.RecordInput = v.arts.RecordInput.Name
	}
	if v.chunks != nil {
		info.Chunks = len(v.chunks.Refs)
		info.ChunkBytes = v.chunks.TotalBytes()
	}
	return info
}

func (d *Daemon) list(*http.Request) ([]FunctionInfo, error) {
	fns := d.idx.live()
	out := make([]FunctionInfo, 0, len(fns))
	for _, fs := range fns {
		out = append(out, info(fs))
	}
	return out, nil
}

func (d *Daemon) create(r *http.Request) (FunctionInfo, error) {
	name := r.PathValue("name")
	spec, err := workload.ByName(name)
	if err != nil {
		// Not in the catalog: the body may carry a custom spec.
		if r.Body == nil || r.ContentLength == 0 {
			return FunctionInfo{}, failf(http.StatusNotFound, "unknown function %q (catalog: %s; or PUT a custom spec body)", name, strings.Join(workload.Names(), ", "))
		}
		raw, rerr := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if rerr != nil {
			return FunctionInfo{}, failf(http.StatusBadRequest, "read body: %v", rerr)
		}
		spec, err = workload.ParseSpec(raw)
		if err != nil {
			return FunctionInfo{}, failf(http.StatusBadRequest, "%v", err)
		}
		if spec.Name != name {
			return FunctionInfo{}, failf(http.StatusBadRequest, "spec name %q does not match path %q", spec.Name, name)
		}
	}
	fs, err := d.life.create(name, spec)
	if err != nil {
		return FunctionInfo{}, err
	}
	return info(fs), nil
}

func (d *Daemon) get(r *http.Request) (FunctionInfo, error) {
	fs, ok := d.idx.lookup(r.PathValue("name"))
	if !ok {
		return FunctionInfo{}, errNotRegistered
	}
	return info(fs), nil
}

func (d *Daemon) remove(r *http.Request) (struct{}, error) {
	return struct{}{}, d.life.delete(r.PathValue("name"))
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
func (l *lifecycle) storeInput(spec *workload.Spec, in workload.Input) {
	if l.kv == nil {
		return
	}
	desc, _ := json.Marshal(inputDescriptor{Name: in.Name, Bytes: in.Bytes, Seed: in.Seed, DataPages: in.DataPages})
	if err := l.kv.Set("input:"+spec.Name+":"+in.Name, desc); err != nil {
		l.log.Printf("kvstore set failed: %v", err)
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

// record checks the function is registered before it reads the body:
// an unknown function is a 404 whatever the body holds.
func (d *Daemon) record(r *http.Request) (RecordResponse, error) {
	name := r.PathValue("name")
	fs, ok := d.idx.lookup(name)
	if !ok {
		return RecordResponse{}, failf(http.StatusNotFound, "function not registered; PUT /functions/%s first", name)
	}
	var req recordRequest
	if err := decodeBody(r, &req); err != nil {
		return RecordResponse{}, err
	}
	in, err := d.resolveInput(fs.spec, req.Input)
	if err != nil {
		return RecordResponse{}, failf(http.StatusBadRequest, "%v", err)
	}
	res, err := d.life.record(name, in)
	return RecordResponse{
		Function: name,
		Input:    in.Name,
		Result:   res,
		Duration: res.Duration.String(),
	}, err
}

func (d *Daemon) sync(r *http.Request) (SyncResponse, error) {
	var req SyncRequest
	if err := decodeBody(r, &req); err != nil {
		return SyncResponse{}, err
	}
	if req.Source == "" {
		return SyncResponse{}, failf(http.StatusBadRequest, "sync needs a source daemon address")
	}
	// The restore mints a waterfall trace, under the id of the gateway's
	// anti-entropy sweep when it sent one.
	return d.life.sync(r.Context(), r.PathValue("name"), req, d.traceIDFor(r))
}

func (d *Daemon) gc(r *http.Request) (GCResponse, error) {
	var req gcRequest
	if err := decodeBody(r, &req); err != nil {
		return GCResponse{}, err
	}
	return d.life.gc(req.Demote)
}

func (d *Daemon) handleChunkGet(w http.ResponseWriter, r *http.Request) {
	err := d.store.serve(r.PathValue("digest"), func(data []byte, tier string) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Faasnap-Chunk-Tier", tier)
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	if err != nil {
		writeFailure(w, err)
	}
}

func (d *Daemon) chunkMap(r *http.Request) (ChunkMapResponse, error) {
	name := r.PathValue("name")
	fs, ok := d.idx.lookup(name)
	if !ok {
		return ChunkMapResponse{}, errNotRegistered
	}
	// The generation is read before the view and the view before the
	// snapfile, the reverse of the commit's order (snapfile, journal,
	// publish): a peer may be handed newer bytes than the generation it
	// adopts with them, never older ones.
	e, _ := d.idx.entry(name)
	v := fs.published()
	if v.chunks == nil {
		return ChunkMapResponse{}, failf(http.StatusNotFound, "%s has no chunked snapshot", name)
	}
	return d.store.export(name, v.arts.RecordInput.Name, e.Generation, v.chunks, r.URL.Query().Get("summary") != "")
}

func (d *Daemon) cas(*http.Request) (CASResponse, error) { return d.store.report(), nil }

// StatusResponse is GET /status: everything the gateway's sweep asks a
// backend, in one answer — the routing verdict /readyz probes, the
// admission window's occupancy (the one load figure placement reads),
// and the durable-state summary anti-entropy compares across replicas
// (omitted by a daemon without a state dir).
type StatusResponse struct {
	Ready         bool             `json:"ready"`
	Reasons       []string         `json:"reasons,omitempty"`
	Recovering    bool             `json:"recovering"`
	AdmissionUsed int64            `json:"admission_used"`
	AdmissionMax  int64            `json:"admission_max"`
	Digest        string           `json:"digest,omitempty"`
	Functions     []StatusFunction `json:"functions,omitempty"`
}

// status always answers 200: not-ready is a fact to report, not a
// failure to answer. It serves during recovery — the journal is fully
// replayed before any handler runs; only snapfile re-deployment is
// still in flight — so a gateway can see what a recovering backend
// will hold.
func (d *Daemon) status(*http.Request) (StatusResponse, error) {
	reasons := d.notReady()
	resp := StatusResponse{
		Ready:         len(reasons) == 0,
		Reasons:       reasons,
		Recovering:    d.recovering.Load(),
		AdmissionUsed: d.limiter.InFlight(),
		AdmissionMax:  d.limiter.Max(),
	}
	var entries []StatusFunction
	resp.Digest, entries = d.idx.status()
	for _, sf := range entries {
		if !sf.Deleted && sf.HasSnapshot {
			sf.ChunksMissing, sf.DeficitSeq = d.life.observeDeficit(sf.Name)
		}
		resp.Functions = append(resp.Functions, sf)
	}
	return resp, nil
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
	view *view     // the snapshot served, as published when validated
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
		d.shed(w, route)
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
	if c.fs, ok = d.idx.lookup(r.PathValue("name")); !ok {
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
	if c.view = c.fs.published(); c.view.arts == nil {
		return 0, errNoSnapshot
	}
	return weight, nil
}

// restore runs c's guarded control-plane restore (resilientRestore),
// its VMM spans parented under sc, and notes the outcome in c.served and
// the profile. One restore guards a whole burst: invocations of one
// snapshot share it (§6.6). The only error is deadline expiry.
func (d *Daemon) restore(ctx context.Context, c *call, sc telemetry.SpanContext) (err error) {
	if c.served, err = d.resilientRestore(ctx, c.fs.spec.Name, c.view, c.mode, sc); err != nil {
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
	res := core.RunSingleTraced(d.cfg.Host, c.view.arts, c.served.mode, c.in)
	fillProfile(prof, res)
	out := c.response(res)
	// Forward the request to the in-guest server, as the daemon does
	// for a live VM ("it uses the guest IP address to connect to the
	// Flask server for invoking functions", §5). Agent failures must
	// not be swallowed: they surface in the response and telemetry.
	if _, agent := fs.guest(); agent != nil {
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
		if req.Parallel <= 0 || int64(req.Parallel) > d.limiter.Max() {
			return 0, fmt.Errorf("parallel must be in [1,%d], the admission window", d.limiter.Max())
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
		br := core.RunBurst(d.cfg.Host, c.view.arts, c.served.mode, c.in, req.Parallel, same)
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

// decodeBody reads a JSON request body into v; an empty one leaves v as
// it is. A malformed body is the route's 400.
func decodeBody(r *http.Request, v interface{}) error {
	if r.Body == nil || r.ContentLength == 0 {
		return nil
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return failf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}
