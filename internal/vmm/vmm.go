// Package vmm implements a Firecracker-like virtual machine monitor
// control plane: each microVM exposes an HTTP API served over an
// in-memory connection (standing in for Firecracker's Unix domain
// socket), with the request/response shapes and lifecycle rules of the
// real VMM — machine configuration before boot, InstanceStart,
// pause/resume, snapshot create (paused VMs only) and snapshot load
// (fresh VMs only).
//
// Like the paper's modified Firecracker, the snapshot-load request is
// extended with per-region memory mappings: the FaaSnap daemon passes
// the non-zero and loading-set regions and the VMM lays them over the
// base anonymous mapping (§5).
package vmm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"faasnap/internal/chaos"
	"faasnap/internal/pipenet"
	"faasnap/internal/telemetry"
)

// State is the microVM lifecycle state.
type State string

const (
	// StateNotStarted is a configured but not yet running VM.
	StateNotStarted State = "Not started"
	// StateRunning is an executing VM.
	StateRunning State = "Running"
	// StatePaused is a paused VM (snapshots may be taken).
	StatePaused State = "Paused"
)

// MachineConfig mirrors Firecracker's machine-config resource.
type MachineConfig struct {
	VcpuCount  int `json:"vcpu_count"`
	MemSizeMib int `json:"mem_size_mib"`
}

// MemBackend describes the file backing guest memory on restore.
type MemBackend struct {
	BackendType string `json:"backend_type"` // "File"
	BackendPath string `json:"backend_path"`
}

// RegionMap is the FaaSnap API extension: one overlapping mapping to
// lay over the base guest-memory mapping.
type RegionMap struct {
	StartPage int64  `json:"start_page"`
	Pages     int64  `json:"pages"`
	Backing   string `json:"backing"` // "anonymous" | "memory_file" | "loading_set"
	Path      string `json:"path,omitempty"`
	Offset    int64  `json:"offset,omitempty"` // file page offset
}

// SnapshotLoadRequest mirrors PUT /snapshot/load with the FaaSnap
// region extension.
type SnapshotLoadRequest struct {
	SnapshotPath string      `json:"snapshot_path"`
	MemBackend   MemBackend  `json:"mem_backend"`
	ResumeVM     bool        `json:"resume_vm"`
	RegionMaps   []RegionMap `json:"region_maps,omitempty"`
}

// SnapshotCreateRequest mirrors PUT /snapshot/create.
type SnapshotCreateRequest struct {
	SnapshotPath string `json:"snapshot_path"`
	MemFilePath  string `json:"mem_file_path"`
}

// InstanceInfo mirrors GET /.
type InstanceInfo struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// VMGenerationID changes on every snapshot load, the mechanism the
	// paper's §7.4 cites for letting guests reseed PRNGs after restore
	// (Microsoft's Virtual Machine Generation ID [23]).
	VMGenerationID string `json:"vm_generation_id,omitempty"`
}

type vmAction struct {
	ActionType string `json:"action_type"`
}

type vmPatch struct {
	State string `json:"state"` // "Paused" | "Resumed"
}

type apiError struct {
	FaultMessage string `json:"fault_message"`
}

// machineTelemetry holds the registry handles one machine updates over
// its lifecycle.
type machineTelemetry struct {
	active    *telemetry.Gauge
	boots     *telemetry.Counter
	restores  *telemetry.Counter
	snapshots *telemetry.Counter
}

// Machine is one microVM process: an API server plus lifecycle state.
type Machine struct {
	id string

	mu         sync.Mutex
	state      State
	config     MachineConfig
	configured bool
	loaded     *SnapshotLoadRequest
	snapshots  []SnapshotCreateRequest
	generation uint64 // bumps on every snapshot load (§7.4)

	tel       *machineTelemetry
	telOnDown sync.Once // the active gauge decrements exactly once

	chaos *chaos.Injector

	lis    *pipenet.Listener
	server *http.Server
	done   chan struct{}
}

// Launch starts a microVM process with the given id and begins serving
// its API socket.
func Launch(id string) *Machine {
	m := &Machine{
		id:    id,
		state: StateNotStarted,
		lis:   pipenet.NewListener(id + "-api.sock"),
		done:  make(chan struct{}),
	}
	// Requests carrying a trace context get a VMM-side span reported
	// back in the response, so the daemon can stitch one trace across
	// the API-socket hop.
	m.server = &http.Server{Handler: telemetry.TraceMiddleware("vmm", http.HandlerFunc(m.route))}
	go func() {
		defer close(m.done)
		_ = m.server.Serve(m.lis) // returns on Close
	}()
	return m
}

// State returns the current lifecycle state.
func (m *Machine) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Snapshots returns the snapshot-create requests handled so far.
func (m *Machine) Snapshots() []SnapshotCreateRequest {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]SnapshotCreateRequest(nil), m.snapshots...)
}

// SetTelemetry registers this machine's lifecycle with reg: the
// active-VM gauge rises now and falls on Close; boots, restores, and
// snapshot creates count as the API serves them. A nil reg disables
// telemetry.
func (m *Machine) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t := &machineTelemetry{
		active:    reg.Gauge("faasnap_vmm_active", "Live microVM processes.", nil),
		boots:     reg.Counter("faasnap_vmm_boots_total", "InstanceStart boots served by VMMs.", nil),
		restores:  reg.Counter("faasnap_vmm_restores_total", "Snapshot loads served by VMMs.", nil),
		snapshots: reg.Counter("faasnap_vmm_snapshots_total", "Snapshot creates served by VMMs.", nil),
	}
	m.mu.Lock()
	m.tel = t
	m.mu.Unlock()
	t.active.Inc()
}

// SetChaos arms the machine's API path with a chaos injector: clients
// created after this call consult it on every request (point
// "vmm.api", op = API path), and every dial of the API socket consults
// the transport point (point "pipenet", op = listener name, kinds drop
// and delay). A nil injector disables injection.
func (m *Machine) SetChaos(inj *chaos.Injector) {
	m.mu.Lock()
	m.chaos = inj
	m.mu.Unlock()
	m.lis.SetDialFault(inj.DialFault(m.lis.Addr().String()))
}

// Close shuts the machine down (like killing the VMM process).
func (m *Machine) Close() {
	_ = m.server.Close()
	<-m.done
	m.mu.Lock()
	tel := m.tel
	m.mu.Unlock()
	if tel != nil {
		m.telOnDown.Do(tel.active.Dec)
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, apiError{FaultMessage: fmt.Sprintf(format, args...)})
}

// route dispatches a request on its exact path, as Firecracker's API
// does; any other path is handleRoot's 404. A machine serves one restore
// or one boot, so its routes are a switch rather than a ServeMux built
// per machine.
func (m *Machine) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/machine-config":
		m.handleMachineConfig(w, r)
	case "/snapshot/load":
		m.handleSnapshotLoad(w, r)
	case "/snapshot/create":
		m.handleSnapshotCreate(w, r)
	case "/actions":
		m.handleActions(w, r)
	case "/vm":
		m.handleVM(w, r)
	default:
		m.handleRoot(w, r)
	}
}

func (m *Machine) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" || r.Method != http.MethodGet {
		writeErr(w, http.StatusNotFound, "unknown resource %s %s", r.Method, r.URL.Path)
		return
	}
	m.mu.Lock()
	info := InstanceInfo{ID: m.id, State: m.state}
	if m.generation > 0 {
		info.VMGenerationID = fmt.Sprintf("gen-%016x", m.generation)
	}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (m *Machine) handleMachineConfig(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, m.config)
	case http.MethodPut:
		if m.state != StateNotStarted {
			writeErr(w, http.StatusBadRequest, "machine config can only be set before boot")
			return
		}
		var cfg MachineConfig
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			writeErr(w, http.StatusBadRequest, "bad machine config: %v", err)
			return
		}
		if cfg.VcpuCount <= 0 || cfg.MemSizeMib <= 0 {
			writeErr(w, http.StatusBadRequest, "machine config must have positive vcpu_count and mem_size_mib")
			return
		}
		m.config = cfg
		m.configured = true
		w.WriteHeader(http.StatusNoContent)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "unsupported method %s", r.Method)
	}
}

func (m *Machine) handleSnapshotLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		writeErr(w, http.StatusMethodNotAllowed, "unsupported method %s", r.Method)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateNotStarted || m.loaded != nil {
		writeErr(w, http.StatusBadRequest, "snapshot can only be loaded into a fresh VM")
		return
	}
	var req SnapshotLoadRequest
	if err := decodeLoad(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad snapshot load request: %v", err)
		return
	}
	if req.SnapshotPath == "" || req.MemBackend.BackendPath == "" {
		writeErr(w, http.StatusBadRequest, "snapshot_path and mem_backend.backend_path are required")
		return
	}
	for _, reg := range req.RegionMaps {
		if reg.Pages <= 0 {
			writeErr(w, http.StatusBadRequest, "region map with non-positive length")
			return
		}
		switch reg.Backing {
		case "anonymous":
		case "memory_file", "loading_set":
			if reg.Path == "" {
				writeErr(w, http.StatusBadRequest, "file-backed region map without path")
				return
			}
		default:
			writeErr(w, http.StatusBadRequest, "unknown region backing %q", reg.Backing)
			return
		}
	}
	m.loaded = &req
	// A restored VM gets a fresh generation id so in-guest PRNGs can
	// detect the restore and reseed (§7.4).
	m.generation++
	if m.tel != nil {
		m.tel.restores.Inc()
	}
	if req.ResumeVM {
		m.state = StateRunning
	} else {
		m.state = StatePaused
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxSizedLoad caps the Content-Length decodeLoad sizes its buffer to
// up front, and the buffer it keeps for the next load: far above the
// largest mapping plan's encoding (83 KB for the Figure 6 functions),
// so a bogus length cannot make the VMM allocate it before a byte
// arrives.
const maxSizedLoad = 4 << 20

// loadBufs recycles decodeLoad's read buffers across restores. Neither
// decode keeps a reference into the bytes: the flat pass copies each
// distinct string out once, and json.Unmarshal copies what it keeps.
var loadBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeLoad reads a snapshot-load body whole into a pooled buffer and
// decodes it into req: by decodeFlatLoad when the body has the shape
// json.Marshal writes, and by json.Unmarshal otherwise, so an odd but
// valid body gets encoding/json's answer and a bad one its error. A
// body that declares its length, up to maxSizedLoad, is read into a
// buffer sized to it; any other grows the buffer as it reads.
func decodeLoad(r *http.Request, req *SnapshotLoadRequest) error {
	buf := loadBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxSizedLoad+bytes.MinRead {
			loadBufs.Put(buf)
		}
	}()
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= maxSizedLoad {
		// ReadFrom wants MinRead bytes free to see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return err
	}
	if decodeFlatLoad(buf.Bytes(), req) {
		return nil
	}
	*req = SnapshotLoadRequest{} // what the flat pass filled before it gave up
	return json.Unmarshal(buf.Bytes(), req)
}

// decodeFlatLoad parses body in one pass when it is exactly what
// json.Marshal writes for a SnapshotLoadRequest, and reports whether
// it was. Each distinct string is copied out once per body: the
// backings are the three constants, and a path repeated over hundreds
// of regions is one string.
func decodeFlatLoad(body []byte, req *SnapshotLoadRequest) bool {
	f := telemetry.Flat[[]byte]{Src: body}
	known := [8]string{"anonymous", "memory_file", "loading_set"}
	interned := known[:3]
	str := func(lit string) string {
		b := f.Str(lit)
		for _, s := range interned {
			if s == string(b) {
				return s
			}
		}
		interned = append(interned, string(b))
		return interned[len(interned)-1]
	}
	req.SnapshotPath = str(`{"snapshot_path":`)
	req.MemBackend = MemBackend{BackendType: str(`,"mem_backend":{"backend_type":`), BackendPath: str(`,"backend_path":`)}
	f.Lit(`},"resume_vm":`)
	if req.ResumeVM = !f.Opt("false"); req.ResumeVM {
		f.Lit("true")
	}
	if f.Opt(`,"region_maps":[`) {
		req.RegionMaps = make([]RegionMap, 0, bytes.Count(body, []byte(`{"start_page":`)))
		for more := true; more; more = f.Opt(",") {
			rm := RegionMap{StartPage: f.Int(`{"start_page":`), Pages: f.Int(`,"pages":`), Backing: str(`,"backing":`)}
			if f.Opt(`,"path":`) {
				rm.Path = str("")
			}
			if f.Opt(`,"offset":`) {
				rm.Offset = f.Int("")
			}
			f.Lit("}")
			req.RegionMaps = append(req.RegionMaps, rm)
		}
		f.Lit("]")
	}
	f.Lit("}")
	return f.Done()
}

func (m *Machine) handleSnapshotCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		writeErr(w, http.StatusMethodNotAllowed, "unsupported method %s", r.Method)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StatePaused {
		writeErr(w, http.StatusBadRequest, "snapshots can only be taken of paused VMs")
		return
	}
	var req SnapshotCreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad snapshot create request: %v", err)
		return
	}
	if req.SnapshotPath == "" || req.MemFilePath == "" {
		writeErr(w, http.StatusBadRequest, "snapshot_path and mem_file_path are required")
		return
	}
	m.snapshots = append(m.snapshots, req)
	if m.tel != nil {
		m.tel.snapshots.Inc()
	}
	w.WriteHeader(http.StatusNoContent)
}

func (m *Machine) handleActions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		writeErr(w, http.StatusMethodNotAllowed, "unsupported method %s", r.Method)
		return
	}
	var act vmAction
	if err := json.NewDecoder(r.Body).Decode(&act); err != nil {
		writeErr(w, http.StatusBadRequest, "bad action: %v", err)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch act.ActionType {
	case "InstanceStart":
		if m.state != StateNotStarted {
			writeErr(w, http.StatusBadRequest, "instance already started")
			return
		}
		if !m.configured && m.loaded == nil {
			writeErr(w, http.StatusBadRequest, "machine not configured")
			return
		}
		m.state = StateRunning
		if m.tel != nil {
			m.tel.boots.Inc()
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeErr(w, http.StatusBadRequest, "unknown action_type %q", act.ActionType)
	}
}

func (m *Machine) handleVM(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPatch {
		writeErr(w, http.StatusMethodNotAllowed, "unsupported method %s", r.Method)
		return
	}
	var patch vmPatch
	if err := json.NewDecoder(r.Body).Decode(&patch); err != nil {
		writeErr(w, http.StatusBadRequest, "bad vm patch: %v", err)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch patch.State {
	case "Paused":
		if m.state != StateRunning {
			writeErr(w, http.StatusBadRequest, "only running VMs can be paused")
			return
		}
		m.state = StatePaused
	case "Resumed":
		if m.state != StatePaused {
			writeErr(w, http.StatusBadRequest, "only paused VMs can be resumed")
			return
		}
		m.state = StateRunning
	default:
		writeErr(w, http.StatusBadRequest, "unknown vm state %q", patch.State)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
