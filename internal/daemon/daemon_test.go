package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/core"
	"faasnap/internal/hostmm"
	"faasnap/internal/kvstore"
	"faasnap/internal/vmm"
)

func newTestDaemon(t *testing.T, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	cfg.Logger = log.New(io.Discard, "", 0)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, srv
}

// doJSON sends one request with body marshalled as JSON (nil for none)
// and decodes a 2xx reply into out (when non-nil): a *string takes it as
// text, anything else as JSON. The reply's body stays readable. It never
// stops the test, so it is safe off the test goroutine: a request that
// fails is reported with t.Errorf and answers status 0.
func doJSON(t testing.TB, method, url string, body, out interface{}) *http.Response {
	t.Helper()
	failed := func(err error) *http.Response {
		t.Errorf("%s %s: %v", method, url, err)
		return &http.Response{Header: http.Header{}, Body: http.NoBody}
	}
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return failed(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return failed(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return failed(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return failed(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	if s, ok := out.(*string); ok {
		*s = string(raw)
	} else if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Errorf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

// waitFor polls cond until it holds. The deadline is a hang guard, not
// a budget: what is awaited either arrives in milliseconds or never.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("hang guard: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	var out map[string]bool
	resp := doJSON(t, "GET", srv.URL+"/healthz", nil, &out)
	if resp.StatusCode != 200 || !out["ok"] {
		t.Fatalf("healthz = %d %v", resp.StatusCode, out)
	}
}

func TestFullLifecycle(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})

	// Register and boot.
	var info FunctionInfo
	resp := doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, &info)
	if resp.StatusCode != 200 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	if info.VMState != "Running" || info.HasSnapshot {
		t.Fatalf("info = %+v", info)
	}

	// Record.
	var rec RecordResponse
	resp = doJSON(t, "POST", srv.URL+"/functions/hello-world/record", map[string]string{"input": "A"}, &rec)
	if resp.StatusCode != 200 {
		t.Fatalf("record = %d", resp.StatusCode)
	}
	if rec.Result.WSPages == 0 || rec.Result.LSPages == 0 {
		t.Fatalf("record result = %+v", rec.Result)
	}

	// Invoke under two modes.
	for _, mode := range []string{"faasnap", "firecracker"} {
		var inv InvokeResponse
		resp = doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
			map[string]string{"mode": mode, "input": "B"}, &inv)
		if resp.StatusCode != 200 {
			t.Fatalf("invoke %s = %d", mode, resp.StatusCode)
		}
		if inv.TotalMs <= 0 || inv.Faults == 0 {
			t.Fatalf("invoke %s = %+v", mode, inv)
		}
	}

	// Function listing reflects the snapshot.
	var list []FunctionInfo
	doJSON(t, "GET", srv.URL+"/functions", nil, &list)
	if len(list) != 1 || !list[0].HasSnapshot {
		t.Fatalf("list = %+v", list)
	}

	// Counted in the registry, by mode and by function.
	metricsOut := scrape(t, srv.URL)
	for _, line := range []string{
		`faasnap_invocations_total{mode="faasnap"} 1`,
		`faasnap_invocations_total{mode="firecracker"} 1`,
		`faasnap_records_total{function="hello-world"} 1`,
	} {
		if !strings.Contains(metricsOut, line+"\n") {
			t.Fatalf("scrape lacks %q", line)
		}
	}

	// Delete.
	resp = doJSON(t, "DELETE", srv.URL+"/functions/hello-world", nil, nil)
	if resp.StatusCode != 204 {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	resp = doJSON(t, "GET", srv.URL+"/functions/hello-world", nil, nil)
	if resp.StatusCode != 404 {
		t.Fatalf("get after delete = %d", resp.StatusCode)
	}
}

func TestInvokeWithoutSnapshotFails(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/json", nil, nil)
	resp := doJSON(t, "POST", srv.URL+"/functions/json/invoke", map[string]string{"mode": "faasnap"}, nil)
	if resp.StatusCode != 404 {
		t.Fatalf("invoke without snapshot = %d, want 404", resp.StatusCode)
	}
}

func TestUnknownFunctionRejected(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	resp := doJSON(t, "PUT", srv.URL+"/functions/not-a-function", nil, nil)
	if resp.StatusCode != 404 {
		t.Fatalf("create unknown = %d", resp.StatusCode)
	}
}

func TestBadModeAndInputRejected(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke", map[string]string{"mode": "bogus"}, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bogus mode = %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke", map[string]string{"input": "Z"}, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bogus input = %d", resp.StatusCode)
	}
}

func TestRatioInput(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/json", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/json/record", map[string]string{"input": "A"}, nil)
	var inv InvokeResponse
	resp := doJSON(t, "POST", srv.URL+"/functions/json/invoke",
		map[string]string{"mode": "faasnap", "input": "ratio:2.0"}, &inv)
	if resp.StatusCode != 200 {
		t.Fatalf("ratio invoke = %d", resp.StatusCode)
	}
	if inv.Input != "r2.00" {
		t.Fatalf("input = %q", inv.Input)
	}
}

func TestBurstEndpoint(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	var out BurstResponse
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/burst",
		map[string]interface{}{"mode": "faasnap", "parallel": 4}, &out)
	if resp.StatusCode != 200 {
		t.Fatalf("burst = %d", resp.StatusCode)
	}
	if len(out.Results) != 4 || out.MeanMs <= 0 {
		t.Fatalf("burst = %+v", out)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("record = %d", resp.StatusCode)
	}

	// A freshly constructed daemon over the same state dir serves
	// invocations without re-recording.
	_, srv2 := newTestDaemon(t, Config{StateDir: dir})
	var inv InvokeResponse
	resp = doJSON(t, "POST", srv2.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	if resp.StatusCode != 200 {
		t.Fatalf("invoke after restart = %d", resp.StatusCode)
	}
	if inv.TotalMs <= 0 {
		t.Fatalf("invoke = %+v", inv)
	}
}

func TestKVStoreIntegration(t *testing.T) {
	kv := kvstore.NewServer()
	addr, err := kv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	_, srv := newTestDaemon(t, Config{KVAddr: addr})
	doJSON(t, "PUT", srv.URL+"/functions/pyaes", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/pyaes/record", map[string]string{"input": "A"}, nil)

	// The record phase published the input descriptor.
	c, err := kvstore.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Get("input:pyaes:A")
	if err != nil {
		t.Fatalf("input descriptor not in kvstore: %v", err)
	}
	var desc map[string]interface{}
	if err := json.Unmarshal(raw, &desc); err != nil {
		t.Fatal(err)
	}
	if desc["name"] != "A" {
		t.Fatalf("descriptor = %v", desc)
	}

	// A custom input planted in the kvstore is honored on invoke.
	custom, _ := json.Marshal(map[string]interface{}{
		"name": "huge", "bytes": 1 << 20, "seed": 42, "data_pages": 2000,
	})
	if err := c.Set("input:pyaes:huge", custom); err != nil {
		t.Fatal(err)
	}
	var inv InvokeResponse
	resp := doJSON(t, "POST", srv.URL+"/functions/pyaes/invoke",
		map[string]string{"mode": "faasnap", "input": "huge"}, &inv)
	if resp.StatusCode != 200 {
		t.Fatalf("custom input invoke = %d", resp.StatusCode)
	}
	if inv.Input != "huge" {
		t.Fatalf("input = %q", inv.Input)
	}
}

func TestGuestAgentIntegration(t *testing.T) {
	d, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	for i := 0; i < 3; i++ {
		doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
			map[string]string{"mode": "faasnap", "input": "B"}, nil)
	}
	var info FunctionInfo
	doJSON(t, "GET", srv.URL+"/functions/hello-world", nil, &info)
	if info.GuestInvocations != 3 {
		t.Fatalf("guest invocations = %d, want 3 (requests must be forwarded to the in-guest server)", info.GuestInvocations)
	}
	// The record flow must leave sanitizing disabled (§5: it is only
	// needed during the record phase).
	fs, _ := d.idx.lookup("hello-world")
	if _, agent := fs.guest(); agent.Sanitizing() {
		t.Fatal("sanitizing left enabled after record")
	}
}

func TestCustomFunctionLifecycle(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})
	spec := map[string]interface{}{
		"name": "my-svc", "boot_mb": 100, "stable_pages": 2500, "chunk_mean": 4,
		"retain_frac": 0.2, "base_ms": 30, "per_page_us": 1,
		"input_a": map[string]int64{"bytes": 4096, "data_pages": 200},
		"input_b": map[string]int64{"bytes": 8192, "data_pages": 400},
	}
	var info FunctionInfo
	resp := doJSON(t, "PUT", srv.URL+"/functions/my-svc", spec, &info)
	if resp.StatusCode != 200 {
		t.Fatalf("custom create = %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", srv.URL+"/functions/my-svc/record", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("custom record = %d", resp.StatusCode)
	}
	var inv InvokeResponse
	resp = doJSON(t, "POST", srv.URL+"/functions/my-svc/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	if resp.StatusCode != 200 || inv.TotalMs <= 0 {
		t.Fatalf("custom invoke = %d %+v", resp.StatusCode, inv)
	}

	// Custom functions survive restarts via their embedded spec.
	_, srv2 := newTestDaemon(t, Config{StateDir: dir})
	resp = doJSON(t, "POST", srv2.URL+"/functions/my-svc/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	if resp.StatusCode != 200 {
		t.Fatalf("custom invoke after restart = %d", resp.StatusCode)
	}

	// Mismatched name and invalid bodies are rejected.
	spec["name"] = "other"
	resp = doJSON(t, "PUT", srv.URL+"/functions/my-svc2", spec, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("mismatched name = %d", resp.StatusCode)
	}
	resp = doJSON(t, "PUT", srv.URL+"/functions/bad", map[string]string{"nope": "x"}, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("invalid custom spec = %d", resp.StatusCode)
	}
}

func TestTraceEndpoints(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	var inv InvokeResponse
	doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "reap", "input": "B"}, &inv)
	if inv.TraceID == "" {
		t.Fatal("invoke response has no trace id")
	}

	var ids []string
	doJSON(t, "GET", srv.URL+"/traces", nil, &ids)
	if len(ids) != 1 || ids[0] != inv.TraceID {
		t.Fatalf("trace list = %v", ids)
	}

	var spans []map[string]interface{}
	resp := doJSON(t, "GET", srv.URL+"/traces/"+inv.TraceID, nil, &spans)
	if resp.StatusCode != 200 {
		t.Fatalf("trace get = %d", resp.StatusCode)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s["name"].(string)] = true
		if s["traceId"].(string) != inv.TraceID {
			t.Fatalf("span traceId = %v", s["traceId"])
		}
	}
	for _, want := range []string{"invocation", "vm-setup", "working-set-fetch", "function-execution"} {
		if !names[want] {
			t.Fatalf("missing span %q in %v", want, names)
		}
	}

	resp = doJSON(t, "GET", srv.URL+"/traces/bogus", nil, nil)
	if resp.StatusCode != 404 {
		t.Fatalf("bogus trace = %d", resp.StatusCode)
	}
}

func TestConcurrentInvokes(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			body, _ := json.Marshal(map[string]string{"mode": "faasnap", "input": "B"})
			resp, err := http.Post(srv.URL+"/functions/hello-world/invoke", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != 200 {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewPreservesPartialHostConfig(t *testing.T) {
	// Regression: New used to clobber any partially-specified Host with
	// DefaultHostConfig wholesale. Custom fields must survive while
	// zero-valued ones pick up defaults.
	custom := core.HostConfig{Cores: 7}
	custom.Costs = hostmm.DefaultCosts()
	custom.Costs.AnonFault = 123 * time.Millisecond
	d, err := New(Config{Host: custom, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got := d.cfg.Host
	if got.Cores != 7 {
		t.Fatalf("Cores = %d, want the custom 7", got.Cores)
	}
	if got.Costs.AnonFault != 123*time.Millisecond {
		t.Fatalf("Costs.AnonFault = %v, want the custom 123ms", got.Costs.AnonFault)
	}
	def := core.DefaultHostConfig()
	if got.Disk.Bandwidth != def.Disk.Bandwidth {
		t.Fatalf("Disk = %+v, want default filled in", got.Disk)
	}
	if got.KernelBoot != def.KernelBoot || got.Seed != def.Seed {
		t.Fatalf("KernelBoot/Seed = %v/%d, want defaults", got.KernelBoot, got.Seed)
	}
}

func TestCreateFailureCleanup(t *testing.T) {
	// A PUT whose boot path fails must not leak a VMM or leave a
	// machine-less entry registered in GET /functions. Each case is one
	// chaos rule that fires once, at one step of the boot sequence.
	cases := []struct {
		name string
		rule chaos.Rule
	}{
		{"machine-config", chaos.Rule{Point: chaos.PointVMMAPI, Op: "/machine-config", Kind: chaos.KindError, Count: 1}},
		{"instance-start", chaos.Rule{Point: chaos.PointVMMAPI, Op: "/actions", Kind: chaos.KindError, Count: 1}},
		{"agent-health", chaos.Rule{Point: chaos.PointPipenet, Op: "-guest:80", Kind: chaos.KindDrop, Count: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newTestDaemon(t, Config{Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{tc.rule}}})

			resp := doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
			if resp.StatusCode != 500 {
				t.Fatalf("create with injected %s fault = %d, want 500", tc.name, resp.StatusCode)
			}
			// The registration was rolled back…
			var list []FunctionInfo
			doJSON(t, "GET", srv.URL+"/functions", nil, &list)
			if len(list) != 0 {
				t.Fatalf("functions after failed create = %+v, want none", list)
			}
			resp = doJSON(t, "GET", srv.URL+"/functions/hello-world", nil, nil)
			if resp.StatusCode != 404 {
				t.Fatalf("get after failed create = %d, want 404", resp.StatusCode)
			}
			// …and the VMM torn down: the one fault was the injected one,
			// and no microVM process is left alive.
			if n := metricSum(t, srv.URL, "faasnap_chaos_injected_total", ""); n != 1 {
				t.Fatalf("chaos_injected_total = %v, want 1", n)
			}
			if n := metricSum(t, srv.URL, "faasnap_vmm_active", ""); n != 0 {
				t.Fatalf("leaked VMM: faasnap_vmm_active = %v after failed create, want 0", n)
			}

			// The rule is spent, so the same PUT now succeeds, proving the
			// failed attempt left no poisoned state behind.
			var info FunctionInfo
			resp = doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, &info)
			if resp.StatusCode != 200 || info.VMState != string(vmm.StateRunning) {
				t.Fatalf("retry create = %d %+v", resp.StatusCode, info)
			}
		})
	}
}

// TestHopConnectionsArePerRequest: no connection to an in-process peer
// (a VMM's API socket, a guest agent) may outlive the request that used
// it. Every invoke builds two short-lived hop clients and every record
// two more; a kept-alive connection under any of them strands a client
// read loop, a client write loop and a server conn.serve for the life
// of the peer.
func TestHopConnectionsArePerRequest(t *testing.T) {
	// settle waits for goroutines on their way out (a closed connection's
	// loops, the post-record gauge refresh) to leave at most limit.
	settle := func(limit int, what string) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%s: more than %d goroutines", what, limit), func() bool { return runtime.NumGoroutine() <= limit })
	}
	beforeNew := runtime.NumGoroutine()
	d, err := New(Config{Logger: log.New(io.Discard, "", 0), QuietHTTP: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			srv.Close()
			d.Close()
		}
	}
	defer shutdown()
	// One client, every body drained: the test's own connection to the
	// daemon is reused, so what grows is the daemon's doing.
	call := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s %s = %d", method, path, resp.StatusCode)
		}
	}
	call("PUT", "/functions/hello-world", "")
	call("POST", "/functions/hello-world/record", `{"input":"A"}`)
	call("POST", "/functions/hello-world/invoke", `{"mode":"faasnap","input":"B"}`)

	beforeLoop := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		// Mostly warm, which forwards to the agent and is cheap to
		// simulate; every twentieth restores through a fresh VMM as well.
		mode := "warm"
		if i%20 == 0 {
			mode = "faasnap"
		}
		call("POST", "/functions/hello-world/invoke", `{"mode":"`+mode+`","input":"B"}`)
	}
	for i := 0; i < 5; i++ {
		call("POST", "/functions/hello-world/record", `{"input":"A"}`)
	}
	settle(beforeLoop+10, fmt.Sprintf("after 200 invokes and 5 records, %d before: hop connections outlive their requests", beforeLoop))
	shutdown()
	settle(beforeNew+5, fmt.Sprintf("after Close, %d before New", beforeNew))
}
