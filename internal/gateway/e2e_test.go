package gateway_test

// End-to-end proof of the multi-host serving tier: three real daemons
// behind a real gateway over real HTTP. The test registers and records
// functions through the gateway's fan-out, shows sticky routing lands
// repeat invocations on the snapshot's owner with one virtual result,
// then kills one backend mid-burst with chaos armed on another and
// requires every client-visible answer to be 200/429/504 — never 500.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/daemon"
	"faasnap/internal/gateway"
)

type e2eNode struct {
	d      *daemon.Daemon
	srv    *httptest.Server
	addr   string
	killed atomic.Bool
}

// kill force-closes the backend the way a crashed host looks to the
// gateway: in-flight connections die mid-request, new dials are
// refused.
func (n *e2eNode) kill() {
	if n.killed.Swap(true) {
		return
	}
	n.srv.CloseClientConnections()
	n.srv.Close()
	n.d.Close()
}

func startNode(t *testing.T) *e2eNode {
	t.Helper()
	d, err := daemon.New(daemon.Config{
		StateDir: t.TempDir(),
		Logger:   log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	n := &e2eNode{d: d, srv: srv, addr: srv.Listener.Addr().String()}
	t.Cleanup(n.kill)
	return n
}

// startNodeAt starts a fresh daemon (empty state dir — the wiped-disk
// rejoin scenario) listening on the exact address a killed node held,
// so the gateway's configured backend comes back to life.
func startNodeAt(t *testing.T, addr string) *e2eNode {
	t.Helper()
	d, err := daemon.New(daemon.Config{
		StateDir: t.TempDir(),
		Logger:   log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv := httptest.NewUnstartedServer(d.Handler())
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	n := &e2eNode{d: d, srv: srv, addr: addr}
	t.Cleanup(n.kill)
	return n
}

func startGateway(t *testing.T, cfg gateway.Config) *httptest.Server {
	t.Helper()
	cfg.Logger = log.New(io.Discard, "", 0)
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		g.Close()
	})
	return srv
}

// invokeOnce posts one invoke through url and returns the status, the
// placement header, and the reply's virtual total_ms (0 unless 200).
func invokeOnce(t *testing.T, url, fn string) (int, string, float64) {
	t.Helper()
	body := []byte(`{"mode":"faasnap","input":"A"}`)
	resp, err := http.Post(url+"/functions/"+fn+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("invoke %s: %v", fn, err)
	}
	defer resp.Body.Close()
	var reply struct {
		TotalMs float64 `json:"total_ms"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("invoke %s: decode: %v", fn, err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Faasnap-Placement"), reply.TotalMs
}

// waitFor polls cond until it holds. The deadline is a hang guard, not
// a budget: convergence is a bounded number of sweeps, so on any box the
// condition either arrives or never will.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("hang guard: %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// backendRow fetches one backend's row of the gateway's GET /cluster.
func backendRow(t *testing.T, gwURL, addr string) gateway.BackendStatus {
	t.Helper()
	var cl struct {
		Backends []gateway.BackendStatus `json:"backends"`
	}
	e2eJSON(t, "GET", gwURL+"/cluster", nil, &cl)
	for _, b := range cl.Backends {
		if b.Addr == addr {
			return b
		}
	}
	t.Fatalf("backend %s not in /cluster", addr)
	return gateway.BackendStatus{}
}

func e2eJSON(t *testing.T, method, url string, body, out interface{}) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

func TestGatewayE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("3-daemon e2e; skipped in -short")
	}

	nodes := []*e2eNode{startNode(t), startNode(t), startNode(t)}
	byAddr := map[string]*e2eNode{}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
		byAddr[n.addr] = n
	}

	gwSrv := startGateway(t, gateway.Config{
		Backends:       addrs,
		HealthInterval: 25 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
		Replicas:       1,
	})

	// --- Provision through the gateway's fan-out: owner + 1 standby. ---
	for _, fn := range []string{"hello-world", "json"} {
		var created map[string]interface{}
		if resp := e2eJSON(t, "PUT", gwSrv.URL+"/functions/"+fn, nil, &created); resp.StatusCode/100 != 2 {
			t.Fatalf("create %s via gateway = %d", fn, resp.StatusCode)
		}
		repl, _ := created["replicated_to"].([]interface{})
		if len(repl) != 2 {
			t.Fatalf("create %s replicated_to = %v, want owner + 1 standby", fn, created["replicated_to"])
		}
		if resp := e2eJSON(t, "POST", gwSrv.URL+"/functions/"+fn+"/record",
			map[string]string{"input": "A"}, nil); resp.StatusCode/100 != 2 {
			t.Fatalf("record %s via gateway = %d", fn, resp.StatusCode)
		}
	}

	// The merged listing must show each function on exactly its owner
	// and standby.
	var listing []map[string]interface{}
	e2eJSON(t, "GET", gwSrv.URL+"/functions", nil, &listing)
	for _, entry := range listing {
		on, _ := entry["backends"].([]interface{})
		if len(on) != 2 {
			t.Fatalf("function %v registered on %v, want 2 backends", entry["name"], on)
		}
	}

	// --- Topology: resolve hello-world's preference order. ---
	var cluster struct {
		Preference []string `json:"preference"`
	}
	e2eJSON(t, "GET", gwSrv.URL+"/cluster?fn=hello-world", nil, &cluster)
	if len(cluster.Preference) != 3 {
		t.Fatalf("cluster preference = %v, want 3 backends", cluster.Preference)
	}
	owner, standby := byAddr[cluster.Preference[0]], byAddr[cluster.Preference[1]]
	if owner == nil || standby == nil {
		t.Fatalf("preference %v names unknown backends", cluster.Preference)
	}

	// --- Repeat invocations (all backends up) land on the owner, and
	// every reply carries the same virtual total. (Wall latency on a
	// shared box is no evidence either way.) ---
	const samples = 90
	stickyPlacements := map[string]int{}
	virtual := map[float64]int{}
	for i := 0; i < samples; i++ {
		st, pl, ms := invokeOnce(t, gwSrv.URL, "hello-world")
		if st != 200 {
			t.Fatalf("invoke %d = %d", i, st)
		}
		stickyPlacements[pl]++
		virtual[ms]++
	}
	if frac := float64(stickyPlacements[gateway.PlacementSticky]) / samples; frac < 0.9 {
		t.Fatalf("sticky placement rate = %.0f%% (%v), want >= 90%%", frac*100, stickyPlacements)
	}
	if len(virtual) != 1 || virtual[0] != 0 {
		t.Fatalf("virtual total_ms differs across replies: %v", virtual)
	}
	t.Logf("repeat invocations: placements %v, virtual total_ms %v", stickyPlacements, virtual)

	// --- Fault phase: chaos on the standby, then kill the owner cold
	// mid-burst. Spillover lands on the chaos-slowed standby; no client
	// may ever see a 500. ---
	chaosCfg := chaos.Config{
		Enabled: true,
		Seed:    42,
		Rules: []chaos.Rule{{
			Point:   chaos.PointVMMAPI,
			Op:      "/snapshot/load",
			Kind:    chaos.KindDelay,
			Prob:    0.5,
			DelayMs: 5,
		}},
	}
	if resp := e2eJSON(t, "PUT", "http://"+standby.addr+"/chaos", chaosCfg, nil); resp.StatusCode/100 != 2 {
		t.Fatalf("arm chaos on standby = %d", resp.StatusCode)
	}

	const (
		workers   = 8
		perWorker = 12
		killAfter = 30 // invokes completed before the owner dies
	)
	var (
		mu         sync.Mutex
		statuses   = map[int]int{}
		placements = map[string]int{}
		completed  atomic.Int64
		wg         sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				st, pl, _ := invokeOnce(t, gwSrv.URL, "hello-world")
				mu.Lock()
				statuses[st]++
				placements[pl]++
				mu.Unlock()
				if completed.Add(1) == killAfter {
					owner.kill()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()

	for st, n := range statuses {
		switch st {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Errorf("burst saw %d × status %d; only 200/429/504 are acceptable", n, st)
		}
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("burst produced no 200s: %v", statuses)
	}
	if placements[gateway.PlacementSpillover]+placements[gateway.PlacementRetry] == 0 {
		t.Errorf("owner died mid-burst but no spillover/retry placements observed: %v", placements)
	}
	t.Logf("burst through owner kill: statuses=%v placements=%v", statuses, placements)

	// The health checker must have drained the dead owner...
	waitFor(t, "gateway never marked the killed owner down", func() bool {
		return !backendRow(t, gwSrv.URL, owner.addr).Ready
	})
	// ...while the gateway itself stays ready on the surviving backends.
	if resp := e2eJSON(t, "GET", gwSrv.URL+"/readyz", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("gateway /readyz after losing one backend = %d, want 200", resp.StatusCode)
	}

	// Gateway telemetry: placement-labelled request counters and
	// per-backend gauges must be visible on /metrics.
	mresp, err := http.Get(gwSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	for _, want := range []string{
		`faasnap_gw_requests_total`,
		`placement="sticky"`,
		`faasnap_gw_backend_up`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("gateway /metrics missing %s", want)
		}
	}

	// Cross-tier tracing: an invoke routed by the gateway yields a
	// gateway-minted trace id resolvable back through GET /traces/{id}.
	var inv struct {
		TraceID string `json:"trace_id"`
	}
	if resp := e2eJSON(t, "POST", gwSrv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "A"}, &inv); resp.StatusCode != 200 {
		t.Fatalf("post-kill invoke = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(inv.TraceID, "gw") {
		t.Fatalf("trace_id = %q, want a gateway-minted gw… id", inv.TraceID)
	}
	if resp := e2eJSON(t, "GET", gwSrv.URL+"/traces/"+inv.TraceID, nil, nil); resp.StatusCode != 200 {
		t.Fatalf("GET /traces/%s via gateway = %d, want 200", inv.TraceID, resp.StatusCode)
	}
}

// TestGatewayE2EResync is the anti-entropy acceptance scenario: a
// standby holding replicated snapshot state is killed cold and comes
// back on the same address with a wiped disk. The gateway's health
// sweep must detect the rejoined-but-stale backend, replay the missing
// registration and recording from the owner's copy, and restore it to
// its place in preference order — while clients invoking throughout
// never see a 500.
func TestGatewayE2EResync(t *testing.T) {
	if testing.Short() {
		t.Skip("3-daemon e2e; skipped in -short")
	}

	nodes := []*e2eNode{startNode(t), startNode(t), startNode(t)}
	byAddr := map[string]*e2eNode{}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
		byAddr[n.addr] = n
	}

	gwSrv := startGateway(t, gateway.Config{
		Backends:       addrs,
		HealthInterval: 25 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
		Replicas:       1,
	})

	const fn = "hello-world"
	if resp := e2eJSON(t, "PUT", gwSrv.URL+"/functions/"+fn, nil, nil); resp.StatusCode/100 != 2 {
		t.Fatalf("create via gateway = %d", resp.StatusCode)
	}
	if resp := e2eJSON(t, "POST", gwSrv.URL+"/functions/"+fn+"/record",
		map[string]string{"input": "A"}, nil); resp.StatusCode/100 != 2 {
		t.Fatalf("record via gateway = %d", resp.StatusCode)
	}

	var cluster struct {
		Preference []string `json:"preference"`
	}
	e2eJSON(t, "GET", gwSrv.URL+"/cluster?fn="+fn, nil, &cluster)
	if len(cluster.Preference) < 2 {
		t.Fatalf("preference = %v", cluster.Preference)
	}
	standbyAddr := cluster.Preference[1]
	standby := byAddr[standbyAddr]
	// Confirm the standby actually holds the replicated snapshot.
	var info struct {
		HasSnapshot bool `json:"has_snapshot"`
	}
	if resp := e2eJSON(t, "GET", "http://"+standbyAddr+"/functions/"+fn, nil, &info); resp.StatusCode != 200 || !info.HasSnapshot {
		t.Fatalf("standby lacks replicated snapshot before kill: %d %+v", resp.StatusCode, info)
	}

	// Kill the standby cold and bring it back empty on the same address,
	// invoking through the gateway the whole time: no client may ever
	// see a 500.
	stop := make(chan struct{})
	statuses := make(chan int, 4096)
	var loadWG sync.WaitGroup
	loadWG.Add(2)
	for w := 0; w < 2; w++ {
		go func() {
			defer loadWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, _, _ := invokeOnce(t, gwSrv.URL, fn)
				statuses <- st
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	standby.kill()
	waitFor(t, "gateway never drained the killed standby", func() bool {
		return !backendRow(t, gwSrv.URL, standbyAddr).Ready
	})
	startNodeAt(t, standbyAddr)

	// Anti-entropy repairs the rejoined backend: the function must come
	// back — snapshot included — via re-sync alone.
	waitFor(t, "rejoined backend never re-synced the lost snapshot", func() bool {
		var back struct {
			HasSnapshot bool `json:"has_snapshot"`
		}
		resp := e2eJSON(t, "GET", "http://"+standbyAddr+"/functions/"+fn, nil, &back)
		return resp.StatusCode == 200 && back.HasSnapshot
	})
	// With the repair done — the copy sits at its source's generation, and
	// its draining lazy tail is pending, not missing — the first pass that
	// sees its status finds nothing to repair and returns it to its place
	// in preference order.
	waitFor(t, "rejoined backend never returned to its place in preference order", func() bool {
		b := backendRow(t, gwSrv.URL, standbyAddr)
		return b.Ready && !b.Stale
	})

	close(stop)
	loadWG.Wait()
	close(statuses)
	counts := map[int]int{}
	for st := range statuses {
		counts[st]++
	}
	for st, n := range counts {
		if st >= 500 && st != http.StatusGatewayTimeout {
			t.Errorf("resync window saw %d × status %d; 5xx (other than 504) is never acceptable", n, st)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no successful invokes during resync window: %v", counts)
	}

	// The repair actions must be visible in gateway telemetry.
	mresp, err := http.Get(gwSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "faasnap_gw_resync_total") {
		t.Error("gateway /metrics missing faasnap_gw_resync_total after a repair")
	}
	t.Logf("resync window statuses: %v", counts)
}
