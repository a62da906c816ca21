package gateway

// End-to-end proof of the multi-host serving tier: three real daemons
// over real HTTP behind a real gateway, served in process. The test
// registers and records functions through the gateway's fan-out, shows
// sticky routing lands repeat invocations on the snapshot's owner with
// one virtual result, then kills one backend mid-burst with chaos armed
// on another and requires every client-visible answer to be 200/429/504
// — never 500.

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/daemon"
)

// backendRow fetches one backend's row of the gateway's GET /cluster.
func backendRow(t *testing.T, h http.Handler, addr string) BackendStatus {
	t.Helper()
	var cl struct {
		Backends []BackendStatus `json:"backends"`
	}
	call(t, h, "GET", "/cluster", nil, &cl)
	for _, b := range cl.Backends {
		if b.Addr == addr {
			return b
		}
	}
	t.Fatalf("backend %s not in /cluster", addr)
	return BackendStatus{}
}

// startCluster starts three daemons over cfg behind a gateway with one
// standby per function that sweeps every 25 ms, and returns the daemons
// by address and the gateway's handler.
func startCluster(t *testing.T, cfg daemon.Config) (map[string]*daemonNode, http.Handler) {
	t.Helper()
	byAddr := map[string]*daemonNode{}
	var addrs []string
	for i := 0; i < 3; i++ {
		n := startDaemon(t, cfg, "")
		byAddr[n.addr] = n
		addrs = append(addrs, n.addr)
	}
	g := newTestGateway(t, nil, Config{
		Backends:       addrs,
		HealthInterval: 25 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
		Replicas:       1,
	})
	return byAddr, g.Handler()
}

// invokeA is the body of every e2e invoke.
var invokeA = map[string]string{"mode": "faasnap", "input": "A"}

func TestGatewayE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("3-daemon e2e; skipped in -short")
	}
	t.Parallel()
	byAddr, gw := startCluster(t, daemon.Config{})

	// --- Provision through the gateway's fan-out: owner + 1 standby. ---
	for _, fn := range []string{"hello-world", "json"} {
		var created map[string]interface{}
		if resp := call(t, gw, "PUT", "/functions/"+fn, nil, &created); resp.StatusCode/100 != 2 {
			t.Fatalf("create %s via gateway = %d", fn, resp.StatusCode)
		}
		repl, _ := created["replicated_to"].([]interface{})
		if len(repl) != 2 {
			t.Fatalf("create %s replicated_to = %v, want owner + 1 standby", fn, created["replicated_to"])
		}
		if resp := call(t, gw, "POST", "/functions/"+fn+"/record",
			map[string]string{"input": "A"}, nil); resp.StatusCode/100 != 2 {
			t.Fatalf("record %s via gateway = %d", fn, resp.StatusCode)
		}
	}

	// The merged listing must show each function on exactly its owner
	// and standby.
	var listing []map[string]interface{}
	call(t, gw, "GET", "/functions", nil, &listing)
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
	call(t, gw, "GET", "/cluster?fn=hello-world", nil, &cluster)
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
		var reply struct {
			TotalMs float64 `json:"total_ms"`
		}
		resp := call(t, gw, "POST", "/functions/hello-world/invoke", invokeA, &reply)
		if resp.StatusCode != 200 {
			t.Fatalf("invoke %d = %d", i, resp.StatusCode)
		}
		stickyPlacements[resp.Header.Get("X-Faasnap-Placement")]++
		virtual[reply.TotalMs]++
	}
	if frac := float64(stickyPlacements[PlacementSticky]) / samples; frac < 0.9 {
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
	if resp := call(t, nil, "PUT", standby.url()+"/chaos", chaosCfg, nil); resp.StatusCode/100 != 2 {
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
				resp := call(t, gw, "POST", "/functions/hello-world/invoke", invokeA, nil)
				mu.Lock()
				statuses[resp.StatusCode]++
				placements[resp.Header.Get("X-Faasnap-Placement")]++
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
	if placements[PlacementSpillover]+placements[PlacementRetry] == 0 {
		t.Errorf("owner died mid-burst but no spillover/retry placements observed: %v", placements)
	}
	t.Logf("burst through owner kill: statuses=%v placements=%v", statuses, placements)

	// The health checker must have drained the dead owner...
	waitFor(t, "gateway never marked the killed owner down", func() bool {
		return !backendRow(t, gw, owner.addr).Ready
	})
	// ...while the gateway itself stays ready on the surviving backends.
	if resp := call(t, gw, "GET", "/readyz", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("gateway /readyz after losing one backend = %d, want 200", resp.StatusCode)
	}

	// Gateway telemetry: placement-labelled request counters and
	// per-backend gauges must be visible on /metrics.
	var metrics string
	call(t, gw, "GET", "/metrics", nil, &metrics)
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
	if resp := call(t, gw, "POST", "/functions/hello-world/invoke", invokeA, &inv); resp.StatusCode != 200 {
		t.Fatalf("post-kill invoke = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(inv.TraceID, "gw") {
		t.Fatalf("trace_id = %q, want a gateway-minted gw… id", inv.TraceID)
	}
	if resp := call(t, gw, "GET", "/traces/"+inv.TraceID, nil, nil); resp.StatusCode != 200 {
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
	t.Parallel()
	byAddr, gw := startCluster(t, daemon.Config{})

	const fn = "hello-world"
	if resp := call(t, gw, "PUT", "/functions/"+fn, nil, nil); resp.StatusCode/100 != 2 {
		t.Fatalf("create via gateway = %d", resp.StatusCode)
	}
	if resp := call(t, gw, "POST", "/functions/"+fn+"/record",
		map[string]string{"input": "A"}, nil); resp.StatusCode/100 != 2 {
		t.Fatalf("record via gateway = %d", resp.StatusCode)
	}

	var cluster struct {
		Preference []string `json:"preference"`
	}
	call(t, gw, "GET", "/cluster?fn="+fn, nil, &cluster)
	if len(cluster.Preference) < 2 {
		t.Fatalf("preference = %v", cluster.Preference)
	}
	standby := byAddr[cluster.Preference[1]]
	// hasSnapshot is whether the standby's daemon holds fn's snapshot.
	hasSnapshot := func() bool {
		var info struct {
			HasSnapshot bool `json:"has_snapshot"`
		}
		return call(t, nil, "GET", standby.url()+"/functions/"+fn, nil, &info).StatusCode == 200 && info.HasSnapshot
	}
	// Confirm the standby actually holds the replicated snapshot.
	if !hasSnapshot() {
		t.Fatal("standby lacks replicated snapshot before kill")
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
				statuses <- call(t, gw, "POST", "/functions/"+fn+"/invoke", invokeA, nil).StatusCode
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	standby.kill()
	waitFor(t, "gateway never drained the killed standby", func() bool {
		return !backendRow(t, gw, standby.addr).Ready
	})
	startDaemon(t, daemon.Config{}, standby.addr)

	// Anti-entropy repairs the rejoined backend: the function must come
	// back — snapshot included — via re-sync alone.
	waitFor(t, "rejoined backend never re-synced the lost snapshot", hasSnapshot)
	// With the repair done — the copy sits at its source's generation, and
	// its draining lazy tail is pending, not missing — the first pass that
	// sees its status finds nothing to repair and returns it to its place
	// in preference order.
	waitFor(t, "rejoined backend never returned to its place in preference order", func() bool {
		b := backendRow(t, gw, standby.addr)
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
	var metrics string
	call(t, gw, "GET", "/metrics", nil, &metrics)
	if !strings.Contains(metrics, "faasnap_gw_resync_total") {
		t.Error("gateway /metrics missing faasnap_gw_resync_total after a repair")
	}
	t.Logf("resync window statuses: %v", counts)
}
