package daemon

// The failure matrix for the resilient invocation pipeline: every
// snapshot-layer fault the chaos registry can inject must end in a
// well-formed response — a degraded fallback, a 429, or a 504 — never
// a 500. See RESILIENCE.md.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/resilience"
	"faasnap/internal/snapfile"
	"faasnap/internal/vmm"
)

// metricSum reads GET /metrics and sums every series of the named
// metric whose label block contains all of contains (substring match on
// the rendered labels; empty matches every series).
func metricSum(t *testing.T, url, name, contains string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(scrape(t, url), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Exact metric only: the next byte must open labels or be the
		// value separator, not a longer metric name.
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if contains != "" && !strings.Contains(fields[0], contains) {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// recordedFn registers and records hello-world so invokes can run.
func recordedFn(t *testing.T, srv string) {
	t.Helper()
	if resp := doJSON(t, "PUT", srv+"/functions/hello-world", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv+"/functions/hello-world/record", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("record = %d", resp.StatusCode)
	}
}

func TestRestoreFaultFallsBackToCold(t *testing.T) {
	_, srv := newTestDaemon(t, Config{
		Chaos: &chaos.Config{Enabled: true, Seed: 1, Rules: []chaos.Rule{
			{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindError},
		}},
	})
	recordedFn(t, srv.URL)

	var inv InvokeResponse
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	if resp.StatusCode != 200 {
		t.Fatalf("invoke under restore fault = %d, want 200", resp.StatusCode)
	}
	// Every restore attempt fails, so the chain walks faasnap -> cached
	// -> cold; the response reports the requested mode plus the fallback.
	if !inv.Degraded || inv.Mode != "faasnap" || inv.FallbackMode != "cold" {
		t.Fatalf("response = %+v, want degraded cold fallback", inv)
	}
	if inv.DegradedReason == "" {
		t.Fatal("degraded response has no reason")
	}
	if n := metricSum(t, srv.URL, "faasnap_invoke_fallback_total", ""); n < 2 {
		t.Fatalf("fallback_total = %v, want >= 2 (faasnap->cached, cached->cold)", n)
	}
	if n := metricSum(t, srv.URL, "faasnap_chaos_injected_total", ""); n == 0 {
		t.Fatal("chaos_injected_total = 0 despite injected restore faults")
	}
	if n := metricSum(t, srv.URL, "faasnap_restore_retries_total", ""); n == 0 {
		t.Fatal("restore_retries_total = 0: failed restores were not retried")
	}
}

func TestPipenetDropOnRestoreFallsBackToCold(t *testing.T) {
	// Drop every dial of a restore VM's API socket (op scopes the rule
	// to "-restore" listeners, so the cold-boot VM is reachable). The
	// transport failure must ride the same retry + fallback chain as an
	// API-level error.
	_, srv := newTestDaemon(t, Config{
		Chaos: &chaos.Config{Enabled: true, Seed: 7, Rules: []chaos.Rule{
			{Point: chaos.PointPipenet, Op: "restore-api.sock", Kind: chaos.KindDrop},
		}},
	})
	recordedFn(t, srv.URL)

	var inv InvokeResponse
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	if resp.StatusCode != 200 {
		t.Fatalf("invoke under dropped transport = %d, want 200", resp.StatusCode)
	}
	if !inv.Degraded || inv.Mode != "faasnap" || inv.FallbackMode != "cold" {
		t.Fatalf("response = %+v, want degraded cold fallback", inv)
	}
	if n := metricSum(t, srv.URL, "faasnap_chaos_injected_total", `point="pipenet"`); n == 0 {
		t.Fatal("chaos_injected_total{point=pipenet} = 0 despite dropped dials")
	}
	if n := metricSum(t, srv.URL, "faasnap_restore_retries_total", ""); n == 0 {
		t.Fatal("restore_retries_total = 0: dropped dials were not retried")
	}
}

func TestAgentCrashMidInvokeIsDegradedNot500(t *testing.T) {
	_, srv := newTestDaemon(t, Config{
		Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{
			{Point: chaos.PointAgent, Op: "invoke", Kind: chaos.KindCrash, Count: 1},
		}},
	})
	recordedFn(t, srv.URL)

	var inv InvokeResponse
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	if resp.StatusCode != 200 {
		t.Fatalf("invoke with crashing agent = %d, want 200", resp.StatusCode)
	}
	if !inv.Degraded || inv.AgentError == "" {
		t.Fatalf("response = %+v, want degraded with agent_error", inv)
	}
	if n := metricSum(t, srv.URL, "faasnap_agent_errors_total", `function="hello-world"`); n != 1 {
		t.Fatalf("agent_errors_total = %v, want 1", n)
	}
}

func TestLoadingSetIOErrorDegradesToMemoryFileOnly(t *testing.T) {
	_, srv := newTestDaemon(t, Config{
		Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{
			{Point: chaos.PointBlockdev, Op: "loading-set", Kind: chaos.KindError},
		}},
	})
	recordedFn(t, srv.URL)

	var inv InvokeResponse
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	if resp.StatusCode != 200 {
		t.Fatalf("invoke with LS fault = %d, want 200", resp.StatusCode)
	}
	if !inv.Degraded || inv.DegradedReason != "loading-set-io" {
		t.Fatalf("response = %+v, want loading-set-io degradation", inv)
	}
	// Served from the memory file alone, not by abandoning faasnap mode.
	if inv.FallbackMode != "" {
		t.Fatalf("LS degradation should not change mode: %+v", inv)
	}
	if n := metricSum(t, srv.URL, "faasnap_ls_degraded_total", ""); n != 1 {
		t.Fatalf("ls_degraded_total = %v, want 1", n)
	}
}

func TestBreakerOpensHalfOpensAndCloses(t *testing.T) {
	// All but one of the breaker's threshold failures are on the books
	// before the first invoke, whose restore fails every attempt: that
	// failure opens the breaker. The cooldown is driven through the
	// breaker's injectable clock rather than real sleeps, so the sequence
	// cannot flake on a slow runner.
	d, srv := newTestDaemon(t, Config{
		Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{
			{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindError, Count: restoreAttempts},
		}},
	})
	recordedFn(t, srv.URL)
	var elapsed atomic.Int64 // cooldowns advanced past the real start
	start := time.Now()
	br := d.breaker("hello-world")
	br.SetClock(func() time.Time {
		return start.Add(time.Duration(elapsed.Load()) * breakerCooldown)
	})
	for i := 1; i < breakerThreshold; i++ {
		br.Report(resilience.Unhealthy)
	}
	invoke := func() InvokeResponse {
		var inv InvokeResponse
		resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
			map[string]string{"mode": "faasnap", "input": "B"}, &inv)
		if resp.StatusCode != 200 {
			t.Fatalf("invoke = %d", resp.StatusCode)
		}
		return inv
	}

	// First invoke: the injected failure opens the breaker; the cached
	// fallback is then skipped by the open breaker (circuit-open).
	inv := invoke()
	if !inv.Degraded || inv.FallbackMode != "cold" {
		t.Fatalf("first invoke = %+v, want cold fallback", inv)
	}
	if got := metricSum(t, srv.URL, "faasnap_breaker_state", `function="hello-world"`); got != float64(resilience.Open) {
		t.Fatalf("breaker gauge = %v, want open (%d)", got, resilience.Open)
	}

	// While open (and the fault rule exhausted), restores are skipped
	// outright: degraded with reason circuit-open, no chaos needed.
	inv = invoke()
	if !inv.Degraded || inv.DegradedReason != "circuit-open" {
		t.Fatalf("invoke under open breaker = %+v, want circuit-open", inv)
	}

	// After the cooldown the half-open probe runs a real restore, which
	// now succeeds and closes the breaker.
	elapsed.Store(2)
	inv = invoke()
	if inv.Degraded {
		t.Fatalf("invoke after cooldown = %+v, want clean success", inv)
	}
	if got := metricSum(t, srv.URL, "faasnap_breaker_state", `function="hello-world"`); got != float64(resilience.Closed) {
		t.Fatalf("breaker gauge = %v, want closed", got)
	}
}

// TestRecordFaultLeavesVMRunning is the single-fault matrix over the
// record sequence (RESILIENCE.md, "The record sequence"): one chaos
// rule that fires once, at each step that talks to the guest agent or
// the VMM. The faulted record is refused with a well-formed error, and
// the fault must not outlive it: the next record succeeds and leaves
// the VM running with sanitizing off — a record that fails may not
// wedge the function until it is deleted.
func TestRecordFaultLeavesVMRunning(t *testing.T) {
	once := func(point, op string, kind chaos.Kind) chaos.Rule {
		return chaos.Rule{Point: point, Op: op, Kind: kind, Count: 1}
	}
	cases := []struct {
		name  string
		rules []chaos.Rule
		// after is the VM's state once the faulted record has returned:
		// Paused only when the fault hit the resume itself, until the next
		// record closes the window.
		after vmm.State
	}{
		{"sanitize-on dial", []chaos.Rule{once(chaos.PointPipenet, "-guest:80", chaos.KindDrop)}, vmm.StateRunning},
		{"pause", []chaos.Rule{once(chaos.PointVMMAPI, "/vm", chaos.KindError)}, vmm.StateRunning},
		{"snapshot-create", []chaos.Rule{once(chaos.PointVMMAPI, "/snapshot/create", chaos.KindError)}, vmm.StateRunning},
		// The delay rule consumes the first PATCH /vm (the pause), so the
		// error rule meets the second (the resume).
		{"resume", []chaos.Rule{once(chaos.PointVMMAPI, "/vm", chaos.KindDelay), once(chaos.PointVMMAPI, "/vm", chaos.KindError)}, vmm.StatePaused},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, srv := newTestDaemon(t, Config{})
			// Armed after the boot, whose own calls the rules would match.
			if resp := doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil); resp.StatusCode != 200 {
				t.Fatalf("create = %d", resp.StatusCode)
			}
			if resp := doJSON(t, "PUT", srv.URL+"/chaos", chaos.Config{Enabled: true, Rules: tc.rules}, nil); resp.StatusCode != 200 {
				t.Fatalf("arm chaos = %d", resp.StatusCode)
			}
			fs, _ := d.idx.lookup("hello-world")
			machine, agent := fs.guest()
			state := func() (vmm.State, bool) { return machine.State(), agent.Sanitizing() }

			resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
			if resp.StatusCode/100 == 2 {
				t.Fatalf("faulted record = %d, want an error", resp.StatusCode)
			}
			var st chaos.Status
			doJSON(t, "GET", srv.URL+"/chaos", nil, &st)
			for i, r := range st.Rules {
				if r.Fired != 1 {
					t.Fatalf("rule %d fired %d times during the faulted record, want 1", i, r.Fired)
				}
			}
			if vm, sanitizing := state(); vm != tc.after || sanitizing {
				t.Fatalf("after the faulted record: vm %q, sanitizing %v; want %q, false", vm, sanitizing, tc.after)
			}

			resp = doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
			if resp.StatusCode != 200 {
				t.Fatalf("record after the fault = %d, want 200", resp.StatusCode)
			}
			if vm, sanitizing := state(); vm != vmm.StateRunning || sanitizing {
				t.Fatalf("after the next record: vm %q, sanitizing %v; want Running, false", vm, sanitizing)
			}
			var info FunctionInfo
			doJSON(t, "GET", srv.URL+"/functions/hello-world", nil, &info)
			if info.VMState != string(vmm.StateRunning) || !info.HasSnapshot {
				t.Fatalf("function after the next record = %+v", info)
			}
		})
	}
}

func TestHungRestoreHitsDeadlineWith504(t *testing.T) {
	_, srv := newTestDaemon(t, Config{
		Resilience: ResilienceConfig{InvokeTimeout: 50 * time.Millisecond},
		Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{
			{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindHang},
		}},
	})
	recordedFn(t, srv.URL)

	start := time.Now()
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hung restore = %d, want 504", resp.StatusCode)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hung restore held the request far past its deadline")
	}
	if n := metricSum(t, srv.URL, "faasnap_deadline_exceeded_total", `route="invoke"`); n != 1 {
		t.Fatalf("deadline_exceeded_total = %v, want 1", n)
	}
}

func TestSaturationSheds429(t *testing.T) {
	d, srv := newTestDaemon(t, Config{Resilience: ResilienceConfig{MaxInFlight: 2}})
	recordedFn(t, srv.URL)

	// Fill the admission window from the outside; the next request of
	// any weight must be shed, not queued.
	if !d.limiter.Acquire(2) {
		t.Fatal("could not saturate limiter")
	}
	defer d.limiter.Release(2)

	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("invoke at saturation = %d, want 429", resp.StatusCode)
	}
	// Retry-After scales with limiter occupancy: a full window plus this
	// request's weight is ceil((2+1)/2) = 2 drain cycles, not the old
	// hardcoded 1.
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want occupancy-scaled 2", ra)
	}
	resp = doJSON(t, "POST", srv.URL+"/functions/hello-world/burst",
		map[string]interface{}{"mode": "faasnap", "parallel": 2}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst at saturation = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("burst Retry-After = %q, want occupancy-scaled 2", ra)
	}
	if n := metricSum(t, srv.URL, "faasnap_invoke_shed_total", `route="invoke"`); n != 1 {
		t.Fatalf("shed_total{invoke} = %v, want 1", n)
	}
	if n := metricSum(t, srv.URL, "faasnap_invoke_shed_total", `route="burst"`); n != 1 {
		t.Fatalf("shed_total{burst} = %v, want 1", n)
	}
}

func TestBurstParallelValidation(t *testing.T) {
	_, srv := newTestDaemon(t, Config{Resilience: ResilienceConfig{MaxBurstParallel: 8}})
	recordedFn(t, srv.URL)
	for _, parallel := range []int{0, -3, 9} {
		resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/burst",
			map[string]interface{}{"mode": "faasnap", "parallel": parallel}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("burst parallel=%d = %d, want 400", parallel, resp.StatusCode)
		}
	}
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/burst",
		map[string]interface{}{"mode": "faasnap", "parallel": 8}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("burst at the cap = %d, want 200", resp.StatusCode)
	}
}

func TestBurstDegradesAsAWhole(t *testing.T) {
	_, srv := newTestDaemon(t, Config{
		Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{
			{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindError},
		}},
	})
	recordedFn(t, srv.URL)
	var out BurstResponse
	resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/burst",
		map[string]interface{}{"mode": "faasnap", "parallel": 4}, &out)
	if resp.StatusCode != 200 {
		t.Fatalf("burst under restore fault = %d, want 200", resp.StatusCode)
	}
	if !out.Degraded || out.FallbackMode != "cold" || len(out.Results) != 4 {
		t.Fatalf("burst = %+v, want whole-burst cold fallback", out)
	}
	for i, r := range out.Results {
		if !r.Degraded || r.Mode != "faasnap" || r.FallbackMode != "cold" {
			t.Fatalf("result %d = %+v, want degraded cold fallback", i, r)
		}
	}
}

func TestChaosEndpointRoundTrip(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})

	var st chaos.Status
	resp := doJSON(t, "GET", srv.URL+"/chaos", nil, &st)
	if resp.StatusCode != 200 || st.Enabled {
		t.Fatalf("initial chaos status = %d %+v", resp.StatusCode, st)
	}

	cfg := chaos.Config{Enabled: true, Seed: 99, Rules: []chaos.Rule{
		{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindError, Prob: 0.5},
	}}
	resp = doJSON(t, "PUT", srv.URL+"/chaos", cfg, &st)
	if resp.StatusCode != 200 {
		t.Fatalf("chaos put = %d", resp.StatusCode)
	}
	if !st.Enabled || st.Seed != 99 || len(st.Rules) != 1 || st.Rules[0].Prob != 0.5 {
		t.Fatalf("status after put = %+v", st)
	}

	// Invalid configs are rejected without disturbing the armed one.
	resp = doJSON(t, "PUT", srv.URL+"/chaos",
		chaos.Config{Enabled: true, Rules: []chaos.Rule{{Point: "bogus", Kind: chaos.KindError}}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid chaos config = %d, want 400", resp.StatusCode)
	}
	doJSON(t, "GET", srv.URL+"/chaos", nil, &st)
	if !st.Enabled || st.Seed != 99 {
		t.Fatalf("status after rejected put = %+v", st)
	}

	// Disable and confirm.
	resp = doJSON(t, "PUT", srv.URL+"/chaos", chaos.Config{}, &st)
	if resp.StatusCode != 200 || st.Enabled {
		t.Fatalf("chaos disable = %d %+v", resp.StatusCode, st)
	}
}

func TestCorruptSnapfileQuarantinedOnReload(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})
	recordedFn(t, srv.URL)

	// Flip a byte in the persisted snapfile, as disk rot would.
	path := filepath.Join(dir, "hello-world.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The acknowledged registration survives the corrupt snapfile — only
	// the snapshot itself is quarantined and invalidated, so invokes get
	// a clean 404 (no snapshot) instead of serving corrupt state.
	_, srv2 := newTestDaemon(t, Config{StateDir: dir})
	var info FunctionInfo
	resp := doJSON(t, "GET", srv2.URL+"/functions/hello-world", nil, &info)
	if resp.StatusCode != 200 {
		t.Fatalf("registration lost with its corrupt snapshot: get = %d", resp.StatusCode)
	}
	if info.HasSnapshot {
		t.Fatal("corrupt snapshot still deployed")
	}
	// Losing the snapshot is not a mutation: the entry stays at the
	// generation its record minted, so a replica still holding that
	// snapshot outranks this one and anti-entropy repairs it.
	var st StatusResponse
	doJSON(t, "GET", srv2.URL+"/status", nil, &st)
	if len(st.Functions) != 1 || st.Functions[0].Generation != 2 || st.Functions[0].HasSnapshot {
		t.Fatalf("status after quarantine = %+v, want generation 2 without a snapshot", st.Functions)
	}
	resp = doJSON(t, "POST", srv2.URL+"/functions/hello-world/invoke", invokeRequest{Mode: "faasnap"}, nil)
	if resp.StatusCode != 404 {
		t.Fatalf("invoke on invalidated snapshot = %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "hello-world.snap")); err != nil {
		t.Fatalf("snapfile not quarantined: %v", err)
	}
	if n := metricSum(t, srv2.URL, "faasnap_snapfile_quarantined_total", ""); n != 1 {
		t.Fatalf("quarantined_total = %v, want 1", n)
	}
}

// TestQuarantineNamesNeverCollide re-corrupts and re-records the same
// function: the second quarantined copy must get a distinct name (.2
// suffix) instead of overwriting the first piece of evidence, and each
// daemon's counter must record the quarantine it made.
func TestQuarantineNamesNeverCollide(t *testing.T) {
	dir := t.TempDir()
	corrupt := func() {
		path := filepath.Join(dir, "hello-world.snap")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, srv := newTestDaemon(t, Config{StateDir: dir})
	recordedFn(t, srv.URL)
	corrupt()
	_, srv2 := newTestDaemon(t, Config{StateDir: dir})
	recordedFn(t, srv2.URL) // re-record a good snapshot
	corrupt()
	_, srv3 := newTestDaemon(t, Config{StateDir: dir})

	first := filepath.Join(dir, "quarantine", "hello-world.snap")
	second := filepath.Join(dir, "quarantine", "hello-world.snap.2")
	if _, err := os.Stat(first); err != nil {
		t.Fatalf("first quarantined copy missing: %v", err)
	}
	if _, err := os.Stat(second); err != nil {
		t.Fatalf("second quarantined copy missing (collision overwrote evidence?): %v", err)
	}
	if n := metricSum(t, srv3.URL, "faasnap_snapfile_quarantined_total", ""); n != 1 {
		// srv3 only saw the second quarantine; srv2 counted the first.
		t.Fatalf("quarantined_total on restart = %v, want 1", n)
	}
	if n := metricSum(t, srv2.URL, "faasnap_snapfile_quarantined_total", ""); n != 1 {
		t.Fatalf("quarantined_total on srv2 = %v, want 1", n)
	}
}

func TestChaosCorruptsSnapfileInTransit(t *testing.T) {
	// The snapfile chaos point corrupts the bytes between disk and
	// parser; the CRC must catch it and quarantine the file.
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})
	recordedFn(t, srv.URL)
	if _, _, err := snapfile.LoadChunked(filepath.Join(dir, "hello-world.snap")); err != nil {
		t.Fatalf("persisted snapfile invalid before chaos: %v", err)
	}

	_, srv2 := newTestDaemon(t, Config{
		StateDir: dir,
		Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{
			{Point: chaos.PointSnapfile, Kind: chaos.KindCorrupt},
		}},
	})
	var info FunctionInfo
	resp := doJSON(t, "GET", srv2.URL+"/functions/hello-world", nil, &info)
	if resp.StatusCode != 200 || info.HasSnapshot {
		t.Fatalf("chaos-corrupted snapshot still deployed: get = %d, has_snapshot = %v", resp.StatusCode, info.HasSnapshot)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "hello-world.snap")); err != nil {
		t.Fatalf("snapfile not quarantined: %v", err)
	}
}

// TestChaoticBurstNever500s is the acceptance scenario: with a seeded
// restore-failure + slow-disk chaos profile armed and a small admission
// window, 64 concurrent invocations all end in 200 (clean or degraded)
// or 429 — never 500 — and the metrics agree with the responses.
func TestChaoticBurstNever500s(t *testing.T) {
	_, srv := newTestDaemon(t, Config{
		Resilience: ResilienceConfig{MaxInFlight: 8},
		// Prob 0.9 with 3 retry attempts makes exhausting a restore's
		// retries (and hence falling back) likely per invocation, while
		// still letting some restores succeed outright.
		Chaos: &chaos.Config{Enabled: true, Seed: 1337, Rules: []chaos.Rule{
			{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindError, Prob: 0.9},
			{Point: chaos.PointBlockdev, Kind: chaos.KindSlow, Factor: 4},
		}},
	})
	recordedFn(t, srv.URL)

	const n = 64
	type result struct {
		status int
		inv    InvokeResponse
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]string{"mode": "faasnap", "input": "B"})
			resp, err := http.Post(srv.URL+"/functions/hello-world/invoke", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			results[i].status = resp.StatusCode
			if resp.StatusCode == 200 {
				if err := json.NewDecoder(resp.Body).Decode(&results[i].inv); err != nil {
					t.Errorf("request %d decode: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()

	var ok, degraded, shed int
	for i, r := range results {
		switch r.status {
		case 200:
			ok++
			if r.inv.Degraded {
				degraded++
				if r.inv.FallbackMode == "" && r.inv.DegradedReason == "" && r.inv.AgentError == "" {
					t.Errorf("request %d degraded without detail: %+v", i, r.inv)
				}
			}
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("request %d: status %d (body-free), want 200 or 429", i, r.status)
		}
	}
	if ok == 0 {
		t.Fatal("no invocation succeeded under chaos")
	}
	t.Logf("chaotic burst: %d ok (%d degraded), %d shed", ok, degraded, shed)

	// The metrics must agree with what the clients saw.
	if got := metricSum(t, srv.URL, "faasnap_invoke_shed_total", `route="invoke"`); got != float64(shed) {
		t.Fatalf("shed_total = %v, clients saw %d 429s", got, shed)
	}
	if got := metricSum(t, srv.URL, "faasnap_chaos_injected_total", ""); got == 0 {
		t.Fatal("chaos_injected_total = 0: the armed profile never fired across 64 invocations")
	}
	fallbacks := metricSum(t, srv.URL, "faasnap_invoke_fallback_total", "")
	fellBack := 0
	for _, r := range results {
		if r.status == 200 && r.inv.FallbackMode != "" {
			fellBack++
		}
	}
	// Each fallen-back invocation takes 1 or 2 chain steps (faasnap ->
	// cached, possibly -> cold), each counted once.
	if fallbacks < float64(fellBack) || fallbacks > float64(2*fellBack) {
		t.Fatalf("fallback_total = %v, inconsistent with %d fallen-back responses", fallbacks, fellBack)
	}
	if fellBack == 0 {
		t.Fatal("prob-0.9 restore faults produced no fallbacks across the burst")
	}
}
