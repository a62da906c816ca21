package gateway

// End-to-end proof of the observability plane: three real daemons with
// SLO engines behind a real gateway, chaos slowing one backend's
// snapshot loads. The burn must localize — the function owned by the
// slowed backend burns its error budget in the merged /cluster/slo
// view while a function on a healthy backend does not — and the flight
// recorder's slowest-N exemplars must resolve back through the
// gateway's cross-backend trace lookup.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/daemon"
	"faasnap/internal/obs"
	"faasnap/internal/slo"
	"faasnap/internal/workload"
)

func TestObservabilityE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("3-daemon e2e; skipped in -short")
	}
	t.Parallel()

	// A 500ms wall-time objective: the cheap catalog functions used here
	// finish in tens of milliseconds, so only chaos-delayed invocations
	// (1.5s stalls) burn budget, with wide margin on both sides for
	// loaded CI machines.
	objective := slo.Objective{Latency: 500 * time.Millisecond, Target: 0.99}
	byAddr, gw := startCluster(t, daemon.Config{SLO: objective})

	// Pick two functions with distinct sticky owners so chaos on one
	// owner cannot touch the other function's traffic.
	owner := func(fn string) string {
		var cl struct {
			Preference []string `json:"preference"`
		}
		call(t, gw, "GET", "/cluster?fn="+fn, nil, &cl)
		if len(cl.Preference) == 0 {
			t.Fatalf("no preference for %s", fn)
		}
		return cl.Preference[0]
	}
	// Both are custom clones of hello-world: its natural wall time sits
	// far below the objective, so any burn is attributable to the
	// injected stalls. Names are generated until placement separates two,
	// so the pick does not depend on where a fixed set of names happens
	// to land; about two names in three land on another owner.
	clone := func(name string) workload.SpecConfig {
		return workload.SpecConfig{
			Name: name, BootMB: 100, StablePages: 2950, ChunkMean: 3, RetainFrac: 0.2,
			BaseMs: 4, PerPageUs: 2, InitMs: 600,
			InputA: workload.InputConfig{DataPages: 64}, InputB: workload.InputConfig{DataPages: 64},
		}
	}
	const candidates = 1000
	slowFn, fastFn := "obs-0", ""
	for i := 1; fastFn == "" && i < candidates; i++ {
		if n := fmt.Sprintf("obs-%d", i); owner(n) != owner(slowFn) {
			fastFn = n
		}
	}
	if fastFn == "" {
		t.Fatalf("the gateway placed %d function names on one owner", candidates)
	}

	for _, fn := range []string{slowFn, fastFn} {
		if resp := call(t, gw, "PUT", "/functions/"+fn, clone(fn), nil); resp.StatusCode/100 != 2 {
			t.Fatalf("create %s = %d", fn, resp.StatusCode)
		}
		if resp := call(t, gw, "POST", "/functions/"+fn+"/record",
			map[string]string{"input": "A"}, nil); resp.StatusCode/100 != 2 {
			t.Fatalf("record %s = %d", fn, resp.StatusCode)
		}
	}

	// Chaos on slowFn's owner: every snapshot load stalls for 3x the
	// latency objective, so the invocation succeeds but arrives late —
	// a burn the SLO engine must catch where error counting sees nothing.
	affected := byAddr[owner(slowFn)]
	chaosCfg := chaos.Config{
		Enabled: true,
		Seed:    42,
		Rules: []chaos.Rule{{
			Point:   chaos.PointVMMAPI,
			Op:      "/snapshot/load",
			Kind:    chaos.KindDelay,
			Prob:    1.0,
			DelayMs: 1500,
		}},
	}
	if resp := call(t, nil, "PUT", affected.url()+"/chaos", chaosCfg, nil); resp.StatusCode/100 != 2 {
		t.Fatalf("arm chaos = %d", resp.StatusCode)
	}

	const invokes = 2
	for i := 0; i < invokes; i++ {
		for _, fn := range []string{slowFn, fastFn} {
			if st := call(t, gw, "POST", "/functions/"+fn+"/invoke", invokeA, nil).StatusCode; st != 200 {
				t.Fatalf("%s invoke %d = %d", fn, i, st)
			}
		}
	}

	// --- The merged burn view localizes the fault. ---
	var cslo struct {
		Cluster struct {
			Functions []slo.FunctionReport `json:"functions"`
		} `json:"cluster"`
		Burning []string `json:"burning_functions"`
	}
	if resp := call(t, gw, "GET", "/cluster/slo", nil, &cslo); resp.StatusCode != 200 {
		t.Fatalf("/cluster/slo = %d", resp.StatusCode)
	}
	reports := map[string]slo.FunctionReport{}
	for _, f := range cslo.Cluster.Functions {
		reports[f.Function] = f
	}
	slow, ok := reports[slowFn]
	if !ok {
		t.Fatalf("%s missing from /cluster/slo: %v", slowFn, cslo.Cluster.Functions)
	}
	fast, ok := reports[fastFn]
	if !ok {
		t.Fatalf("%s missing from /cluster/slo: %v", fastFn, cslo.Cluster.Functions)
	}
	if len(slow.Windows) == 0 || len(fast.Windows) == 0 {
		t.Fatal("merged reports carry no windows")
	}
	// Fast (5m) window: the chaos-delayed function burns well past 1x,
	// the healthy one stays under.
	if burn := slow.Windows[0].BurnRate; burn <= 1 {
		t.Errorf("%s fast-window burn = %g, want > 1 (chaos-delayed)", slowFn, burn)
	}
	if burn := fast.Windows[0].BurnRate; burn >= 1 {
		t.Errorf("%s fast-window burn = %g, want < 1 (healthy owner)", fastFn, burn)
	}
	if !slow.Burning {
		t.Errorf("%s should satisfy the multi-window page condition", slowFn)
	}
	burningSet := strings.Join(cslo.Burning, ",")
	if !strings.Contains(burningSet, slowFn) || strings.Contains(burningSet, fastFn) {
		t.Errorf("burning_functions = %v, want %s flagged and %s clear", cslo.Burning, slowFn, fastFn)
	}

	// --- Slowest-N exemplars resolve through the gateway trace lookup. ---
	var slowest struct {
		Profiles []*obs.Profile `json:"profiles"`
	}
	if resp := call(t, nil, "GET", affected.url()+"/profiles?slowest=5", nil, &slowest); resp.StatusCode != 200 {
		t.Fatalf("/profiles?slowest=5 = %d", resp.StatusCode)
	}
	if len(slowest.Profiles) == 0 {
		t.Fatal("slowest-5 returned no profiles")
	}
	for i, p := range slowest.Profiles {
		if p.TraceID == "" {
			t.Fatalf("slowest[%d] has no trace exemplar: %+v", i, p)
		}
		if resp := call(t, gw, "GET", "/traces/"+p.TraceID, nil, nil); resp.StatusCode != 200 {
			t.Fatalf("trace %s via gateway = %d, want 200", p.TraceID, resp.StatusCode)
		}
	}
	// The delayed invocations dominate the top of the list.
	if top := slowest.Profiles[0]; top.Function != slowFn || top.WallMs < 1000 {
		t.Errorf("slowest profile = %s/%.1fms, want %s with the 1.5s stall", top.Function, top.WallMs, slowFn)
	}

	// --- Prefetch effectiveness: in the aggregation and the scrape. ---
	var csum struct {
		Cluster obs.Summary `json:"cluster"`
	}
	if resp := call(t, gw, "GET", "/cluster/profiles", nil, &csum); resp.StatusCode != 200 {
		t.Fatalf("/cluster/profiles = %d", resp.StatusCode)
	}
	bySummary := map[string]obs.FunctionSummary{}
	for _, f := range csum.Cluster.Functions {
		bySummary[f.Function] = f
	}
	for _, fn := range []string{slowFn, fastFn} {
		fs, ok := bySummary[fn]
		if !ok {
			t.Fatalf("%s missing from /cluster/profiles", fn)
		}
		if fs.PrefetchCount == 0 {
			t.Errorf("%s has no prefetch-effectiveness samples", fn)
			continue
		}
		if fs.PrefetchPrec <= 0 || fs.PrefetchPrec > 1 || fs.PrefetchRecall <= 0 || fs.PrefetchRecall > 1 {
			t.Errorf("%s prefetch prec/recall = %g/%g, want in (0,1]", fn, fs.PrefetchPrec, fs.PrefetchRecall)
		}
	}

	var scrape string
	call(t, nil, "GET", affected.url()+"/metrics", nil, &scrape)
	for _, want := range []string{
		fmt.Sprintf(`faasnap_prefetch_precision_bucket{function=%q,le="+Inf"}`, slowFn),
		fmt.Sprintf(`faasnap_prefetch_recall_bucket{function=%q,le="+Inf"}`, slowFn),
		fmt.Sprintf(`faasnap_slo_burn_rate{function=%q,window="5m0s"}`, slowFn),
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("daemon scrape missing %s", want)
		}
	}
}
