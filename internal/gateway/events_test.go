package gateway

// The gateway half of the event-ledger plane, tested over real
// daemons: the merged /cluster/events view, the repair→deficit
// causality chain that resolves across ledgers, and the restore
// waterfall a chunk sync leaves behind; and the gateway scrape's
// golden families.

import (
	"bytes"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"faasnap/internal/daemon"
	"faasnap/internal/events"
	"faasnap/internal/trace"
)

// gwScrape returns the gateway registry's full Prometheus exposition.
func gwScrape(g *Gateway) string {
	var buf bytes.Buffer
	g.reg.WritePrometheus(&buf)
	return buf.String()
}

// TestGatewayGoldenScrapeFamilies pins the gateway scrape's load-
// bearing families, the sweep histogram included: dashboards key on
// these exact names.
func TestGatewayGoldenScrapeFamilies(t *testing.T) {
	net, _ := newFakes(2)
	g := newTestGateway(t, net, Config{})
	gwInvoke(t, g.Handler(), "golden-fn")

	out := gwScrape(g)
	for _, want := range []string{
		"# TYPE faasnap_gw_sweep_seconds histogram",
		// newTestGateway's health loop never ticks, so the only sweep is
		// the synchronous one inside start.
		"faasnap_gw_sweep_seconds_count 1",
		"# TYPE faasnap_gw_breaker_state gauge",
		"# TYPE faasnap_gw_backend_up gauge",
		"# TYPE faasnap_gw_requests_total counter",
		"# TYPE faasnap_gw_backend_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gateway scrape missing %q", want)
		}
	}
}

// waterfallHas is whether the trace id, looked up through the gateway's
// handler h, renders as a waterfall holding every one of wants. The
// rendering lands in *out.
func waterfallHas(t *testing.T, h http.Handler, id string, out *string, wants ...string) func() bool {
	return func() bool {
		var spans []*trace.Span
		if call(t, h, "GET", "/traces/"+id, nil, &spans).StatusCode != http.StatusOK || len(spans) == 0 {
			return false
		}
		*out = trace.RenderWaterfall(spans)
		for _, w := range wants {
			if !strings.Contains(*out, w) {
				return false
			}
		}
		return true
	}
}

// TestEventsSmoke is the daemon + gateway ledger round-trip the
// events-smoke make target runs: a repair sweep over real daemons must
// land in both ledgers, merge with origins on /cluster/events, and
// leave a restore trace the waterfall renderer can draw.
func TestEventsSmoke(t *testing.T) {
	t.Parallel()
	a, b := startDaemon(t, daemon.Config{}, ""), startDaemon(t, daemon.Config{}, "")
	g := newTestGateway(t, nil, Config{Replicas: 1, Backends: []string{a.addr, b.addr}})
	h := g.Handler()

	const fn = "events-smoke"
	provision(t, a, fn)
	if n := sweep(g); n != 2 {
		t.Fatalf("resync actions = %d, want 2 (register + chunk-sync)", n)
	}

	// Daemon ledger round-trip: each daemon recorded at least its
	// recovery replay.
	var dr struct {
		Events  []events.Event `json:"events"`
		LastSeq uint64         `json:"last_seq"`
	}
	if st := call(t, nil, "GET", a.url()+"/events", nil, &dr).StatusCode; st != http.StatusOK || dr.LastSeq == 0 {
		t.Fatalf("daemon /events: status=%d last_seq=%d", st, dr.LastSeq)
	}

	// Gateway merged view: gateway-origin repair events interleaved with
	// both backends' ledgers.
	var cl struct {
		Events []events.Event `json:"events"`
	}
	if st := call(t, h, "GET", "/cluster/events", nil, &cl).StatusCode; st != http.StatusOK {
		t.Fatalf("GET /cluster/events = %d", st)
	}
	origins := map[string]bool{}
	var repair *events.Event
	for i := range cl.Events {
		origins[cl.Events[i].Origin] = true
		if cl.Events[i].Type == events.Repair && cl.Events[i].Fields["action"] == "chunks" {
			repair = &cl.Events[i]
		}
	}
	for _, o := range []string{"gateway", a.addr, b.addr} {
		if !origins[o] {
			t.Fatalf("merged ledger missing origin %q (have %v)", o, origins)
		}
	}
	if repair == nil {
		t.Fatal("merged ledger has no chunk-sync repair event")
	}
	if repair.TraceID == "" {
		t.Fatal("repair event carries no trace id")
	}

	// The repair's restore trace resolves through the gateway fan-out
	// and renders as a waterfall: decode, a tier-labelled fetch, commit.
	var wf string
	waitFor(t, "the repair's waterfall never showed every phase", waterfallHas(t, h, repair.TraceID, &wf,
		"chunk-sync", "snapfile-decode", "  fetch ", "tier=", "commit"))
	if !strings.Contains(wf, "trace "+repair.TraceID) {
		t.Fatalf("waterfall header missing trace id:\n%s", wf)
	}
}

// TestRepairCausalityChain is the 3-daemon acceptance test: a chunk
// damaged in its pack produces a manifest_deficit event on the damaged
// daemon, the gateway's repair event cites it via (cause_seq,
// cause_origin), the repair's trace resolves through the gateway, and
// the converged event closes the chain by citing the repair. No two
// daemons mint the same trace id, so every repair's trace_id resolves
// to the trace of the daemon its event names.
func TestRepairCausalityChain(t *testing.T) {
	t.Parallel()
	a, b, c := startDaemon(t, daemon.Config{}, ""), startDaemon(t, daemon.Config{}, ""), startDaemon(t, daemon.Config{}, "")
	g := newTestGateway(t, nil, Config{Replicas: 2, Backends: []string{a.addr, b.addr, c.addr}})
	h := g.Handler()

	const fn = "causality-alpha"
	provision(t, a, fn)
	if n := sweep(g); n != 4 {
		t.Fatalf("initial resync actions = %d, want 4 (register + chunk-sync on B and C)", n)
	}

	// The wiped-replica sync left a restore waterfall: a fetch with tier
	// labels.
	var initial *events.Event
	for _, e := range g.Events().Since(0, events.Repair, fn) {
		e := e
		if e.Fields["action"] == "chunks" && e.Fields["backend"] == b.addr {
			initial = &e
		}
	}
	if initial == nil || initial.TraceID == "" {
		t.Fatalf("no traced chunk-sync repair for B in gateway ledger (got %+v)", initial)
	}
	var wf string
	waitFor(t, "the initial sync's waterfall never showed every phase", waterfallHas(t, h, initial.TraceID, &wf,
		"chunk-sync", "snapfile-decode", "  fetch ", "tier=", "commit"))

	// Damage B: lose one non-loading-set chunk out of band.
	damageChunk(t, b, fn)

	// The sweep's status read makes B announce the deficit, and the
	// repair pass issues exactly one chunk sync.
	if n := sweep(g); n != 1 {
		t.Fatalf("repair pass actions = %d, want 1", n)
	}

	var deficits struct {
		Events []events.Event `json:"events"`
	}
	call(t, nil, "GET", b.url()+"/events?type=manifest_deficit&function="+fn, nil, &deficits)
	if len(deficits.Events) != 1 {
		t.Fatalf("deficit events on B = %d, want 1", len(deficits.Events))
	}
	deficit := deficits.Events[0]
	if deficit.Fields["chunks_missing"] != "1" {
		t.Fatalf("deficit event = %+v, want chunks_missing=1", deficit)
	}

	// The gateway's repair event cites the deficit across ledgers.
	var repair *events.Event
	for _, e := range g.Events().Since(0, events.Repair, fn) {
		e := e
		if e.Fields["action"] == "chunks_eager" {
			repair = &e
		}
	}
	if repair == nil {
		t.Fatal("no chunks_eager repair event in gateway ledger")
	}
	if repair.CauseSeq != deficit.Seq || repair.CauseOrigin != b.addr {
		t.Fatalf("repair cause = (%d, %q), want (%d, %q)",
			repair.CauseSeq, repair.CauseOrigin, deficit.Seq, b.addr)
	}
	if repair.TraceID == "" {
		t.Fatal("repair event carries no trace id")
	}

	// cause_seq resolves against the named origin's ledger: asking B for
	// events after cause_seq-1 returns the deficit event first.
	var resolved struct {
		Events []events.Event `json:"events"`
	}
	call(t, nil, "GET", b.url()+"/events?since_seq="+
		strconv.FormatUint(repair.CauseSeq-1, 10)+"&type=manifest_deficit", nil, &resolved)
	if len(resolved.Events) == 0 || resolved.Events[0].Seq != repair.CauseSeq {
		t.Fatalf("cause_seq %d did not resolve on %s: %+v", repair.CauseSeq, b.addr, resolved.Events)
	}

	// The deficit repair's trace resolves through the gateway fan-out
	// with a tier-labelled fetch.
	waitFor(t, "the deficit repair's waterfall never showed its fetch", waterfallHas(t, h, repair.TraceID, &wf,
		"chunk-sync", "  fetch ", "tier="))

	// Converged: the next clean pass closes the chain, citing the
	// repair event in the gateway's own ledger.
	if n := sweep(g); n != 0 {
		t.Fatalf("converged pass issued %d actions", n)
	}
	var converged *events.Event
	for _, e := range g.Events().Since(0, events.Converged, "") {
		e := e
		if e.Fields["backend"] == b.addr {
			converged = &e
		}
	}
	if converged == nil {
		t.Fatal("no converged event for B in gateway ledger")
	}
	if converged.CauseSeq != repair.Seq || converged.CauseOrigin != "gateway" {
		t.Fatalf("converged cause = (%d, %q), want (%d, \"gateway\")",
			converged.CauseSeq, converged.CauseOrigin, repair.Seq)
	}

	// The merged cluster view shows the whole chain with origins.
	var cl struct {
		Events []events.Event `json:"events"`
	}
	call(t, h, "GET", "/cluster/events", nil, &cl)
	seen := map[string]bool{}
	for _, e := range cl.Events {
		switch {
		case e.Type == events.ManifestDeficit && e.Origin == b.addr && e.Seq == deficit.Seq:
			seen["deficit"] = true
		case e.Type == events.Repair && e.Origin == "gateway" && e.Seq == repair.Seq:
			seen["repair"] = true
		case e.Type == events.Converged && e.Origin == "gateway" && e.Seq == converged.Seq:
			seen["converged"] = true
		}
	}
	for _, k := range []string{"deficit", "repair", "converged"} {
		if !seen[k] {
			t.Errorf("merged /cluster/events missing the %s link (have %v)", k, seen)
		}
	}

	// Every trace id is one daemon's: recovery replays and restores.
	minted := map[string]string{}
	for _, n := range []*daemonNode{a, b, c} {
		var ids []string
		call(t, nil, "GET", n.url()+"/traces", nil, &ids)
		for _, id := range ids {
			if other, dup := minted[id]; dup {
				t.Fatalf("trace id %s minted by both %s and %s", id, other, n.addr)
			}
			minted[id] = n.addr
		}
	}
	for _, e := range g.Events().Since(0, events.Repair, fn) {
		if e.TraceID == "" {
			continue // a register carries no trace
		}
		var got, want []*trace.Span
		call(t, h, "GET", "/traces/"+e.TraceID, nil, &got)
		call(t, nil, "GET", "http://"+e.Fields["backend"]+"/traces/"+e.TraceID, nil, &want)
		if minted[e.TraceID] != e.Fields["backend"] || len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("repair %+v: its trace, minted by %q, resolves through the gateway as %d spans, want its backend's %d",
				e, minted[e.TraceID], len(got), len(want))
		}
	}
}
