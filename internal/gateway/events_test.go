package gateway

// The gateway half of the event-ledger plane, tested over real
// daemons: the merged /cluster/events view, the repair→deficit
// causality chain that resolves across ledgers, the restore waterfall
// a chunk sync leaves behind, and a lint pass over the gateway's own
// scrape surface.

import (
	"bytes"
	"encoding/json"
	"go/scanner"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"faasnap/internal/events"
	"faasnap/internal/trace"
)

// gwScrape returns the gateway registry's full Prometheus exposition.
func gwScrape(g *Gateway) string {
	var buf bytes.Buffer
	g.reg.WritePrometheus(&buf)
	return buf.String()
}

// sourceFamilies returns the metric families this package's non-test
// source registers: every string literal that is a whole faasnap_ name.
// They are read from the source, not a scrape, because no one scrape
// reaches them all (faasnap_gw_shed_total needs every backend to shed).
func sourceFamilies(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^faasnap_[a-z0-9_]+$`)
	fams := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var sc scanner.Scanner
		sc.Init(token.NewFileSet().AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := sc.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.STRING {
				continue
			}
			if v, err := strconv.Unquote(lit); err == nil && name.MatchString(v) {
				fams[v] = true
			}
		}
	}
	return fams
}

// TestGatewayMetricsLint mirrors the daemon's lint. GATEWAY.md's metric
// table and the families the gateway's source registers are one list (a
// family without a row fails, and so does a row nothing registers); and
// after real traffic and a sweep, every family the gateway exposes must
// be faasnap_gw_-prefixed snake_case with HELP and TYPE lines.
func TestGatewayMetricsLint(t *testing.T) {
	registered := sourceFamilies(t)
	raw, err := os.ReadFile("../../GATEWAY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(faasnap_[a-z0-9_]+)` \\|").FindAllStringSubmatch(string(raw), -1) {
		documented[m[1]] = true
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("family %s is registered but has no row in GATEWAY.md", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("GATEWAY.md has a row for %s, which nothing registers", name)
		}
	}

	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{}, f1, f2)
	gwInvoke(t, g, "lint-fn")
	g.CheckNow()
	g.ResyncNow()

	out := gwScrape(g)
	nameRe := regexp.MustCompile(`^faasnap_gw_[a-z0-9_]+$`)
	helped := map[string]bool{}
	typed := map[string]bool{}
	var families []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || strings.TrimSpace(parts[1]) == "" {
				t.Errorf("HELP line without text: %q", line)
			}
			helped[parts[0]] = true
			families = append(families, parts[0])
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			typed[parts[0]] = true
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if fam := strings.TrimSuffix(name, suffix); fam != name && helped[fam] {
					base = fam
					break
				}
			}
			if !helped[base] {
				t.Errorf("series %q has no HELP for family %q", name, base)
			}
		}
	}
	if len(families) == 0 {
		t.Fatal("gateway scrape exposed no families")
	}
	for _, fam := range families {
		if !nameRe.MatchString(fam) {
			t.Errorf("family %q is not faasnap_gw_-prefixed snake_case", fam)
		}
		if !typed[fam] {
			t.Errorf("family %q has HELP but no TYPE", fam)
		}
	}
}

// TestGatewayGoldenScrapeFamilies pins the gateway scrape's load-
// bearing families, the sweep histogram included: dashboards key on
// these exact names.
func TestGatewayGoldenScrapeFamilies(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{}, f1, f2)
	gwInvoke(t, g, "golden-fn")

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

// fetchSpans resolves a trace id through the gateway's fan-out lookup,
// returning nil when no backend holds it.
func fetchSpans(t *testing.T, base, id string) []*trace.Span {
	t.Helper()
	resp, err := http.Get(base + "/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var spans []*trace.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatalf("bad trace body: %v", err)
	}
	return spans
}

// waitWaterfall polls the gateway's trace lookup until the rendered
// waterfall contains every wanted substring (the lazy tail lands
// asynchronously after the sync reply) and returns the rendering.
func waitWaterfall(t *testing.T, base, id string, wants ...string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var out string
	for time.Now().Before(deadline) {
		if spans := fetchSpans(t, base, id); len(spans) > 0 {
			out = trace.RenderWaterfall(spans)
			ok := true
			for _, w := range wants {
				if !strings.Contains(out, w) {
					ok = false
					break
				}
			}
			if ok {
				return out
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("waterfall for %s never contained %v; last render:\n%s", id, wants, out)
	return ""
}

// TestEventsSmoke is the daemon + gateway ledger round-trip the
// events-smoke make target runs: a repair sweep over real daemons must
// land in both ledgers, merge with origins on /cluster/events, and
// leave a restore trace the waterfall renderer can draw.
func TestEventsSmoke(t *testing.T) {
	_, addrA := startRealDaemon(t)
	_, addrB := startRealDaemon(t)
	g := newTestGateway(t, Config{Replicas: 1, Backends: []string{addrA, addrB}})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const fn = "events-smoke"
	base := "http://" + addrA
	if st := daemonJSON(t, "PUT", base+"/functions/"+fn, chunkSyncSpec(fn), nil); st != http.StatusOK {
		t.Fatalf("register on A = %d", st)
	}
	if st := daemonJSON(t, "POST", base+"/functions/"+fn+"/record",
		map[string]string{"input": "A"}, nil); st != http.StatusOK {
		t.Fatalf("record on A = %d", st)
	}
	g.CheckNow()
	if n := g.ResyncNow(); n != 2 {
		t.Fatalf("resync actions = %d, want 2 (register + chunk-sync)", n)
	}

	// Daemon ledger round-trip: each daemon recorded at least its
	// recovery replay.
	var dr struct {
		Events  []events.Event `json:"events"`
		LastSeq uint64         `json:"last_seq"`
	}
	if st := daemonJSON(t, "GET", base+"/events", nil, &dr); st != http.StatusOK || dr.LastSeq == 0 {
		t.Fatalf("daemon /events: status=%d last_seq=%d", st, dr.LastSeq)
	}

	// Gateway merged view: gateway-origin repair events interleaved with
	// both backends' ledgers.
	var cl struct {
		Events []events.Event `json:"events"`
	}
	if st := daemonJSON(t, "GET", srv.URL+"/cluster/events", nil, &cl); st != http.StatusOK {
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
	for _, o := range []string{"gateway", addrA, addrB} {
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
	// and renders as a waterfall: decode, tier-labelled eager fetch
	// groups, commit, lazy tail.
	waitCASDrained(t, "http://"+addrB)
	wf := waitWaterfall(t, srv.URL, repair.TraceID,
		"chunk-sync", "snapfile-decode", "eager-fetch", "tier=", "commit", "lazy-tail")
	if !strings.Contains(wf, "trace "+repair.TraceID) {
		t.Fatalf("waterfall header missing trace id:\n%s", wf)
	}
}

// TestRepairCausalityChain is the 3-daemon acceptance test: a deleted
// chunk produces a manifest_deficit event on the damaged daemon, the
// gateway's repair event cites it via (cause_seq, cause_origin), the
// repair's trace resolves through the gateway, and the converged event
// closes the chain by citing the repair.
func TestRepairCausalityChain(t *testing.T) {
	_, addrA := startRealDaemon(t)
	_, dirB, addrB := startRealDaemonDir(t)
	_, addrC := startRealDaemon(t)
	g := newTestGateway(t, Config{Replicas: 2, Backends: []string{addrA, addrB, addrC}})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const fn = "causality-alpha"
	base := "http://" + addrA
	if st := daemonJSON(t, "PUT", base+"/functions/"+fn, chunkSyncSpec(fn), nil); st != http.StatusOK {
		t.Fatalf("register on A = %d", st)
	}
	if st := daemonJSON(t, "POST", base+"/functions/"+fn+"/record",
		map[string]string{"input": "A"}, nil); st != http.StatusOK {
		t.Fatalf("record on A = %d", st)
	}
	g.CheckNow()
	if n := g.ResyncNow(); n != 4 {
		t.Fatalf("initial resync actions = %d, want 4 (register + chunk-sync on B and C)", n)
	}
	waitCASDrained(t, "http://"+addrB)
	waitCASDrained(t, "http://"+addrC)

	// The wiped-replica sync left a restore waterfall: per-group eager
	// fetches with tier labels plus the asynchronous lazy tail.
	var initial *events.Event
	for _, e := range g.Events().Since(0, events.Repair, fn) {
		e := e
		if e.Fields["action"] == "chunks" && e.Fields["backend"] == addrB {
			initial = &e
		}
	}
	if initial == nil || initial.TraceID == "" {
		t.Fatalf("no traced chunk-sync repair for B in gateway ledger (got %+v)", initial)
	}
	waitWaterfall(t, srv.URL, initial.TraceID,
		"chunk-sync", "snapfile-decode", "eager-fetch", "tier=", "commit", "lazy-tail")

	// Damage B: drop one non-loading-set chunk out-of-band.
	var cmFull struct {
		Chunks []struct {
			Digest     string `json:"digest"`
			LoadingSet bool   `json:"loading_set"`
		} `json:"chunks"`
	}
	daemonJSON(t, "GET", "http://"+addrB+"/functions/"+fn+"/chunkmap", nil, &cmFull)
	victim := ""
	for _, c := range cmFull.Chunks {
		if !c.LoadingSet {
			victim = c.Digest
			break
		}
	}
	if victim == "" {
		t.Fatal("chunk map has no lazy chunks")
	}
	if err := os.Remove(filepath.Join(dirB, "cas", "chunks", victim[:2], victim)); err != nil {
		t.Fatalf("remove chunk file: %v", err)
	}

	// The sweep's status read makes B announce the deficit, and the
	// repair pass issues exactly one eager chunk sync.
	g.CheckNow()
	if n := g.ResyncNow(); n != 1 {
		t.Fatalf("repair pass actions = %d, want 1", n)
	}

	var deficits struct {
		Events []events.Event `json:"events"`
	}
	daemonJSON(t, "GET", "http://"+addrB+"/events?type=manifest_deficit&function="+fn, nil, &deficits)
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
	if repair.CauseSeq != deficit.Seq || repair.CauseOrigin != addrB {
		t.Fatalf("repair cause = (%d, %q), want (%d, %q)",
			repair.CauseSeq, repair.CauseOrigin, deficit.Seq, addrB)
	}
	if repair.TraceID == "" {
		t.Fatal("repair event carries no trace id")
	}

	// cause_seq resolves against the named origin's ledger: asking B for
	// events after cause_seq-1 returns the deficit event first.
	var resolved struct {
		Events []events.Event `json:"events"`
	}
	daemonJSON(t, "GET", "http://"+addrB+"/events?since_seq="+
		strconv.FormatUint(repair.CauseSeq-1, 10)+"&type=manifest_deficit", nil, &resolved)
	if len(resolved.Events) == 0 || resolved.Events[0].Seq != repair.CauseSeq {
		t.Fatalf("cause_seq %d did not resolve on %s: %+v", repair.CauseSeq, addrB, resolved.Events)
	}

	// The eager repair's trace resolves through the gateway fan-out with
	// tier-labelled eager fetches.
	waitWaterfall(t, srv.URL, repair.TraceID, "chunk-sync", "eager-fetch", "tier=")

	// Converged: the next clean pass closes the chain, citing the
	// repair event in the gateway's own ledger.
	g.CheckNow()
	if n := g.ResyncNow(); n != 0 {
		t.Fatalf("converged pass issued %d actions", n)
	}
	var converged *events.Event
	for _, e := range g.Events().Since(0, events.Converged, "") {
		e := e
		if e.Fields["backend"] == addrB {
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
	daemonJSON(t, "GET", srv.URL+"/cluster/events", nil, &cl)
	seen := map[string]bool{}
	for _, e := range cl.Events {
		switch {
		case e.Type == events.ManifestDeficit && e.Origin == addrB && e.Seq == deficit.Seq:
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
}
