package daemon

// Tests for the daemon half of the observability plane: the flight
// recorder endpoints, the SLO engine wiring, the new Prometheus
// families, and the source half of the metric lint.

import (
	"go/scanner"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/events"
	"faasnap/internal/obs"
	"faasnap/internal/slo"
)

// provisionAndInvoke registers, records, and invokes fn n times in the
// given mode, returning the last invoke response body.
func provisionAndInvoke(t *testing.T, srv string, fn, mode string, n int) map[string]interface{} {
	t.Helper()
	if resp := doJSON(t, "PUT", srv+"/functions/"+fn, nil, nil); resp.StatusCode != 200 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv+"/functions/"+fn+"/record", map[string]string{"input": "A"}, nil); resp.StatusCode != 200 {
		t.Fatalf("record = %d", resp.StatusCode)
	}
	var out map[string]interface{}
	for i := 0; i < n; i++ {
		out = map[string]interface{}{}
		if resp := doJSON(t, "POST", srv+"/functions/"+fn+"/invoke",
			map[string]string{"mode": mode, "input": "A"}, &out); resp.StatusCode != 200 {
			t.Fatalf("invoke %d = %d", i, resp.StatusCode)
		}
	}
	return out
}

func scrape(t *testing.T, srv string) string {
	t.Helper()
	var out string
	doJSON(t, "GET", srv+"/metrics", nil, &out)
	return out
}

// sourceFamilies returns the metric families the non-test Go source under
// root registers: every string literal that is a whole faasnap_ name.
// They are read from the source, not a scrape, because no one scrape
// reaches them all (faasnap_manifest_torn_total needs a torn journal,
// faasnap_gw_shed_total every backend shedding). Dot directories and the
// benchmark module are skipped.
func sourceFamilies(t *testing.T, root string) map[string]bool {
	t.Helper()
	name := regexp.MustCompile(`^faasnap_[a-z0-9_]+$`)
	fams := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "benchmark"):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var sc scanner.Scanner
		sc.Init(token.NewFileSet().AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := sc.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok != token.STRING {
				continue
			}
			if v, err := strconv.Unquote(lit); err == nil && name.MatchString(v) {
				fams[v] = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// documentedFamilies returns the families doc has a table row for: a
// line whose first cell is one backquoted faasnap_ name.
func documentedFamilies(t *testing.T, doc string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(faasnap_[a-z0-9_]+)` \\|")
	fams := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(string(raw), -1) {
		fams[m[1]] = true
	}
	return fams
}

// TestMetricsLint is the source half of the one metric lint (the root
// package's TestMetricsExposition is the scrape half): the families the
// tree's source registers and the doc tables are one list. A faasnap_gw_
// family belongs in GATEWAY.md's table and every other one in
// OBSERVABILITY.md's; a family without its row fails, and so does a row
// nothing registers.
func TestMetricsLint(t *testing.T) {
	registered := sourceFamilies(t, "../..")
	for _, doc := range []string{"OBSERVABILITY.md", "GATEWAY.md"} {
		gw := doc == "GATEWAY.md"
		documented := documentedFamilies(t, "../../"+doc)
		for name := range registered {
			if strings.HasPrefix(name, "faasnap_gw_") == gw && !documented[name] {
				t.Errorf("family %s is registered but has no row in %s", name, doc)
			}
		}
		for name := range documented {
			if !registered[name] || strings.HasPrefix(name, "faasnap_gw_") != gw {
				t.Errorf("%s has a row for %s, which nothing it documents registers", doc, name)
			}
		}
	}
}

// TestGoldenScrapeObservabilityFamilies is the golden-scrape check for
// the families this plane added: SLO gauges and prefetch-effectiveness
// ratio histograms must appear after one faasnap-mode invocation.
func TestGoldenScrapeObservabilityFamilies(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	provisionAndInvoke(t, srv.URL, "hello-world", "faasnap", 2)

	out := scrape(t, srv.URL)
	for _, want := range []string{
		"# TYPE faasnap_slo_burn_rate gauge",
		"# TYPE faasnap_slo_attainment gauge",
		`faasnap_slo_burn_rate{function="hello-world",window="5m0s"}`,
		`faasnap_slo_burn_rate{function="hello-world",window="6h0m0s"}`,
		`faasnap_slo_attainment{function="hello-world"} 1`,
		"# TYPE faasnap_prefetch_precision histogram",
		"# TYPE faasnap_prefetch_recall histogram",
		`faasnap_prefetch_precision_bucket{function="hello-world",le="+Inf"}`,
		`faasnap_prefetch_recall_count{function="hello-world"} 2`,
		`faasnap_prefetch_wasted_bytes_total{function="hello-world"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestProfilesEndpoint drives real invocations and walks the flight
// recorder's three query shapes, then resolves a slowest-entry
// exemplar through GET /traces/{id}.
func TestProfilesEndpoint(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	provisionAndInvoke(t, srv.URL, "hello-world", "faasnap", 3)
	provisionAndInvoke(t, srv.URL, "json", "cached", 2)

	var raw struct {
		Profiles []*obs.Profile `json:"profiles"`
	}
	doJSON(t, "GET", srv.URL+"/profiles", nil, &raw)
	if len(raw.Profiles) != 5 {
		t.Fatalf("profiles = %d, want 5", len(raw.Profiles))
	}
	p := raw.Profiles[0] // newest first
	if p.Function != "json" || p.Mode != "cached" || p.Status != 200 {
		t.Fatalf("newest profile = %+v", p)
	}
	if p.WallMs <= 0 || p.TotalMs <= 0 || p.TraceID == "" {
		t.Fatalf("profile missing measurements: wall=%g total=%g trace=%q", p.WallMs, p.TotalMs, p.TraceID)
	}
	if p.Prefetch == nil && raw.Profiles[2].Prefetch == nil {
		t.Fatal("no profile carries prefetch-effectiveness data")
	}

	// Filtered query.
	var filt struct {
		Profiles []*obs.Profile `json:"profiles"`
	}
	doJSON(t, "GET", srv.URL+"/profiles?fn=hello-world&mode=faasnap", nil, &filt)
	if len(filt.Profiles) != 3 {
		t.Fatalf("filtered profiles = %d, want 3", len(filt.Profiles))
	}

	// Summary aggregation.
	var sum obs.Summary
	doJSON(t, "GET", srv.URL+"/profiles?summary=1", nil, &sum)
	if sum.Count != 5 || len(sum.Functions) != 2 {
		t.Fatalf("summary = count %d functions %d, want 5/2", sum.Count, len(sum.Functions))
	}
	for _, fs := range sum.Functions {
		if fs.Count == 0 || fs.P99WallMs <= 0 {
			t.Errorf("summary for %s = %+v", fs.Function, fs)
		}
	}

	// Slowest-N exemplars resolve through the trace store.
	var slow struct {
		Profiles []*obs.Profile `json:"profiles"`
	}
	doJSON(t, "GET", srv.URL+"/profiles?slowest=2", nil, &slow)
	if len(slow.Profiles) != 2 {
		t.Fatalf("slowest = %d, want 2", len(slow.Profiles))
	}
	if slow.Profiles[0].WallMs < slow.Profiles[1].WallMs {
		t.Fatal("slowest not sorted desc by wall time")
	}
	for _, sp := range slow.Profiles {
		if sp.TraceID == "" {
			t.Fatal("slowest entry without trace exemplar")
		}
		if resp := doJSON(t, "GET", srv.URL+"/traces/"+sp.TraceID, nil, nil); resp.StatusCode != 200 {
			t.Fatalf("trace %s = %d, want 200", sp.TraceID, resp.StatusCode)
		}
	}

	// Bad query params are rejected.
	if resp := doJSON(t, "GET", srv.URL+"/profiles?slowest=0", nil, nil); resp.StatusCode != 400 {
		t.Fatalf("slowest=0 = %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", srv.URL+"/profiles?limit=x", nil, nil); resp.StatusCode != 400 {
		t.Fatalf("limit=x = %d, want 400", resp.StatusCode)
	}
}

// TestProfileRingBound proves the recorder's memory stays bounded: a
// tiny ring retains only the newest records.
func TestProfileRingBound(t *testing.T) {
	d, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	d.profiles = obs.NewRing(2) // before the first request
	provisionAndInvoke(t, srv.URL, "hello-world", "faasnap", 4)
	var raw struct {
		Profiles []*obs.Profile `json:"profiles"`
	}
	doJSON(t, "GET", srv.URL+"/profiles", nil, &raw)
	if len(raw.Profiles) != 2 {
		t.Fatalf("profiles = %d, want ring-bounded 2", len(raw.Profiles))
	}
	// Sequence numbers keep counting across overwrites.
	if raw.Profiles[0].Seq <= 2 {
		t.Fatalf("newest seq = %d, want > 2", raw.Profiles[0].Seq)
	}
}

// TestSLOEndpoint checks /slo over real traffic: all-good invocations
// attain 1.0 with zero burn, and the engine's lifetime counts match
// the traffic sent.
func TestSLOEndpoint(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	provisionAndInvoke(t, srv.URL, "hello-world", "faasnap", 3)

	var rep slo.Report
	doJSON(t, "GET", srv.URL+"/slo", nil, &rep)
	if len(rep.Functions) != 1 {
		t.Fatalf("slo functions = %d, want 1", len(rep.Functions))
	}
	f := rep.Functions[0]
	if f.Function != "hello-world" || f.Good != 3 || f.Bad != 0 {
		t.Fatalf("slo report = %+v, want 3 good", f)
	}
	if f.Attainment != 1 || f.Burning {
		t.Fatalf("healthy function reported att=%g burning=%v", f.Attainment, f.Burning)
	}
	if len(f.Windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(f.Windows))
	}
}

// TestSLOJudgesWallTime holds the SLO engine to what clients see. One
// daemon serves one mixed sequence: fast 200s, 200s that a count-limited
// chaos delay pushes past the objective, a 429 shed while a request is
// parked in the only admission slot, that parked request's 504 at the
// invoke deadline, and a 404. The client classifies each reply by
// OBSERVABILITY.md's rule on the wall time it measured itself, and the
// engine's good and bad counts must equal the client's exactly. The
// 200 ms objective is more than ten fast replies of this small function
// (~12 ms each under -race) above one, and as far below a delayed one.
func TestSLOJudgesWallTime(t *testing.T) {
	const (
		objective = 200 * time.Millisecond
		delay     = 400 * time.Millisecond // a delayed 200 ends 200 ms past the objective
		deadline  = 650 * time.Millisecond // and 250 ms before the deadline
	)
	d, srv := newTestDaemon(t, Config{
		StateDir:   t.TempDir(),
		SLO:        slo.Objective{Latency: objective, Target: 0.99},
		Resilience: ResilienceConfig{MaxInFlight: 1, InvokeTimeout: deadline},
	})
	const fn = "slo-fn"
	if resp := doJSON(t, "PUT", srv.URL+"/functions/"+fn, customSpec(fn, 16), nil); resp.StatusCode != 200 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv.URL+"/functions/"+fn+"/record", map[string]string{"input": "A"}, nil); resp.StatusCode != 200 {
		t.Fatalf("record = %d", resp.StatusCode)
	}

	// invoke is safe off the test goroutine: it reports, never fails.
	invoke := func(fn, tenant string) (int, time.Duration, error) {
		req, _ := http.NewRequest("POST", srv.URL+"/functions/"+fn+"/invoke",
			strings.NewReader(`{"mode":"faasnap","input":"A"}`))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Faasnap-Tenant", tenant)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, time.Since(start), nil
	}
	var good, bad int64
	walls := map[int][]time.Duration{} // by status
	judge := func(st int, wall time.Duration, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		walls[st] = append(walls[st], wall.Round(time.Millisecond))
		switch {
		case st/100 == 2 && wall <= objective:
			good++
		case st/100 == 2, st == 429, st == 504, st/100 == 5:
			bad++
		} // any other 4xx is the caller's, and not counted
	}

	judge(invoke(fn, "tenant-7"))
	judge(invoke(fn, ""))
	doJSON(t, "PUT", srv.URL+"/chaos", chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointVMMAPI, Op: "/snapshot/load", Kind: chaos.KindDelay, DelayMs: delay.Milliseconds(), Count: 2},
		{Point: chaos.PointVMMAPI, Op: "/snapshot/load", Kind: chaos.KindDelay, DelayMs: 10 * deadline.Milliseconds(), Count: 1},
	}}, nil)
	judge(invoke(fn, ""))
	judge(invoke(fn, ""))
	// The third delay outlasts the deadline; while it holds the only
	// admission slot, the next request is shed.
	type reply struct {
		st   int
		wall time.Duration
		err  error
	}
	parked := make(chan reply, 1)
	go func() {
		st, wall, err := invoke(fn, "")
		parked <- reply{st, wall, err}
	}()
	waitFor(t, "the delayed invoke never took its slot", func() bool { return d.limiter.InFlight() > 0 })
	judge(invoke(fn, ""))
	p := <-parked
	judge(p.st, p.wall, p.err)
	judge(invoke(fn, "")) // the rules are spent: fast again
	judge(invoke(fn, ""))
	judge(invoke("ghost", ""))

	statuses := map[int]int{}
	for st, ws := range walls {
		statuses[st] = len(ws)
	}
	if want := map[int]int{200: 6, 429: 1, 504: 1, 404: 1}; !reflect.DeepEqual(statuses, want) || good != 4 || bad != 4 {
		t.Fatalf("client saw %v (good=%d bad=%d), want statuses %v and 4 good, 4 bad", walls, good, bad, want)
	}

	var rep slo.Report
	doJSON(t, "GET", srv.URL+"/slo", nil, &rep)
	var engineGood, engineBad int64
	for _, f := range rep.Functions {
		engineGood, engineBad = engineGood+f.Good, engineBad+f.Bad
	}
	if engineGood != good || engineBad != bad {
		t.Fatalf("engine good=%d bad=%d, client good=%d bad=%d", engineGood, engineBad, good, bad)
	}

	// And the tenant header lands in the profile.
	var raw struct {
		Profiles []*obs.Profile `json:"profiles"`
	}
	doJSON(t, "GET", srv.URL+"/profiles?fn="+fn, nil, &raw)
	if n := len(raw.Profiles); n == 0 || raw.Profiles[n-1].Tenant != "tenant-7" {
		t.Fatalf("tenant attribution missing: %+v", raw.Profiles)
	}
}

// TestSLOPageEvents drives the page condition through the daemon under
// a loose objective (target 0.5, so one bad outcome in two burns at
// exactly 1): a hung restore's 504 enters the page condition, and the
// first good invoke after it leaves it. GET /events must show exactly
// one slo_page for each transition, in the order they happened, and no
// more however many good outcomes follow.
func TestSLOPageEvents(t *testing.T) {
	_, srv := newTestDaemon(t, Config{
		SLO:        slo.Objective{Latency: time.Minute, Target: 0.5},
		Resilience: ResilienceConfig{InvokeTimeout: 200 * time.Millisecond},
		Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{
			{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindHang, Count: 1},
		}},
	})
	recordedFn(t, srv.URL)
	invoke := func(want int) {
		t.Helper()
		if resp := doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
			map[string]string{"mode": "faasnap", "input": "B"}, nil); resp.StatusCode != want {
			t.Fatalf("invoke = %d, want %d", resp.StatusCode, want)
		}
	}
	pages := func() []string {
		t.Helper()
		var reply struct {
			Events []events.Event `json:"events"`
		}
		doJSON(t, "GET", srv.URL+"/events?type=slo_page", nil, &reply)
		var out []string
		for _, e := range reply.Events {
			out = append(out, e.Function+":"+e.Fields["burning"])
		}
		return out
	}

	invoke(http.StatusGatewayTimeout)
	if got, want := pages(), []string{"hello-world:true"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("slo_page after one bad outcome = %v, want %v", got, want)
	}
	for i := 0; i < 3; i++ {
		invoke(http.StatusOK)
	}
	if got, want := pages(), []string{"hello-world:true", "hello-world:false"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("slo_page after the good outcomes = %v, want %v", got, want)
	}
}

// TestProfilesRecordShedOutcomes: even a request rejected at admission
// leaves a flight record and counts against the SLO.
func TestProfilesRecordShedOutcomes(t *testing.T) {
	d, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	// Invoking an unregistered function 404s; 4xx is excluded from the
	// SLO but still recorded by the flight recorder.
	if resp := doJSON(t, "POST", srv.URL+"/functions/ghost/invoke",
		map[string]string{"mode": "faasnap", "input": "A"}, nil); resp.StatusCode != 404 {
		t.Fatalf("ghost invoke = %d, want 404", resp.StatusCode)
	}
	var raw struct {
		Profiles []*obs.Profile `json:"profiles"`
	}
	doJSON(t, "GET", srv.URL+"/profiles", nil, &raw)
	if len(raw.Profiles) != 1 || raw.Profiles[0].Status != 404 {
		t.Fatalf("404 left no flight record: %+v", raw.Profiles)
	}
	if rep := d.slo.Report(); len(rep.Functions) != 0 {
		t.Fatalf("excluded 4xx still reached the SLO engine: %+v", rep.Functions)
	}
}
