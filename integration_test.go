package faasnap_test

// End-to-end integration tests: each test exercises a full user
// journey across multiple subsystems rather than one package.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"faasnap"
	"faasnap/internal/core"
	"faasnap/internal/daemon"
	"faasnap/internal/gateway"
	"faasnap/internal/kvstore"
	"faasnap/internal/workload"
)

// TestIntegrationPaperPipeline runs the full record→test pipeline for
// three functions across every comparison mode and checks the paper's
// global orderings hold simultaneously.
func TestIntegrationPaperPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := faasnap.New()
	for _, name := range []string{"hello-world", "json", "image"} {
		fn, err := p.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fn.Record("A"); err != nil {
			t.Fatal(err)
		}
		results := map[faasnap.Mode]*faasnap.Result{}
		for _, mode := range faasnap.Modes() {
			r, err := fn.Invoke(mode, "B")
			if err != nil {
				t.Fatal(err)
			}
			results[mode] = r
		}
		warm := results[faasnap.ModeWarm].Total
		fc := results[faasnap.ModeFirecracker].Total
		fs := results[faasnap.ModeFaaSnap].Total
		cached := results[faasnap.ModeCached].Total
		if !(warm < fs && fs < fc) {
			t.Errorf("%s: warm %v < faasnap %v < firecracker %v violated", name, warm, fs, fc)
		}
		if fs > cached*13/10 {
			t.Errorf("%s: faasnap %v not within 30%% of cached %v", name, fs, cached)
		}
		if results[faasnap.ModeFaaSnap].Faults.Majors() >= results[faasnap.ModeFirecracker].Faults.Majors() {
			t.Errorf("%s: faasnap majors not below firecracker", name)
		}
	}
}

// TestIntegrationDaemonJourney drives the daemon the way an operator
// would: boot, record, invoke all modes, burst, inspect traces, then
// restart on the same state directory and keep serving.
func TestIntegrationDaemonJourney(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	kv := kvstore.NewServer()
	kvAddr, err := kv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	newDaemon := func() (*daemon.Daemon, *httptest.Server) {
		d, err := daemon.New(daemon.Config{
			StateDir: dir,
			KVAddr:   kvAddr,
			Logger:   log.New(io.Discard, "", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return d, httptest.NewServer(d.Handler())
	}
	d, srv := newDaemon()

	do := func(base, method, path string, body interface{}, out interface{}) int {
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, base+path, rd)
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
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	if code := do(srv.URL, "PUT", "/functions/pyaes", nil, nil); code != 200 {
		t.Fatalf("create = %d", code)
	}
	if code := do(srv.URL, "POST", "/functions/pyaes/record", map[string]string{"input": "A"}, nil); code != 200 {
		t.Fatalf("record = %d", code)
	}
	var last daemon.InvokeResponse
	for _, mode := range []string{"firecracker", "cached", "reap", "faasnap", "cold", "warm"} {
		if code := do(srv.URL, "POST", "/functions/pyaes/invoke",
			map[string]string{"mode": mode, "input": "B"}, &last); code != 200 {
			t.Fatalf("invoke %s = %d", mode, code)
		}
		if last.TotalMs <= 0 {
			t.Fatalf("invoke %s = %+v", mode, last)
		}
	}
	var burst daemon.BurstResponse
	if code := do(srv.URL, "POST", "/functions/pyaes/burst",
		map[string]interface{}{"mode": "faasnap", "parallel": 8}, &burst); code != 200 || len(burst.Results) != 8 {
		t.Fatalf("burst = %d %+v", code, burst)
	}
	var traces []string
	do(srv.URL, "GET", "/traces", nil, &traces)
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}

	// Restart: persisted snapfile keeps serving without a new record.
	srv.Close()
	d.Close()
	d2, srv2 := newDaemon()
	defer func() {
		srv2.Close()
		d2.Close()
	}()
	if code := do(srv2.URL, "POST", "/functions/pyaes/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &last); code != 200 {
		t.Fatalf("invoke after restart = %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "pyaes.snap")); err != nil {
		t.Fatalf("snapfile missing: %v", err)
	}
}

// TestIntegrationCustomFunctionConfig registers the shipped example
// custom-function config and runs it end to end.
func TestIntegrationCustomFunctionConfig(t *testing.T) {
	raw, err := os.ReadFile("configs/custom-function.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "thumbnailer" {
		t.Fatalf("spec = %+v", spec)
	}
	var cfg faasnap.CustomSpec
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	p := faasnap.New()
	fn, err := p.RegisterCustom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fn.Record("A"); err != nil {
		t.Fatal(err)
	}
	fs, err := fn.Invoke(faasnap.ModeFaaSnap, "ratio:2.0")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := fn.Invoke(faasnap.ModeFirecracker, "ratio:2.0")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Total >= fc.Total {
		t.Fatalf("custom fn: faasnap %v not faster than firecracker %v", fs.Total, fc.Total)
	}
}

// TestIntegrationDeterministicEndToEnd runs the same full pipeline
// twice and requires bit-identical outcomes.
func TestIntegrationDeterministicEndToEnd(t *testing.T) {
	run := func() (time.Duration, int64) {
		fn, err := workload.ByName("chameleon")
		if err != nil {
			t.Fatal(err)
		}
		arts, _ := core.Record(core.DefaultHostConfig(), fn, fn.A)
		r := core.RunSingle(core.DefaultHostConfig(), arts, core.ModeFaaSnap, fn.B)
		return r.Total, r.Faults.Total()
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic pipeline: %v/%d vs %v/%d", t1, f1, t2, f2)
	}
}

// TestMetricsExposition is the scrape half of the one metric lint
// (internal/daemon's TestMetricsLint is the source half). After real
// traffic through a gateway in front of a real daemon, and a sweep,
// every family either tier exposes is snake_case under its tier's
// prefix — faasnap_gw_ on the gateway, faasnap_ but not faasnap_gw_ on
// the daemon — with HELP text and a TYPE line, and every series belongs
// to a family with HELP: the naming contract dashboards and recording
// rules rely on.
func TestMetricsExposition(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	d, err := daemon.New(daemon.Config{StateDir: t.TempDir(), Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer d.Close()
	defer srv.Close()
	g, err := gateway.New(gateway.Config{Backends: []string{strings.TrimPrefix(srv.URL, "http://")}, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	for _, step := range []struct{ method, path, body string }{
		{"PUT", "/functions/hello-world", ""},
		{"POST", "/functions/hello-world/record", `{"input":"A"}`},
		{"POST", "/functions/hello-world/invoke", `{"mode":"faasnap","input":"B"}`},
		{"POST", "/functions/hello-world/invoke", `{"mode":"faasnap","input":"B"}`},
	} {
		req, _ := http.NewRequest(step.method, gw.URL+step.path, strings.NewReader(step.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s via the gateway = %d", step.method, step.path, resp.StatusCode)
		}
	}
	g.CheckNow()
	g.ResyncNow()

	snake := regexp.MustCompile(`^faasnap_[a-z0-9_]+$`)
	for _, tier := range []struct {
		name, url string
		gateway   bool
	}{{"daemon", srv.URL, false}, {"gateway", gw.URL, true}} {
		resp, err := http.Get(tier.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		helped, typed := map[string]bool{}, map[string]bool{}
		var families []string
		for _, line := range strings.Split(string(raw), "\n") {
			switch {
			case strings.HasPrefix(line, "# HELP "):
				fam, text, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
				if strings.TrimSpace(text) == "" {
					t.Errorf("%s: HELP line without text: %q", tier.name, line)
				}
				helped[fam] = true
				families = append(families, fam)
			case strings.HasPrefix(line, "# TYPE "):
				fam, _, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
				typed[fam] = true
			case line == "" || strings.HasPrefix(line, "#"):
			default:
				// A series line: name{labels} value or name value.
				name, _, _ := strings.Cut(line, " ")
				name, _, _ = strings.Cut(name, "{")
				fam := name
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if f := strings.TrimSuffix(name, suffix); f != name && helped[f] {
						fam = f
						break
					}
				}
				if !helped[fam] {
					t.Errorf("%s: series %q has no HELP for family %q", tier.name, name, fam)
				}
			}
		}
		if len(families) == 0 {
			t.Fatalf("%s scrape exposed no families", tier.name)
		}
		for _, fam := range families {
			if !snake.MatchString(fam) || strings.HasPrefix(fam, "faasnap_gw_") != tier.gateway {
				t.Errorf("%s: family %q is not snake_case under the %s prefix", tier.name, fam, tier.name)
			}
			if !typed[fam] {
				t.Errorf("%s: family %q has HELP but no TYPE", tier.name, fam)
			}
		}
	}
}
