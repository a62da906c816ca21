package gateway

// Tests for the gateway half of the observability plane, against
// scriptable fakes: the /cluster/slo and /cluster/profiles roll-ups,
// the concurrent trace lookup, and the access-log noise controls.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faasnap/internal/obs"
	"faasnap/internal/slo"
)

// sloBody builds one backend's GET /slo response: one function with
// the given lifetime and per-window counts across all four windows.
func sloBody(fn string, good, bad int64) string {
	win := func(w string) string {
		return fmt.Sprintf(`{"window":%q,"good":%d,"bad":%d,"burn_rate":0}`, w, good, bad)
	}
	return fmt.Sprintf(`{"functions":[{"function":%q,"latency_ms":500,"target":0.99,"good":%d,"bad":%d,"attainment":0,"windows":[%s,%s,%s,%s],"burning":false}]}`,
		fn, good, bad, win("5m0s"), win("1h0m0s"), win("30m0s"), win("6h0m0s"))
}

func e2eGet(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestClusterSLOMerge scripts two backends' /slo reports and checks the
// gateway merges counts, recomputes burn and flags the burning
// function, from what the backends answer when it is asked.
func TestClusterSLOMerge(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	// Backend 0 is burning f; backend 1 is healthy on f and alone on g;
	// backend 2 answers GET /slo with 404 and must be skipped, not fatal.
	fakes[0].sloJSON.Store(sloBody("f", 90, 10))
	fakes[1].sloJSON.Store(strings.Replace(sloBody("f", 100, 0), `}]}`,
		`},{"function":"g","latency_ms":500,"target":0.99,"good":50,"bad":0,"attainment":1,"windows":[{"window":"5m0s","good":50,"bad":0,"burn_rate":0},{"window":"1h0m0s","good":50,"bad":0,"burn_rate":0}],"burning":false}]}`, 1))
	g := newTestGateway(t, Config{}, fakes...)

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	var body struct {
		Cluster  slo.Report             `json:"cluster"`
		Burning  []string               `json:"burning_functions"`
		Backends map[string]*slo.Report `json:"backends"`
	}
	if sc := e2eGet(t, srv.URL+"/cluster/slo", &body); sc != 200 {
		t.Fatalf("/cluster/slo = %d", sc)
	}
	if len(body.Backends) != 2 {
		t.Fatalf("backends in roll-up = %d, want 2 (404 backend skipped)", len(body.Backends))
	}
	if len(body.Cluster.Functions) != 2 {
		t.Fatalf("merged functions = %d, want 2", len(body.Cluster.Functions))
	}
	f := body.Cluster.Functions[0]
	if f.Function != "f" || f.Good != 190 || f.Bad != 10 {
		t.Fatalf("merged f = %+v, want good 190 bad 10", f)
	}
	// 10 bad of 200 counted over a 1% budget: burn 5, in every window.
	for _, w := range f.Windows {
		if w.BurnRate < 4.99 || w.BurnRate > 5.01 {
			t.Errorf("merged window %s burn = %g, want ~5", w.Window, w.BurnRate)
		}
	}
	if !f.Burning {
		t.Error("merged f should be burning (fast+slow pairs over 1x)")
	}
	if len(body.Burning) != 1 || body.Burning[0] != "f" {
		t.Errorf("burning_functions = %v, want [f]", body.Burning)
	}

	// /cluster flags the burning functions too.
	var cl struct {
		Burning []string `json:"burning_functions"`
	}
	e2eGet(t, srv.URL+"/cluster", &cl)
	if len(cl.Burning) != 1 || cl.Burning[0] != "f" {
		t.Errorf("/cluster burning_functions = %v, want [f]", cl.Burning)
	}
}

// TestClusterProfilesMerge scripts two backends' flight-recorder
// summaries and checks the merged aggregation.
func TestClusterProfilesMerge(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	fakes[0].profJSON.Store(`{"count":10,"functions":[{"function":"f","count":10,"errors":1,"degraded":0,"p50_wall_ms":10,"p99_wall_ms":100,"p50_total_ms":20,"p99_total_ms":200,"prefetch_count":10,"prefetch_precision":0.9,"prefetch_recall":0.6,"prefetch_wasted_bytes":100}]}`)
	fakes[1].profJSON.Store(`{"count":30,"functions":[{"function":"f","count":30,"errors":3,"degraded":0,"p50_wall_ms":30,"p99_wall_ms":50,"p50_total_ms":60,"p99_total_ms":100,"prefetch_count":30,"prefetch_precision":0.5,"prefetch_recall":0.2,"prefetch_wasted_bytes":300}]}`)
	g := newTestGateway(t, Config{}, fakes...)

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	var body struct {
		Cluster  obs.Summary             `json:"cluster"`
		Backends map[string]*obs.Summary `json:"backends"`
	}
	if sc := e2eGet(t, srv.URL+"/cluster/profiles", &body); sc != 200 {
		t.Fatalf("/cluster/profiles = %d", sc)
	}
	if body.Cluster.Count != 40 || len(body.Backends) != 2 {
		t.Fatalf("merged count/backends = %d/%d, want 40/2", body.Cluster.Count, len(body.Backends))
	}
	f := body.Cluster.Functions[0]
	if f.Count != 40 || f.Errors != 4 {
		t.Fatalf("merged f = %+v", f)
	}
	if f.P50WallMs != 25 || f.P99WallMs != 100 {
		t.Errorf("merged quantiles p50=%g p99=%g, want 25/100", f.P50WallMs, f.P99WallMs)
	}
	if f.PrefetchPrec < 0.59 || f.PrefetchPrec > 0.61 || f.PrefetchWasteB != 400 {
		t.Errorf("merged prefetch prec=%g waste=%d, want ~0.6/400", f.PrefetchPrec, f.PrefetchWasteB)
	}
}

// TestTraceFindFanout: the lookup probes all ready backends
// concurrently, so the backend that has the trace answers immediately
// even while another backend hangs for its whole timeout slice.
func TestTraceFindFanout(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	fakes[0].traces.Store(func(w http.ResponseWriter, r *http.Request) {
		select { // wedged backend: holds the probe until its slice expires
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	fakes[2].traces.Store(func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "gw-abc123" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"trace_id":%q,"spans":[]}`, r.PathValue("id"))
	})
	g := newTestGateway(t, Config{RequestTimeout: 5 * time.Second}, fakes...)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	start := time.Now()
	var body struct {
		TraceID string `json:"trace_id"`
	}
	if sc := e2eGet(t, srv.URL+"/traces/gw-abc123", &body); sc != 200 {
		t.Fatalf("trace lookup = %d, want 200", sc)
	}
	if body.TraceID != "gw-abc123" {
		t.Fatalf("trace body = %+v", body)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("lookup took %v: the hit should win without waiting out the wedged backend", el)
	}

	// Unknown everywhere: 404 once every probe has answered or expired.
	if sc := e2eGet(t, srv.URL+"/traces/gw-nope", nil); sc != 404 {
		t.Fatalf("unknown trace = %d, want 404", sc)
	}
}

// syncBuffer guards the captured log against concurrent writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newLoggedGateway is newTestGateway minus the discard logger: requests
// land in the returned buffer.
func newLoggedGateway(t *testing.T, cfg Config, fakes ...*fakeBackend) (*Gateway, *syncBuffer) {
	t.Helper()
	buf := &syncBuffer{}
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.addr)
	}
	cfg.HealthInterval = time.Hour
	cfg.Logger = log.New(buf, "", 0)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g, buf
}

// TestAccessLogNoiseControls: scrape and liveness endpoints are never
// access-logged, and -quiet-http drops the access log entirely while
// real traffic still flows.
func TestAccessLogNoiseControls(t *testing.T) {
	fake := newFakeBackend(t)

	g, buf := newLoggedGateway(t, Config{}, fake)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	e2eGet(t, srv.URL+"/metrics", nil)
	e2eGet(t, srv.URL+"/healthz", nil)
	if out := buf.String(); strings.Contains(out, "/metrics") || strings.Contains(out, "/healthz") {
		t.Fatalf("scrape/liveness probes were access-logged:\n%s", out)
	}
	if rep := gwInvokeURL(t, srv.URL, "fn-a"); rep.status != 200 {
		t.Fatalf("invoke = %d", rep.status)
	}
	if !strings.Contains(buf.String(), "POST /functions/fn-a/invoke") {
		t.Fatalf("default config must log real traffic, got:\n%s", buf.String())
	}

	q, qbuf := newLoggedGateway(t, Config{QuietHTTP: true}, fake)
	qsrv := httptest.NewServer(q.Handler())
	defer qsrv.Close()
	if rep := gwInvokeURL(t, qsrv.URL, "fn-a"); rep.status != 200 {
		t.Fatalf("quiet invoke = %d", rep.status)
	}
	if out := qbuf.String(); strings.Contains(out, "/functions/fn-a/invoke") {
		t.Fatalf("quiet-http still wrote an access log line:\n%s", out)
	}
}
