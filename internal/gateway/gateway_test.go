package gateway

// Unit tests against scriptable fake backends: placement decisions
// (sticky, spillover, retry), breaker behavior, 429 shed handling, and
// deadline propagation — no real daemons involved.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"faasnap/internal/resilience"
)

func TestStickyRoutingHitsOwner(t *testing.T) {
	net, fakes := newFakes(3)
	g := newTestGateway(t, net, Config{})
	owner := prefFakes(t, g, "hello-world", 1, fakes)[0]
	h := g.Handler()
	for i := 0; i < 10; i++ {
		rep := gwInvoke(t, h, "hello-world")
		if rep.status != 200 {
			t.Fatalf("invoke %d = %d", i, rep.status)
		}
		if rep.placement != PlacementSticky {
			t.Fatalf("invoke %d placement = %q, want sticky", i, rep.placement)
		}
		if rep.backend != owner.addr {
			t.Fatalf("invoke %d backend = %q, want owner %q", i, rep.backend, owner.addr)
		}
		if rep.body["placement"] != "sticky" || rep.body["backend"] != owner.addr {
			t.Fatalf("response body missing placement metadata: %v", rep.body)
		}
	}
	if n := net.count("POST /functions/hello-world/invoke", owner.addr); n != 10 {
		t.Fatalf("owner served %d invokes, want 10", n)
	}
}

// A drained (unready) owner spills over to the least-loaded remaining
// backend without a failed attempt.
func TestSpilloverWhenOwnerUnready(t *testing.T) {
	net, fakes := newFakes(3)
	g := newTestGateway(t, net, Config{})
	owner := prefFakes(t, g, "fn-a", 1, fakes)[0]
	owner.ready.Store(false)
	g.CheckNow()

	// Load the second-preference backend so least-loaded wins over
	// preference order.
	prefs := preference(g.backends, "fn-a", 0)
	prefs[1].inflight.Store(10)
	rep := gwInvoke(t, g.Handler(), "fn-a")
	if rep.status != 200 || rep.placement != PlacementSpillover {
		t.Fatalf("got %d/%q, want 200/spillover", rep.status, rep.placement)
	}
	if rep.backend != prefs[2].Addr {
		t.Fatalf("spillover chose %q, want least-loaded %q", rep.backend, prefs[2].Addr)
	}
	if net.count("POST /functions/fn-a/invoke", owner.addr) != 0 {
		t.Fatal("unready owner still received traffic")
	}
}

// A saturated owner (at MaxPerBackend) spills over instead of queueing.
func TestSpilloverWhenOwnerSaturated(t *testing.T) {
	net, _ := newFakes(3)
	g := newTestGateway(t, net, Config{MaxPerBackend: 4})
	owner := prefAddrs(g, "fn-a", 1)[0]
	backendAt(g, owner).inflight.Store(4)
	rep := gwInvoke(t, g.Handler(), "fn-a")
	if rep.status != 200 || rep.placement != PlacementSpillover {
		t.Fatalf("got %d/%q, want 200/spillover", rep.status, rep.placement)
	}
	if rep.backend == owner {
		t.Fatal("saturated owner still chosen")
	}
}

// An open breaker skips the owner without spending an attempt on it.
func TestSpilloverWhenBreakerOpen(t *testing.T) {
	net, _ := newFakes(3)
	g := newTestGateway(t, net, Config{})
	owner := prefAddrs(g, "fn-a", 1)[0]
	ob := backendAt(g, owner)
	ob.breaker.SetClock(func() time.Time { return time.Unix(0, 0) }) // the cooldown never runs out
	for i := 0; i < 3; i++ {
		ob.breaker.Report(resilience.Unhealthy)
	}
	rep := gwInvoke(t, g.Handler(), "fn-a")
	if rep.status != 200 || rep.placement != PlacementSpillover {
		t.Fatalf("got %d/%q, want 200/spillover", rep.status, rep.placement)
	}
	if net.count("POST /functions/fn-a/invoke", owner) != 0 {
		t.Fatal("breaker-open owner still received traffic")
	}
}

// A failing owner — a 5xx or a dropped connection — costs one attempt,
// trips its breaker failure count, and the request is answered by
// another backend as a retry.
func TestRetryOnBackendError(t *testing.T) {
	net, fakes := newFakes(3)
	g := newTestGateway(t, net, Config{})
	h := g.Handler()
	owner := prefFakes(t, g, "fn-a", 1, fakes)[0]
	owner.script(invokeRoute, answer(http.StatusInternalServerError, `{"error":"boom"}`))
	rep := gwInvoke(t, h, "fn-a")
	if rep.status != 200 || rep.placement != PlacementRetry {
		t.Fatalf("got %d/%q, want 200/retry", rep.status, rep.placement)
	}
	if rep.backend == owner.addr {
		t.Fatal("failing owner answered the request")
	}
	// So does an owner that drops the connection.
	owner.script(invokeRoute, func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	if rep := gwInvoke(t, h, "fn-a"); rep.status != 200 || rep.placement != PlacementRetry {
		t.Fatalf("after a dropped connection: %d/%q, want 200/retry", rep.status, rep.placement)
	}

	// A 400 is the client's error, not the backend's (a bad input name,
	// say): it passes through after one attempt and leaves the breaker
	// closed, where a dropped connection would count against it.
	owner = prefFakes(t, g, "fn-b", 1, fakes)[0]
	owner.script(invokeRoute, answer(http.StatusBadRequest, `{"error":"workload: bad input \"ratio:NaN\""}`))
	rep = gwInvoke(t, h, "fn-b")
	if rep.status != 400 || rep.backend != owner.addr || rep.body["error"] == nil {
		t.Fatalf("got %d from %s body %v, want the owner's 400 passed through", rep.status, rep.backend, rep.body)
	}
	if n := net.count("POST /functions/fn-b/invoke"); n != 1 {
		t.Fatalf("a 400 cost %d attempts, want 1", n)
	}
	if st := backendAt(g, owner.addr).breaker.State().String(); st != "closed" {
		t.Fatalf("owner breaker %s after a 400, want closed", st)
	}
}

// A 404 is a locality miss, not a failure: the request tries the next
// replica and the miss does not count against the breaker.
func TestRetryOnSnapshotMiss(t *testing.T) {
	net, fakes := newFakes(3)
	g := newTestGateway(t, net, Config{})
	owner := prefFakes(t, g, "fn-a", 1, fakes)[0]
	owner.script(invokeRoute, answer(http.StatusNotFound, `{"error":"function not registered"}`))
	rep := gwInvoke(t, g.Handler(), "fn-a")
	if rep.status != 200 || rep.placement != PlacementRetry {
		t.Fatalf("got %d/%q, want 200/retry", rep.status, rep.placement)
	}
	if st := backendAt(g, owner.addr).breaker.State().String(); st != "closed" {
		t.Fatalf("owner breaker %s after a 404 miss, want closed", st)
	}
}

// When every backend 404s, the client sees the 404, not a gateway
// error.
func TestMissEverywherePassesThrough404(t *testing.T) {
	net, fakes := newFakes(2)
	for _, f := range fakes {
		f.script(invokeRoute, answer(http.StatusNotFound, `{"error":"function not registered"}`))
	}
	g := newTestGateway(t, net, Config{})
	if rep := gwInvoke(t, g.Handler(), "nope"); rep.status != 404 {
		t.Fatalf("status = %d, want 404", rep.status)
	}
}

// All backends shedding means the gateway sheds, propagating the
// largest Retry-After hint it saw.
func TestAllBackendsShed(t *testing.T) {
	net, fakes := newFakes(3)
	for i, f := range fakes {
		ra := fmt.Sprintf("%d", i+1)
		f.script(invokeRoute, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", ra)
			answer(http.StatusTooManyRequests, `{"error":"saturated"}`)(w, r)
		})
	}
	g := newTestGateway(t, net, Config{})
	resp := call(t, g.Handler(), "POST", "/functions/fn-a/invoke", map[string]string{}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want the max hint 3", ra)
	}
	// Sheds are backpressure, not failures: no breaker may have
	// tripped.
	for _, b := range g.backends {
		if st := b.breaker.State().String(); st != "closed" {
			t.Fatalf("breaker %s after sheds, want closed", st)
		}
	}
}

// The gateway deadline covers all attempts; a hung backend turns into
// a 504, not a hung client.
func TestDeadlinePropagation(t *testing.T) {
	t.Parallel()
	net, fakes := newFakes(2)
	for _, f := range fakes {
		f.script(invokeRoute, func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
		})
	}
	g := newTestGateway(t, net, Config{RequestTimeout: 100 * time.Millisecond})
	start := time.Now()
	rep := gwInvoke(t, g.Handler(), "fn-a")
	if rep.status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rep.status)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("deadline took %v to fire, want ~100ms", el)
	}
}

// A half-open probe that ends without a verdict — the gateway's deadline
// ran out on it, or the client hung up — must give its slot back: the
// breaker neither closes nor re-opens, and once the backend is healthy
// the next request after a cooldown probes it and closes the breaker.
// (A probe that returned without reporting used to hold the slot for
// good: every later invoke was a 503 from a breaker stuck half-open.)
// The gateway serves in process, so its verdict is in when ServeHTTP
// returns.
func TestProbeWithoutVerdictReleasesBreaker(t *testing.T) {
	for _, how := range []string{"deadline", "client-cancel"} {
		t.Run(how, func(t *testing.T) {
			net, fakes := newFakes(1)
			f := fakes[0]
			g := newTestGateway(t, net, Config{RequestTimeout: 100 * time.Millisecond})
			h := g.Handler()
			b := backendAt(g, f.addr)
			var cooldowns atomic.Int64 // breaker cooldowns elapsed on its clock
			start := time.Now()
			b.breaker.SetClock(func() time.Time {
				return start.Add(time.Duration(cooldowns.Load()) * breakerCooldown)
			})
			invoke := func(want int, wantBreaker string) {
				t.Helper()
				rep := gwInvoke(t, h, "fn-a")
				if st := b.breaker.State().String(); rep.status != want || st != wantBreaker {
					t.Fatalf("invoke = %d with the breaker %s, want %d, %s", rep.status, st, want, wantBreaker)
				}
			}

			f.script(invokeRoute, answer(http.StatusInternalServerError, ""))
			for i := 1; i < breakerThreshold; i++ {
				invoke(http.StatusServiceUnavailable, "closed")
			}
			invoke(http.StatusServiceUnavailable, "open")

			// The probe hangs until whoever is waiting on it gives up.
			cooldowns.Add(1)
			arrived := make(chan struct{}, 1)
			f.script(invokeRoute, func(w http.ResponseWriter, r *http.Request) {
				arrived <- struct{}{}
				<-r.Context().Done()
			})
			if how == "deadline" {
				invoke(http.StatusGatewayTimeout, "half-open")
			} else {
				ctx, cancel := context.WithCancel(context.Background())
				req := httptest.NewRequest("POST", "/functions/fn-a/invoke", strings.NewReader(`{}`)).WithContext(ctx)
				served := make(chan int, 1)
				go func() {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					served <- rec.Code
				}()
				<-arrived
				cancel()
				if code := <-served; code != http.StatusGatewayTimeout {
					t.Fatalf("cancelled invoke answered %d, want the gateway's own 504", code)
				}
				if st := b.breaker.State().String(); st != "half-open" {
					t.Fatalf("breaker %s after a cancelled probe, want half-open", st)
				}
			}

			f.script(invokeRoute, answer(http.StatusOK, `{"ok":true}`))
			cooldowns.Add(1)
			invoke(http.StatusOK, "closed")
		})
	}
}

// Registration fans out to the owner plus Replicas standbys, in
// preference order, and reports who accepted it.
func TestCreateFanout(t *testing.T) {
	net, _ := newFakes(3)
	g := newTestGateway(t, net, Config{Replicas: 1})
	var body map[string]interface{}
	if resp := call(t, g.Handler(), "PUT", "/functions/hello-world", nil, &body); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	reps, _ := body["replicated_to"].([]interface{})
	if len(reps) != 2 {
		t.Fatalf("replicated_to = %v, want owner + 1 standby", body["replicated_to"])
	}
	prefs := prefAddrs(g, "hello-world", 2)
	if reps[0] != prefs[0] || reps[1] != prefs[1] {
		t.Fatalf("replicated_to = %v, want preference order %v", reps, prefs)
	}
	if total := net.count("PUT /functions/hello-world"); total != 2 {
		t.Fatalf("%d backends saw the create, want 2", total)
	}
}

// GET /cluster reports topology and, with ?fn=, placement preference.
func TestClusterEndpoint(t *testing.T) {
	net, fakes := newFakes(2)
	fakes[1].ready.Store(false)
	g := newTestGateway(t, net, Config{})
	g.CheckNow()
	var body struct {
		Backends []BackendStatus `json:"backends"`
		Pref     []string        `json:"preference"`
	}
	call(t, g.Handler(), "GET", "/cluster?fn=hello-world", nil, &body)
	if len(body.Backends) != 2 {
		t.Fatalf("cluster = %+v", body)
	}
	readyCount := 0
	for _, b := range body.Backends {
		if b.Ready {
			readyCount++
		}
	}
	if readyCount != 1 {
		t.Fatalf("ready backends = %d, want 1", readyCount)
	}
	if len(body.Pref) != 2 || body.Pref[0] != prefAddrs(g, "hello-world", 1)[0] {
		t.Fatalf("preference = %v", body.Pref)
	}
}

// TestSweepShape: a health sweep asks each backend exactly one question,
// GET /status, and the /cluster roll-ups reach only ready backends, and
// only when asked.
func TestSweepShape(t *testing.T) {
	net, fakes := newFakes(3)
	fakes[2].ready.Store(false)
	g := newTestGateway(t, net, Config{})
	h := g.Handler()
	for _, f := range fakes {
		net.take(f.addr) // New's synchronous first sweep
	}

	for round := 1; round <= 3; round++ {
		g.CheckNow()
		g.ResyncNow()
		for i, f := range fakes {
			if hits := net.take(f.addr); !reflect.DeepEqual(hits, []string{"GET /status"}) {
				t.Fatalf("sweep %d: backend %d saw %v, want exactly one GET /status", round, i, hits)
			}
		}
	}

	for path, want := range map[string]string{
		"/cluster":          "GET /slo", // burning_functions
		"/cluster/slo":      "GET /slo",
		"/cluster/profiles": "GET /profiles?summary=1",
		"/cluster/events":   "GET /events?since_seq=0",
	} {
		if sc := call(t, h, "GET", path, nil, nil).StatusCode; sc != 200 {
			t.Fatalf("%s = %d", path, sc)
		}
		for i, f := range fakes {
			hits := net.take(f.addr)
			if i == 2 {
				if len(hits) != 0 {
					t.Fatalf("%s reached the unready backend: %v", path, hits)
				}
				continue
			}
			if !reflect.DeepEqual(hits, []string{want}) {
				t.Fatalf("%s: ready backend %d saw %v, want exactly one %s", path, i, hits, want)
			}
		}
	}

	// /cluster/events hands its filters to the daemons as the values the
	// client sent: a value holding '&' or '=' is not a second parameter,
	// and one holding a space still reaches every backend.
	for _, filter := range []url.Values{
		{"function": {"a&type=gc_sweep"}},
		{"function": {"f"}, "type": {"x y"}},
	} {
		if sc := call(t, h, "GET", "/cluster/events?"+filter.Encode(), nil, nil).StatusCode; sc != 200 {
			t.Fatalf("/cluster/events?%s = %d", filter.Encode(), sc)
		}
		want := url.Values{"since_seq": {"0"}}
		for k, v := range filter {
			want[k] = v
		}
		for i, f := range fakes[:2] {
			hits := net.take(f.addr)
			path, query, _ := strings.Cut(strings.Join(hits, ""), "?")
			if len(hits) != 1 || path != "GET /events" {
				t.Fatalf("filter %v: ready backend %d saw %v, want one GET /events", filter, i, hits)
			}
			if got, err := url.ParseQuery(query); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("filter %v: backend %d got query %v (%v), want %v", filter, i, got, err, want)
			}
		}
	}
}

// TestListAllSurvivesWedgedBackend: GET /functions asks the ready
// backends concurrently, each under the probe bound, so one that never
// answers costs the list that bound and leaves out itself alone — not
// the whole request deadline and every backend after it in address
// order.
func TestListAllSurvivesWedgedBackend(t *testing.T) {
	t.Parallel()
	net, fakes := newFakes(3)
	net.set(fakes[0].addr, linkWedged)
	g := newTestGateway(t, net, Config{RequestTimeout: 5 * time.Second})

	start := time.Now()
	var list []struct {
		Name     string   `json:"name"`
		Backends []string `json:"backends"`
	}
	if sc := call(t, g.Handler(), "GET", "/functions", nil, &list).StatusCode; sc != 200 {
		t.Fatalf("GET /functions = %d", sc)
	}
	if el := time.Since(start); el > probeTimeout+time.Second {
		t.Errorf("GET /functions took %v with one backend wedged; the probe bound is %v", el, probeTimeout)
	}
	var got []string
	for _, e := range list {
		got = append(got, e.Name+"@"+strings.Join(e.Backends, ","))
	}
	want := []string{"on-" + fakes[1].addr + "@" + fakes[1].addr, "on-" + fakes[2].addr + "@" + fakes[2].addr}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GET /functions listed %v, want %v", got, want)
	}
}

// TestCloseCutsRepairShort: the sweep's repairs run under the gateway's
// own context, so Close returns at once even while a repair is parked
// on a backend that never answers.
func TestCloseCutsRepairShort(t *testing.T) {
	net, fakes := newFakes(2)
	for _, f := range fakes {
		scriptManifest(f, "d-empty")
	}
	g := newTestGateway(t, net, Config{HealthInterval: 10 * time.Millisecond})
	prefs := prefFakes(t, g, "hello-world", 2, fakes)
	owner, standby := prefs[0], prefs[1]
	net.set(standby.addr, linkWedged)
	scriptManifest(owner, "d-owner", liveEntry("hello-world", 1, false, ""))
	select {
	case <-net.parked: // the register replay reached the standby, which holds it
	case <-time.After(10 * time.Second):
		t.Fatal("no repair reached the wedged standby")
	}

	start := time.Now()
	g.Close()
	if el := time.Since(start); el >= 100*time.Millisecond {
		t.Fatalf("Close took %v with a repair parked", el)
	}
}

// TestFaultWatchIsPerDaemon: a fault watch streams from the one daemon
// that runs the function, so the gateway refuses it at once, naming the
// route that finds the owner, and sends nothing to any backend; the
// fault dump itself is forwarded.
func TestFaultWatchIsPerDaemon(t *testing.T) {
	net, fakes := newFakes(2)
	g := newTestGateway(t, net, Config{})
	for _, f := range fakes {
		net.take(f.addr)
	}
	var body map[string]string
	resp := call(t, g.Handler(), "GET", "/functions/fn-a/faults?watch=1", nil, &body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "GET /cluster?fn=fn-a") {
		t.Fatalf("watch through the gateway = %d %v, want 400 naming GET /cluster?fn=fn-a", resp.StatusCode, body)
	}
	for _, f := range fakes {
		if hits := net.take(f.addr); len(hits) != 0 {
			t.Fatalf("a refused watch reached %s: %v", f.addr, hits)
		}
	}
	if v := metricValue(t, g, "faasnap_gw_deadline_exceeded_total"); v > 0 {
		t.Fatalf("a refused watch counted %v deadline misses", v)
	}
	call(t, g.Handler(), "GET", "/functions/fn-a/faults", nil, nil)
	if n := net.count("GET /functions/fn-a/faults"); n == 0 {
		t.Fatal("the fault dump was not forwarded")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends succeeded")
	}
}
