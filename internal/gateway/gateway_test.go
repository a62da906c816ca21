package gateway

// Unit tests against scriptable fake backends: placement decisions
// (sticky, spillover, retry), breaker behavior, 429 shed handling, and
// deadline propagation — no real daemons involved.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasnap/internal/resilience"
)

// fakeBackend is a scriptable stand-in for one faasnapd.
type fakeBackend struct {
	srv     *httptest.Server
	addr    string
	invokes atomic.Int64
	// invoke is the handler for POST /functions/{name}/invoke; swap it
	// atomically to change behavior mid-test.
	invoke atomic.Value // func(w http.ResponseWriter, r *http.Request)
	ready  atomic.Bool
	// creates records PUT /functions bodies seen (fan-out tests).
	creates atomic.Int64
	// sloJSON / profJSON script GET /slo and GET /profiles for the
	// observability roll-up tests; unset means 404.
	sloJSON  atomic.Value // string
	profJSON atomic.Value // string
	// traces is the handler for GET /traces/{id}; unset means 404.
	traces atomic.Value // func(w http.ResponseWriter, r *http.Request)
	// manifestJSON scripts the durable-state section of GET /status
	// (the digest/recovering/functions members, without braces) for the
	// anti-entropy tests; unset means a stateless daemon.
	manifestJSON atomic.Value // string
	// down makes the backend drop every connection, as a killed host
	// does. hits counts every request that reached it, by "METHOD path",
	// and queries keeps the raw query of the latest one per key.
	down    atomic.Bool
	hitsMu  sync.Mutex
	hits    map[string]int
	queries map[string]string
	// records / syncs / deletes count the mutations that reached this
	// backend; syncFail makes POST .../sync answer 502.
	records  atomic.Int64
	syncs    atomic.Int64
	syncFail atomic.Bool
	deletes  atomic.Int64
	// wedged makes the backend answer GET /status and hold every other
	// request until its caller gives up, signalling parked as each one
	// arrives.
	wedged atomic.Bool
	parked chan struct{}
}

// serveScripted writes a scripted JSON body, or 404 when unset.
func serveScripted(w http.ResponseWriter, v *atomic.Value) {
	s, ok := v.Load().(string)
	if !ok || s == "" {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, s)
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	f.ready.Store(true)
	f.invoke.Store(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"function":%q,"mode":"faasnap","total_ms":1.5}`, r.PathValue("name"))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ready":%t`, f.ready.Load())
		if m, ok := f.manifestJSON.Load().(string); ok && m != "" {
			fmt.Fprint(w, ",", m)
		}
		fmt.Fprint(w, "}")
	})
	mux.HandleFunc("POST /functions/{name}/invoke", func(w http.ResponseWriter, r *http.Request) {
		f.invokes.Add(1)
		f.invoke.Load().(func(http.ResponseWriter, *http.Request))(w, r)
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		serveScripted(w, &f.sloJSON)
	})
	mux.HandleFunc("GET /profiles", func(w http.ResponseWriter, r *http.Request) {
		serveScripted(w, &f.profJSON)
	})
	mux.HandleFunc("GET /traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		if h, ok := f.traces.Load().(func(http.ResponseWriter, *http.Request)); ok {
			h(w, r)
			return
		}
		w.WriteHeader(http.StatusNotFound)
	})
	mux.HandleFunc("PUT /functions/{name}", func(w http.ResponseWriter, r *http.Request) {
		f.creates.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"name":%q,"vm_state":"Running"}`, r.PathValue("name"))
	})
	mux.HandleFunc("POST /functions/{name}/record", func(w http.ResponseWriter, r *http.Request) {
		f.records.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"function":%q}`, r.PathValue("name"))
	})
	mux.HandleFunc("POST /functions/{name}/sync", func(w http.ResponseWriter, r *http.Request) {
		f.syncs.Add(1)
		if f.syncFail.Load() {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"function":%q,"chunks_fetched":3,"bytes_fetched":4096}`, r.PathValue("name"))
	})
	mux.HandleFunc("DELETE /functions/{name}", func(w http.ResponseWriter, r *http.Request) {
		f.deletes.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /functions", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `[{"name":"on-%s"}]`, r.Host)
	})
	f.hits = make(map[string]int)
	f.queries = make(map[string]string)
	f.parked = make(chan struct{}, 8)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			panic(http.ErrAbortHandler)
		}
		f.hitsMu.Lock()
		f.hits[r.Method+" "+r.URL.Path]++
		f.queries[r.Method+" "+r.URL.Path] = r.URL.RawQuery
		f.hitsMu.Unlock()
		if f.wedged.Load() && r.URL.Path != "/status" {
			select {
			case f.parked <- struct{}{}:
			default:
			}
			<-r.Context().Done()
			return
		}
		mux.ServeHTTP(w, r)
	}))
	f.addr = strings.TrimPrefix(f.srv.URL, "http://")
	t.Cleanup(f.srv.Close)
	return f
}

// takeHits returns the requests seen since the last call and resets
// the count.
func (f *fakeBackend) takeHits() map[string]int {
	f.hitsMu.Lock()
	defer f.hitsMu.Unlock()
	out := f.hits
	f.hits = make(map[string]int)
	return out
}

// lastQuery returns the raw query of the latest request to key
// ("METHOD path").
func (f *fakeBackend) lastQuery(key string) string {
	f.hitsMu.Lock()
	defer f.hitsMu.Unlock()
	return f.queries[key]
}

// newTestGateway builds a gateway over the fakes with a health loop
// that effectively never ticks; tests drive sweeps via CheckNow.
func newTestGateway(t *testing.T, cfg Config, fakes ...*fakeBackend) *Gateway {
	t.Helper()
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.addr)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour
	}
	cfg.Logger = log.New(io.Discard, "", 0)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// prefAddrs is fn's preference order on g, owner first, as addresses.
func prefAddrs(g *Gateway, fn string, n int) []string {
	var out []string
	for _, b := range preference(g.backends, fn, n) {
		out = append(out, b.Addr)
	}
	return out
}

// backendAt returns g's backend at addr, nil if there is none.
func backendAt(g *Gateway, addr string) *Backend {
	for _, b := range g.backends {
		if b.Addr == addr {
			return b
		}
	}
	return nil
}

// ownerIndex returns which fake owns fn on g.
func ownerIndex(t *testing.T, g *Gateway, fn string, fakes []*fakeBackend) int {
	t.Helper()
	owner := prefAddrs(g, fn, 1)[0]
	for i, f := range fakes {
		if f.addr == owner {
			return i
		}
	}
	t.Fatalf("owner %q not among fakes", owner)
	return -1
}

type invokeReply struct {
	status    int
	placement string
	backend   string
	body      map[string]interface{}
}

func gwInvoke(t *testing.T, g *Gateway, fn string) invokeReply {
	t.Helper()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	return gwInvokeURL(t, srv.URL, fn)
}

func gwInvokeURL(t *testing.T, base, fn string) invokeReply {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/functions/"+fn+"/invoke", strings.NewReader(`{"mode":"faasnap"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := invokeReply{status: resp.StatusCode, placement: resp.Header.Get("X-Faasnap-Placement"), backend: resp.Header.Get("X-Faasnap-Backend")}
	_ = json.Unmarshal(raw, &out.body)
	return out
}

func TestStickyRoutingHitsOwner(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{}, fakes...)
	oi := ownerIndex(t, g, "hello-world", fakes)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	for i := 0; i < 10; i++ {
		rep := gwInvokeURL(t, srv.URL, "hello-world")
		if rep.status != 200 {
			t.Fatalf("invoke %d = %d", i, rep.status)
		}
		if rep.placement != PlacementSticky {
			t.Fatalf("invoke %d placement = %q, want sticky", i, rep.placement)
		}
		if rep.backend != fakes[oi].addr {
			t.Fatalf("invoke %d backend = %q, want owner %q", i, rep.backend, fakes[oi].addr)
		}
		if rep.body["placement"] != "sticky" || rep.body["backend"] != fakes[oi].addr {
			t.Fatalf("response body missing placement metadata: %v", rep.body)
		}
	}
	if n := fakes[oi].invokes.Load(); n != 10 {
		t.Fatalf("owner served %d invokes, want 10", n)
	}
}

// A drained (unready) owner spills over to the least-loaded remaining
// backend without a failed attempt.
func TestSpilloverWhenOwnerUnready(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{}, fakes...)
	oi := ownerIndex(t, g, "fn-a", fakes)
	fakes[oi].ready.Store(false)
	g.CheckNow()

	// Load the second-preference backend so least-loaded wins over
	// preference order.
	prefs := preference(g.backends, "fn-a", 0)
	prefs[1].inflight.Store(10)
	rep := gwInvoke(t, g, "fn-a")
	if rep.status != 200 || rep.placement != PlacementSpillover {
		t.Fatalf("got %d/%q, want 200/spillover", rep.status, rep.placement)
	}
	if rep.backend != prefs[2].Addr {
		t.Fatalf("spillover chose %q, want least-loaded %q", rep.backend, prefs[2].Addr)
	}
	if fakes[oi].invokes.Load() != 0 {
		t.Fatal("unready owner still received traffic")
	}
}

// A saturated owner (at MaxPerBackend) spills over instead of queueing.
func TestSpilloverWhenOwnerSaturated(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{MaxPerBackend: 4}, fakes...)
	oi := ownerIndex(t, g, "fn-a", fakes)
	ob := backendAt(g, fakes[oi].addr)
	ob.inflight.Store(4)
	rep := gwInvoke(t, g, "fn-a")
	if rep.status != 200 || rep.placement != PlacementSpillover {
		t.Fatalf("got %d/%q, want 200/spillover", rep.status, rep.placement)
	}
	if rep.backend == fakes[oi].addr {
		t.Fatal("saturated owner still chosen")
	}
}

// An open breaker skips the owner without spending an attempt on it.
func TestSpilloverWhenBreakerOpen(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{}, fakes...)
	oi := ownerIndex(t, g, "fn-a", fakes)
	ob := backendAt(g, fakes[oi].addr)
	ob.breaker.SetClock(func() time.Time { return time.Unix(0, 0) }) // the cooldown never runs out
	for i := 0; i < 3; i++ {
		ob.breaker.Report(resilience.Unhealthy)
	}
	rep := gwInvoke(t, g, "fn-a")
	if rep.status != 200 || rep.placement != PlacementSpillover {
		t.Fatalf("got %d/%q, want 200/spillover", rep.status, rep.placement)
	}
	if fakes[oi].invokes.Load() != 0 {
		t.Fatal("breaker-open owner still received traffic")
	}
}

// A failing owner costs one attempt, trips its breaker failure count,
// and the request is answered by another backend as a retry.
func TestRetryOnBackendError(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{}, fakes...)
	oi := ownerIndex(t, g, "fn-a", fakes)
	fakes[oi].invoke.Store(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":"boom"}`)
	})
	rep := gwInvoke(t, g, "fn-a")
	if rep.status != 200 || rep.placement != PlacementRetry {
		t.Fatalf("got %d/%q, want 200/retry", rep.status, rep.placement)
	}
	if rep.backend == fakes[oi].addr {
		t.Fatal("failing owner answered the request")
	}

	// A 400 is the client's error, not the backend's (a bad input name,
	// say): it passes through after one attempt and leaves the breaker
	// closed, where a dropped connection would count against it.
	oi = ownerIndex(t, g, "fn-b", fakes)
	fakes[oi].invoke.Store(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"workload: bad input \"ratio:NaN\""}`)
	})
	var before int64
	for _, f := range fakes {
		before += f.invokes.Load()
	}
	rep = gwInvoke(t, g, "fn-b")
	if rep.status != 400 || rep.backend != fakes[oi].addr || rep.body["error"] == nil {
		t.Fatalf("got %d from %s body %v, want the owner's 400 passed through", rep.status, rep.backend, rep.body)
	}
	var after int64
	for _, f := range fakes {
		after += f.invokes.Load()
	}
	if after-before != 1 {
		t.Fatalf("a 400 cost %d attempts, want 1", after-before)
	}
	ob := backendAt(g, fakes[oi].addr)
	if st := ob.breaker.State().String(); st != "closed" {
		t.Fatalf("owner breaker %s after a 400, want closed", st)
	}
}

// A 404 is a locality miss, not a failure: the request tries the next
// replica and the miss does not count against the breaker.
func TestRetryOnSnapshotMiss(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{}, fakes...)
	oi := ownerIndex(t, g, "fn-a", fakes)
	fakes[oi].invoke.Store(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"function not registered"}`)
	})
	rep := gwInvoke(t, g, "fn-a")
	if rep.status != 200 || rep.placement != PlacementRetry {
		t.Fatalf("got %d/%q, want 200/retry", rep.status, rep.placement)
	}
	ob := backendAt(g, fakes[oi].addr)
	if st := ob.breaker.State().String(); st != "closed" {
		t.Fatalf("owner breaker %s after a 404 miss, want closed", st)
	}
}

// When every backend 404s, the client sees the 404, not a gateway
// error.
func TestMissEverywherePassesThrough404(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	for _, f := range fakes {
		f.invoke.Store(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"function not registered"}`)
		})
	}
	g := newTestGateway(t, Config{}, fakes...)
	rep := gwInvoke(t, g, "nope")
	if rep.status != 404 {
		t.Fatalf("status = %d, want 404", rep.status)
	}
}

// All backends shedding means the gateway sheds, propagating the
// largest Retry-After hint it saw.
func TestAllBackendsShed(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	for i, f := range fakes {
		ra := fmt.Sprintf("%d", i+1)
		f.invoke.Store(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", ra)
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"saturated"}`)
		})
	}
	g := newTestGateway(t, Config{}, fakes...)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/functions/fn-a/invoke", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want the max hint 3", ra)
	}
	// Sheds are backpressure, not failures: no breaker may have
	// tripped.
	for _, f := range fakes {
		b := backendAt(g, f.addr)
		if st := b.breaker.State().String(); st != "closed" {
			t.Fatalf("breaker %s after sheds, want closed", st)
		}
	}
}

// The gateway deadline covers all attempts; a hung backend turns into
// a 504, not a hung client.
func TestDeadlinePropagation(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	for _, f := range fakes {
		f.invoke.Store(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
		})
	}
	g := newTestGateway(t, Config{RequestTimeout: 100 * time.Millisecond}, fakes...)
	start := time.Now()
	rep := gwInvoke(t, g, "fn-a")
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
func TestProbeWithoutVerdictReleasesBreaker(t *testing.T) {
	for _, how := range []string{"deadline", "client-cancel"} {
		t.Run(how, func(t *testing.T) {
			f := newFakeBackend(t)
			g := newTestGateway(t, Config{RequestTimeout: 100 * time.Millisecond}, f)
			// handled signals each request the gateway has finished with —
			// its verdict is in by then — which a client that hung up
			// cannot learn from a reply.
			handled, h := make(chan struct{}, 8), g.Handler()
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				handled <- struct{}{}
			}))
			defer srv.Close()
			b := backendAt(g, f.addr)
			var cooldowns atomic.Int64 // breaker cooldowns elapsed on its clock
			start := time.Now()
			b.breaker.SetClock(func() time.Time {
				return start.Add(time.Duration(cooldowns.Load()) * breakerCooldown)
			})
			invoke := func(want int, wantBreaker string) {
				t.Helper()
				rep := gwInvokeURL(t, srv.URL, "fn-a")
				<-handled
				if st := b.breaker.State().String(); rep.status != want || st != wantBreaker {
					t.Fatalf("invoke = %d with the breaker %s, want %d, %s", rep.status, st, want, wantBreaker)
				}
			}

			f.invoke.Store(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusInternalServerError) })
			for i := 1; i < breakerThreshold; i++ {
				invoke(http.StatusServiceUnavailable, "closed")
			}
			invoke(http.StatusServiceUnavailable, "open")

			// The probe hangs until whoever is waiting on it gives up.
			cooldowns.Add(1)
			arrived, release := make(chan struct{}, 1), make(chan struct{})
			defer close(release) // a handler still hung would block the fake's Close
			f.invoke.Store(func(w http.ResponseWriter, r *http.Request) {
				arrived <- struct{}{}
				select {
				case <-r.Context().Done():
				case <-release:
				}
			})
			if how == "deadline" {
				invoke(http.StatusGatewayTimeout, "half-open")
			} else {
				ctx, cancel := context.WithCancel(context.Background())
				req, _ := http.NewRequestWithContext(ctx, "POST", srv.URL+"/functions/fn-a/invoke", strings.NewReader(`{}`))
				errc := make(chan error, 1)
				go func() {
					_, err := http.DefaultClient.Do(req)
					errc <- err
				}()
				<-arrived
				cancel()
				if err := <-errc; err == nil {
					t.Fatal("cancelled invoke got a reply")
				}
				<-handled
				if st := b.breaker.State().String(); st != "half-open" {
					t.Fatalf("breaker %s after a cancelled probe, want half-open", st)
				}
			}

			f.invoke.Store(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"ok":true}`) })
			cooldowns.Add(1)
			invoke(http.StatusOK, "closed")
		})
	}
}

// Registration fans out to the owner plus Replicas standbys, in
// preference order, and reports who accepted it.
func TestCreateFanout(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{Replicas: 1}, fakes...)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	req, _ := http.NewRequest("PUT", srv.URL+"/functions/hello-world", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
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
	total := fakes[0].creates.Load() + fakes[1].creates.Load() + fakes[2].creates.Load()
	if total != 2 {
		t.Fatalf("%d backends saw the create, want 2", total)
	}
}

// GET /cluster reports topology and, with ?fn=, placement preference.
func TestClusterEndpoint(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	fakes[1].ready.Store(false)
	g := newTestGateway(t, Config{}, fakes...)
	g.CheckNow()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/cluster?fn=hello-world")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Backends []BackendStatus `json:"backends"`
		Pref     []string        `json:"preference"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
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
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	fakes[2].ready.Store(false)
	g := newTestGateway(t, Config{}, fakes...)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	for _, f := range fakes {
		f.takeHits() // New's synchronous first sweep
	}

	for round := 1; round <= 3; round++ {
		g.CheckNow()
		g.ResyncNow()
		for i, f := range fakes {
			if hits := f.takeHits(); len(hits) != 1 || hits["GET /status"] != 1 {
				t.Fatalf("sweep %d: backend %d saw %v, want exactly one GET /status", round, i, hits)
			}
		}
	}

	for path, want := range map[string]string{
		"/cluster":          "GET /slo", // burning_functions
		"/cluster/slo":      "GET /slo",
		"/cluster/profiles": "GET /profiles",
		"/cluster/events":   "GET /events",
	} {
		if sc := e2eGet(t, srv.URL+path, nil); sc != 200 {
			t.Fatalf("%s = %d", path, sc)
		}
		for i, f := range fakes {
			hits := f.takeHits()
			if i == 2 {
				if len(hits) != 0 {
					t.Fatalf("%s reached the unready backend: %v", path, hits)
				}
				continue
			}
			if len(hits) != 1 || hits[want] != 1 {
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
		if sc := e2eGet(t, srv.URL+"/cluster/events?"+filter.Encode(), nil); sc != 200 {
			t.Fatalf("/cluster/events?%s = %d", filter.Encode(), sc)
		}
		want := url.Values{"since_seq": {"0"}}
		for k, v := range filter {
			want[k] = v
		}
		for i, f := range fakes[:2] {
			if hits := f.takeHits(); hits["GET /events"] != 1 {
				t.Fatalf("filter %v: ready backend %d saw %v, want one GET /events", filter, i, hits)
			}
			if got, err := url.ParseQuery(f.lastQuery("GET /events")); err != nil || !reflect.DeepEqual(got, want) {
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
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	sort.Slice(fakes, func(i, j int) bool { return fakes[i].addr < fakes[j].addr })
	fakes[0].wedged.Store(true)
	g := newTestGateway(t, Config{RequestTimeout: 5 * time.Second}, fakes...)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	start := time.Now()
	var list []struct {
		Name     string   `json:"name"`
		Backends []string `json:"backends"`
	}
	if sc := e2eGet(t, srv.URL+"/functions", &list); sc != 200 {
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
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	cfg := Config{HealthInterval: 10 * time.Millisecond, Logger: log.New(io.Discard, "", 0)}
	for _, f := range fakes {
		scriptManifest(f, "d-empty")
		cfg.Backends = append(cfg.Backends, f.addr)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefs := prefFakes(t, g, "hello-world", 2, fakes)
	owner, standby := prefs[0], prefs[1]
	standby.wedged.Store(true)
	scriptManifest(owner, "d-owner", liveEntry("hello-world", 1, false, ""))
	select {
	case <-standby.parked: // the register replay reached the standby, which holds it
	case <-time.After(10 * time.Second):
		g.Close()
		t.Fatal("no repair reached the wedged standby")
	}

	start := time.Now()
	g.Close()
	if el := time.Since(start); el >= 100*time.Millisecond {
		t.Fatalf("Close took %v with a repair parked", el)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends succeeded")
	}
}
