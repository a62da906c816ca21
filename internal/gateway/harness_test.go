package gateway

// The harness every gateway test shares, one piece per job: memNet
// carries the gateway's requests to in-process fakes; fakeBackend is the
// scriptable fake; newTestGateway builds every gateway; startDaemon
// starts every real daemon; call sends every test request; waitFor is
// the one poll.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasnap/internal/daemon"
)

// linkState is what memNet does with a request to an address.
type linkState int

const (
	linkUp     linkState = iota
	linkDown             // the dial fails, as for a killed host
	linkWedged           // GET /status answers, everything else hangs
)

// memNet is the network of the in-process backends: installed as
// g.client.Transport, it serves each request on the caller's goroutine
// with the handler mapped to its host:port, and logs it under that
// address. No socket is opened. A wedged address holds every request
// but GET /status until the request's context ends, sending the address
// on parked as each one arrives. A handler that panics with
// http.ErrAbortHandler drops the connection mid-request.
type memNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	links    map[string]linkState
	hits     map[string][]string // per address, "METHOD /path?query" of each request
	// parked is buffered so that a wedged request never waits for a test
	// to listen; arrivals past its room are not signalled.
	parked chan string
}

// serving is a memNet on which h serves every one of addrs.
func serving(h http.Handler, addrs ...string) *memNet {
	n := &memNet{handlers: map[string]http.Handler{}, links: map[string]linkState{},
		hits: map[string][]string{}, parked: make(chan string, 8)}
	for _, a := range addrs {
		n.handlers[a] = h
	}
	return n
}

func (n *memNet) set(addr string, s linkState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[addr] = s
}

// addrs is every address n serves, sorted.
func (n *memNet) addrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for a := range n.handlers {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// take returns the requests addr got since the last take.
func (n *memNet) take(addr string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.hits[addr]
	delete(n.hits, addr)
	return out
}

// count is how many requests equal to line ("METHOD /path?query")
// reached addrs, every address when none is given.
func (n *memNet) count(line string, addrs ...string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for a, hits := range n.hits {
		if len(addrs) == 0 || slices.Contains(addrs, a) {
			for _, h := range hits {
				if h == line {
					c++
				}
			}
		}
	}
	return c
}

func (n *memNet) RoundTrip(req *http.Request) (*http.Response, error) {
	addr := req.URL.Host
	n.mu.Lock()
	h, link := n.handlers[addr], n.links[addr]
	if h != nil && link != linkDown {
		n.hits[addr] = append(n.hits[addr], req.Method+" "+req.URL.RequestURI())
	}
	n.mu.Unlock()
	if h == nil || link == linkDown {
		return nil, fmt.Errorf("dial tcp %s: connection refused", addr)
	}
	if link == linkWedged && req.URL.Path != "/status" {
		select {
		case n.parked <- addr:
		default:
		}
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	r := req.Clone(req.Context())
	r.Host, r.RequestURI, r.RemoteAddr = addr, req.URL.RequestURI(), "memnet:1"
	if r.Body == nil {
		r.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	if aborted := serveAbortable(h, rec, r); aborted {
		return nil, errors.New("connection reset by peer")
	}
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return rec.Result(), nil
}

// serveAbortable serves r, reporting whether the handler dropped the
// connection.
func serveAbortable(h http.Handler, w http.ResponseWriter, r *http.Request) (aborted bool) {
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			aborted = true
		}
	}()
	h.ServeHTTP(w, r)
	return false
}

// invokeRoute is the route a fake's invoke handler is scripted under.
const invokeRoute = "POST /functions/{name}/invoke"

// fakeBackend is a scriptable stand-in for one faasnapd, served by a
// memNet. Each route answers as a healthy daemon would until a test
// scripts it; GET /slo, /profiles and /traces/{id} answer 404 until
// scripted.
type fakeBackend struct {
	addr  string
	ready atomic.Bool
	// manifestJSON scripts the durable-state members of GET /status (the
	// digest, recovering and functions members, without braces) for the
	// anti-entropy tests; unset means a stateless daemon.
	manifestJSON atomic.Value // string
	scripted     sync.Map     // route pattern -> http.HandlerFunc
}

// script puts h in route's place; nil restores the default.
func (f *fakeBackend) script(route string, h http.HandlerFunc) {
	if h == nil {
		f.scripted.Delete(route)
		return
	}
	f.scripted.Store(route, h)
}

// answer is a handler that replies code with body.
func answer(code int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(code)
		io.WriteString(w, body)
	}
}

// newFakes is n fakes on one memNet.
func newFakes(n int) (*memNet, []*fakeBackend) {
	net := serving(nil)
	fakes := make([]*fakeBackend, n)
	for i := range fakes {
		f := &fakeBackend{addr: fmt.Sprintf("fake%d:80", i)}
		f.ready.Store(true)
		mux := http.NewServeMux()
		route := func(pattern string, def http.HandlerFunc) {
			mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if h, ok := f.scripted.Load(pattern); ok {
					h.(http.HandlerFunc)(w, r)
					return
				}
				def(w, r)
			})
		}
		named := func(format string) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) { fmt.Fprintf(w, format, r.PathValue("name")) }
		}
		route("GET /status", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"ready":%t`, f.ready.Load())
			if m, ok := f.manifestJSON.Load().(string); ok && m != "" {
				fmt.Fprint(w, ",", m)
			}
			fmt.Fprint(w, "}")
		})
		route(invokeRoute, named(`{"function":%q,"mode":"faasnap","total_ms":1.5}`))
		route("PUT /functions/{name}", named(`{"name":%q,"vm_state":"Running"}`))
		route("POST /functions/{name}/record", named(`{"function":%q}`))
		route("POST /functions/{name}/sync", named(`{"function":%q,"chunks_fetched":3,"bytes_fetched":4096}`))
		route("DELETE /functions/{name}", answer(http.StatusNoContent, ""))
		route("GET /functions", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintf(w, `[{"name":"on-%s"}]`, r.Host) })
		for _, p := range []string{"GET /slo", "GET /profiles", "GET /traces/{id}"} {
			route(p, answer(http.StatusNotFound, `{"error":"not scripted"}`))
		}
		net.handlers[f.addr] = mux
		fakes[i] = f
	}
	return net, fakes
}

// newTestGateway builds and starts a gateway over cfg.Backends, or over
// every address net serves when cfg names none, sending through net in
// process (nil: over real sockets). Its first sweep runs before it
// returns, and unless cfg sets HealthInterval the loop does not tick
// for an hour, so tests drive sweeps with CheckNow and ResyncNow.
func newTestGateway(t testing.TB, net *memNet, cfg Config) *Gateway {
	t.Helper()
	if net != nil && len(cfg.Backends) == 0 {
		cfg.Backends = net.addrs()
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	g, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if net != nil {
		g.client.Transport = net
	}
	g.start()
	t.Cleanup(g.Close)
	return g
}

// call sends one request, to h in process or, with h nil, over the
// network to the absolute url, with body marshalled as JSON (nil for
// none), and decodes the reply into out: a *string takes it as text,
// anything else as JSON. It is safe off the test goroutine: a request
// that fails is reported with t.Errorf and answers status 0.
func call(t testing.TB, h http.Handler, method, url string, body, out any) *http.Response {
	t.Helper()
	failed := func(err error) *http.Response {
		t.Errorf("%s %s: %v", method, url, err)
		return &http.Response{Header: http.Header{}, Body: http.NoBody}
	}
	var rd io.Reader = http.NoBody
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return failed(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return failed(err)
	}
	var resp *http.Response
	if h != nil {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		resp = rec.Result()
	} else if resp, err = http.DefaultClient.Do(req); err != nil {
		return failed(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return failed(err)
	}
	if s, ok := out.(*string); ok {
		*s = string(raw)
	} else if out != nil {
		if err := json.Unmarshal(raw, out); err != nil && resp.StatusCode/100 == 2 {
			t.Errorf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

type invokeReply struct {
	status    int
	placement string
	backend   string
	body      map[string]interface{}
}

// gwInvoke sends one invoke of fn to h.
func gwInvoke(t *testing.T, h http.Handler, fn string) invokeReply {
	t.Helper()
	var body map[string]interface{}
	resp := call(t, h, "POST", "/functions/"+fn+"/invoke", map[string]string{"mode": "faasnap"}, &body)
	return invokeReply{resp.StatusCode, resp.Header.Get("X-Faasnap-Placement"), resp.Header.Get("X-Faasnap-Backend"), body}
}

// waitFor polls cond until it holds. The deadline is a hang guard, not
// a budget: what is awaited takes a bounded number of sweeps or
// fetches, so on any box it either arrives or never will.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("hang guard: %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// daemonNode is a real daemon on a real socket.
type daemonNode struct {
	d    *daemon.Daemon
	h    http.Handler // d's
	srv  *httptest.Server
	addr string
	dir  string
	// front, when set, serves every request in d's place: a gate in
	// front of h.
	front  atomic.Value // http.HandlerFunc
	killed atomic.Bool
}

// startDaemon starts a daemon over cfg, in a fresh state directory
// unless cfg names one and logging nowhere, on any free port, or at
// addr when given: the rejoin case, a fresh daemon on a killed one's
// address. The test's cleanup kills it.
func startDaemon(t *testing.T, cfg daemon.Config, addr string) *daemonNode {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	cfg.Logger = log.New(io.Discard, "", 0)
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := &daemonNode{d: d, h: d.Handler(), dir: cfg.StateDir}
	n.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f, ok := n.front.Load().(http.HandlerFunc); ok {
			f(w, r)
			return
		}
		n.h.ServeHTTP(w, r)
	}))
	if addr != "" {
		n.srv.Listener.Close()
		waitFor(t, "rebind "+addr, func() bool {
			n.srv.Listener, err = net.Listen("tcp", addr)
			return err == nil
		})
	}
	n.srv.Start()
	n.addr = n.srv.Listener.Addr().String()
	t.Cleanup(n.kill)
	return n
}

// kill force-closes the node the way a crashed host looks to the
// gateway: in-flight connections die mid-request, new dials are
// refused.
func (n *daemonNode) kill() {
	if n.killed.Swap(true) {
		return
	}
	n.srv.CloseClientConnections()
	n.srv.Close()
	n.d.Close()
}

// url is the node's base URL.
func (n *daemonNode) url() string { return "http://" + n.addr }

// sweep runs one health sweep and one anti-entropy pass, returning the
// repairs that succeeded.
func sweep(g *Gateway) int {
	g.CheckNow()
	return g.ResyncNow()
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

// prefFakes resolves fn's first n backends in preference order to
// fakes.
func prefFakes(t *testing.T, g *Gateway, fn string, n int, fakes []*fakeBackend) []*fakeBackend {
	t.Helper()
	var out []*fakeBackend
	for _, a := range prefAddrs(g, fn, n) {
		for _, f := range fakes {
			if f.addr == a {
				out = append(out, f)
			}
		}
	}
	if len(out) != n {
		t.Fatalf("resolved %d of %d preference fakes", len(out), n)
	}
	return out
}
