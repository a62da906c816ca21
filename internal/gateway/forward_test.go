package gateway

// The request path against scripted in-process backends (a memNet
// behind the gateway's one client — no sockets, no timers): the one
// classification of an attempt, column by column, and a seeded model of
// the forward path's bookkeeping — breaker probe slots, routability —
// under a fake clock.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"faasnap/internal/resilience"
)

// action is what a scripted backend does with the next request it gets.
type action int

const (
	actOK action = iota
	act429
	act404
	act400
	act504
	act500
	act502
	actTransport // the connection dies
	actHang      // no answer: the gateway's deadline runs out mid-attempt
	actCancel    // no answer: the client goes away mid-attempt
)

var actionNames = map[action]string{
	actOK: "200", act429: "429", act404: "404", act400: "400", act504: "504", act500: "500", act502: "502",
	actTransport: "transport-error", actHang: "hang-to-deadline", actCancel: "client-cancel",
}

func (a action) String() string { return actionNames[a] }

// healthy is whether the action is a reply that says the backend is
// fine; ok false for an action that is no reply at all.
func (a action) healthy() (healthy, ok bool) {
	switch a {
	case actHang, actCancel:
		return false, false
	case act500, act502, actTransport:
		return false, true
	}
	return true, true
}

// firedCtx is a request context the script ends by hand, mid-attempt:
// with context.DeadlineExceeded it is the gateway's deadline running
// out, with context.Canceled the client hanging up.
type firedCtx struct {
	context.Context
	done chan struct{}
	err  error
}

func newFiredCtx() *firedCtx {
	return &firedCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *firedCtx) Done() <-chan struct{} { return c.done }

func (c *firedCtx) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

func (c *firedCtx) fire(err error) {
	c.err = err
	close(c.done)
}

// scriptedReplies is what each replying action answers.
var scriptedReplies = map[action]int{actOK: 200, act429: 429, act404: 404, act400: 400, act504: 504, act500: 500, act502: 502}

// scriptedNet is the backends: every one always ready, each answering
// the next request it gets with script[its address]. A memNet carries
// the requests, one at a time, on the caller's goroutine.
type scriptedNet struct {
	script map[string]action
	// ctx is the context of the client request being served, for the
	// actions that end it.
	ctx *firedCtx
	// onAttempt, when set, sees every scripted request a backend got.
	onAttempt func(addr string, a action)
	// handler is the gateway's.
	handler http.Handler
}

func (n *scriptedNet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a := actOK
	if r.URL.Path != "/status" {
		a = n.script[r.Host]
		if n.onAttempt != nil {
			n.onAttempt(r.Host, a)
		}
	}
	if code, ok := scriptedReplies[a]; ok {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		answer(code, `{"ready":true}`)(w, r)
		return
	}
	switch a {
	case actTransport:
		panic(http.ErrAbortHandler)
	case actHang:
		n.ctx.fire(context.DeadlineExceeded)
	case actCancel:
		n.ctx.fire(context.Canceled)
	}
	<-r.Context().Done()
}

// send serves one client request through the gateway's handler under a
// fresh fireable context.
func (n *scriptedNet) send(method, path string) *httptest.ResponseRecorder {
	n.ctx = newFiredCtx()
	rec := httptest.NewRecorder()
	n.handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(`{}`)).WithContext(n.ctx))
	return rec
}

// TestAttemptClassification is GATEWAY.md's classification table, row
// by row, through each of the three handlers that send to backends: the
// verdict a backend's breaker draws from an answer does not depend on
// which handler asked. A verdict is read off the breaker's behaviour —
// with all but one of its threshold's failures on the books, an
// unhealthy answer opens it, a healthy one resets the streak (one more
// failure does not open it), and no verdict leaves the streak alone
// (one more does).
func TestAttemptClassification(t *testing.T) {
	rows := []struct {
		a    action
		want resilience.Verdict
	}{
		{actTransport, resilience.Unhealthy},
		{act500, resilience.Unhealthy},
		{act502, resilience.Unhealthy},
		{act504, resilience.Healthy},
		{act429, resilience.Healthy},
		{act404, resilience.Healthy},
		{act400, resilience.Healthy},
		{actOK, resilience.Healthy},
		{actHang, resilience.NoVerdict},
		{actCancel, resilience.NoVerdict},
	}
	columns := []struct{ name, method, path string }{
		{"forward", "POST", "/functions/f/invoke"},
		{"fan-out", "PUT", "/functions/f"},
		{"delete-all", "DELETE", "/functions/f"},
	}
	names := map[resilience.Verdict]string{resilience.NoVerdict: "no verdict", resilience.Healthy: "healthy", resilience.Unhealthy: "unhealthy"}
	for _, row := range rows {
		for _, col := range columns {
			net := &scriptedNet{script: map[string]action{"b:1": row.a}}
			g := newTestGateway(t, serving(net, "b:1"), Config{})
			net.handler = g.Handler()
			br := backendAt(g, "b:1").breaker
			for i := 1; i < breakerThreshold; i++ {
				br.Report(resilience.Unhealthy)
			}
			net.send(col.method, col.path)
			got := resilience.Unhealthy
			if br.State() == resilience.Closed {
				got = resilience.Healthy
				if br.Report(resilience.Unhealthy); br.State() == resilience.Open {
					got = resilience.NoVerdict
				}
			}
			if got != row.want {
				t.Errorf("%s via %s: %s, want %s", row.a, col.name, names[got], names[row.want])
			}
		}
	}
}

// forwardModel is one seeded schedule of invokes against three scripted
// backends.
type forwardModel struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	net  *scriptedNet
	g    *Gateway
	now  time.Time
	// owned[i] is a function whose owner is backend i.
	addrs, owned []string
	// lastHealthy is whether each backend's latest reply was a healthy
	// one.
	lastHealthy map[string]bool
	log         []string
}

func newForwardModel(t *testing.T, seed int64) *forwardModel {
	m := &forwardModel{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), now: time.Unix(0, 0),
		addrs: []string{"b0:1", "b1:1", "b2:1"}, lastHealthy: map[string]bool{}}
	m.net = &scriptedNet{script: map[string]action{}, onAttempt: func(addr string, a action) {
		m.logf("    %s answers %s", addr, a)
		if healthy, ok := a.healthy(); ok {
			m.lastHealthy[addr] = healthy
		}
	}}
	m.g = newTestGateway(t, serving(m.net, m.addrs...), Config{
		RequestTimeout: time.Hour, // deadlines are the script's to fire
	})
	m.net.handler = m.g.Handler()
	for _, b := range m.g.backends {
		b.breaker.SetClock(func() time.Time { return m.now })
		m.lastHealthy[b.Addr] = true
	}
	for _, addr := range m.addrs {
		for i := 0; ; i++ {
			if fn := fmt.Sprintf("f%d", i); prefAddrs(m.g, fn, 1)[0] == addr {
				m.owned = append(m.owned, fn)
				break
			}
		}
	}
	return m
}

func (m *forwardModel) logf(format string, args ...interface{}) {
	m.log = append(m.log, fmt.Sprintf(format, args...))
}

func (m *forwardModel) fail(format string, args ...interface{}) {
	m.t.Helper()
	m.t.Fatalf("seed %d: %s\nschedule:\n  %s", m.seed, fmt.Sprintf(format, args...), strings.Join(m.log, "\n  "))
}

// invoke scripts the three backends and sends one invoke of fn.
func (m *forwardModel) invoke(fn string, script [3]action) *httptest.ResponseRecorder {
	for i, addr := range m.addrs {
		m.net.script[addr] = script[i]
	}
	m.logf("  invoke %s, backends scripted %v", fn, script)
	rec := m.net.send("POST", "/functions/"+fn+"/invoke")
	m.logf("    -> %d via %q", rec.Code, rec.Header().Get("X-Faasnap-Backend"))
	return rec
}

// step is a burst of one to four invokes of one function — so one
// backend sees a run of answers, cooldowns elapsing or not in between —
// followed by the invariants.
func (m *forwardModel) step() {
	fn := m.owned[m.rng.Intn(len(m.owned))]
	m.logf("step")
	for n := 1 + m.rng.Intn(4); n > 0; n-- {
		if m.rng.Intn(2) == 0 {
			m.now = m.now.Add(breakerCooldown)
			m.logf("  clock +%v", breakerCooldown)
		}
		var script [3]action
		for i := range script {
			// Half the answers are a plain 200, the rest spread over
			// everything else a forward can meet.
			if m.rng.Intn(2) == 0 {
				script[i] = []action{act500, act429, act404, actTransport, actHang, actCancel}[m.rng.Intn(6)]
			}
		}
		m.invoke(fn, script)
	}
	m.invariants()
}

// invariants are what must hold between requests, whatever came before.
func (m *forwardModel) invariants() {
	allOK := [3]action{}
	// Once every backend's latest reply was healthy, no breaker has a
	// reason to stand in the way: every function is served, by its owner.
	everyHealthy := true
	for _, h := range m.lastHealthy {
		everyHealthy = everyHealthy && h
	}
	if everyHealthy {
		m.logf("  every backend's latest reply was healthy:")
		m.mustServe(allOK)
	}
	// No breaker holds a probe slot: one cooldown on, a healthy backend
	// serves what is routed to it. (This closes every breaker, which is
	// why a step is a burst: the sequences that matter play out inside
	// one.)
	m.now = m.now.Add(breakerCooldown)
	m.logf("  clock +%v, probing every backend:", breakerCooldown)
	m.mustServe(allOK)
}

// mustServe requires each backend to answer an invoke of the function
// it owns.
func (m *forwardModel) mustServe(script [3]action) {
	for i, addr := range m.addrs {
		rec := m.invoke(m.owned[i], script)
		if got := rec.Header().Get("X-Faasnap-Backend"); rec.Code != 200 || got != addr {
			m.fail("invoke of %s (owner %s, scripted healthy) = %d via %q", m.owned[i], addr, rec.Code, got)
		}
	}
}

func runForwardModel(t *testing.T, seed int64) {
	m := newForwardModel(t, seed)
	for i := 0; i < 10; i++ {
		m.step()
	}
}

// TestForwardModel: protocol invariants of the forward path — a request
// that is over holds nothing — over seeded schedules, no sockets, no
// sleeps. A failing seed prints its schedule.
func TestForwardModel(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 200; seed++ {
		runForwardModel(t, seed)
	}
}
