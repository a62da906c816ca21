package gateway

// A deterministic model of the replica-state protocol: in-memory model
// daemons behind the gateway's own http.Client (an in-process
// RoundTripper — no sockets, no sleeps), the real CheckNow / ResyncNow /
// fan-out handlers on top, and a seeded schedule of client mutations
// and faults. The model daemons implement the daemon's side of the
// contract — generations minted by client mutations only, invalidate
// keeps them, sync adopts them; a lazy tail owns its pending chunks and
// advances only when the schedule says so — so the properties checked
// here are properties of the rules in antientropy.go against that
// contract (which internal/daemon's own tests pin on the real thing).
//
// Throughout a schedule: no live replica's generation exceeds the
// highest one a client mutation minted; no node fetches a digest it holds; no
// repair reaches a node, or names a source, the last sweep had no
// status for. After it, with every node up, within a bounded number of
// passes: each replica set agrees, nothing is pending or missing, nobody
// is stale, and the next pass does nothing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"faasnap/internal/daemon"
	"faasnap/internal/statedir"
)

const (
	modelChunks = 8 // per snapshot
	modelShared = 3 // leading chunks every snapshot shares (the base image)
)

// modelChunk is chunk i of fn recorded with input: its digest and
// whether it is in the loading set.
func modelChunk(fn, input string, i int) (digest string, ls bool) {
	if i < modelShared {
		return fmt.Sprintf("base/%d", i), i == 0
	}
	return fmt.Sprintf("%s/%s/%d", fn, input, i), i%3 == 0
}

type modelEntry struct {
	daemon.StatusFunction
	// tail is what the function's live lazy fetcher still owes, fetched
	// from tailSource one explicit step at a time; nil without one.
	tail       []string
	tailSource string
}

type modelNode struct {
	up      bool
	entries map[string]*modelEntry
	store   map[string]bool
}

// modelNet is the cluster: the nodes, and the bookkeeping the
// invariants are checked against. mu orders the requests of one
// CheckNow, the only ones that arrive concurrently; between gateway
// calls the schedule owns everything.
type modelNet struct {
	mu    sync.Mutex
	nodes map[string]*modelNode
	// minted is the highest generation a client mutation produced, per
	// function; repairs may reach it, never pass it.
	minted map[string]uint64
	// sweep counts CheckNow calls; seen is the sweep in which each node
	// last answered GET /status ready.
	sweep int
	seen  map[string]int
	// resyncing is set while the schedule is inside ResyncNow: every
	// request issued then is a repair, every other one a status probe or
	// a client's.
	resyncing bool
	// violations collects broken invariants as they happen.
	violations []string
}

func (m *modelNet) violate(format string, args ...interface{}) {
	m.violations = append(m.violations, fmt.Sprintf(format, args...))
}

// RoundTrip makes the cluster the gateway's transport.
func (m *modelNet) RoundTrip(req *http.Request) (*http.Response, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	addr := req.URL.Host
	n := m.nodes[addr]
	if n == nil || !n.up {
		return nil, fmt.Errorf("dial %s: connection refused", addr)
	}
	if m.resyncing && m.seen[addr] != m.sweep {
		m.violate("repair %s %s reached %s, which had no status in sweep %d", req.Method, req.URL.Path, addr, m.sweep)
	}
	rec := httptest.NewRecorder()
	m.serve(rec, req, addr, n, m.resyncing)
	return rec.Result(), nil
}

func (m *modelNet) serve(w http.ResponseWriter, r *http.Request, addr string, n *modelNode, repair bool) {
	reply := func(code int, v interface{}) {
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case r.Method == "GET" && r.URL.Path == "/status":
		m.seen[addr] = m.sweep
		st := daemon.StatusResponse{Ready: true, Digest: "model"}
		for _, fn := range sortedKeys(n.entries) {
			e := n.entries[fn]
			me := e.StatusFunction
			if absent := m.absent(n, fn, e); absent > 0 {
				me.ChunksPending = min(len(e.tail), absent)
				me.ChunksMissing = max(0, absent-len(e.tail))
			}
			st.Functions = append(st.Functions, me)
		}
		reply(200, st)
	case len(parts) == 2 && parts[0] == "functions" && r.Method == "PUT":
		e := n.entries[parts[1]]
		if e == nil || e.Deleted {
			m.mint(n, parts[1], repair, func(e *modelEntry) { e.Deleted = false })
		}
		reply(200, map[string]string{"name": parts[1]})
	case len(parts) == 2 && parts[0] == "functions" && r.Method == "DELETE":
		if e := n.entries[parts[1]]; e == nil || e.Deleted {
			reply(404, map[string]string{"error": "not registered"})
			return
		}
		m.mint(n, parts[1], repair, func(e *modelEntry) {
			e.Deleted, e.HasSnapshot, e.RecordInput, e.tail = true, false, "", nil
		})
		w.WriteHeader(204)
	case len(parts) == 3 && parts[2] == "record" && r.Method == "POST":
		fn := parts[1]
		if e := n.entries[fn]; e == nil || e.Deleted {
			reply(404, map[string]string{"error": "not registered"})
			return
		}
		var body struct{ Input string }
		json.NewDecoder(r.Body).Decode(&body)
		m.mint(n, fn, repair, func(e *modelEntry) { e.HasSnapshot, e.RecordInput = true, body.Input })
		for i := 0; i < modelChunks; i++ {
			dg, _ := modelChunk(fn, body.Input, i)
			n.store[dg] = true
		}
		reply(200, map[string]string{"function": fn})
	case len(parts) == 3 && parts[2] == "sync" && r.Method == "POST":
		var body struct {
			Source string
			Eager  bool
		}
		json.NewDecoder(r.Body).Decode(&body)
		code, out := m.sync(addr, n, parts[1], body.Source, body.Eager)
		reply(code, out)
	default:
		reply(404, map[string]string{"error": "no such route"})
	}
}

// absent counts the chunks of fn's snapshot that n's store lacks.
func (m *modelNet) absent(n *modelNode, fn string, e *modelEntry) int {
	absent := 0
	for i := 0; e.HasSnapshot && i < modelChunks; i++ {
		if dg, _ := modelChunk(fn, e.RecordInput, i); !n.store[dg] {
			absent++
		}
	}
	return absent
}

// mint applies one acknowledged mutation at the function's next
// generation.
func (m *modelNet) mint(n *modelNode, fn string, repair bool, apply func(*modelEntry)) {
	e := n.entries[fn]
	if e == nil {
		e = &modelEntry{StatusFunction: daemon.StatusFunction{Entry: statedir.Entry{Name: fn}}}
		n.entries[fn] = e
	}
	e.Generation++
	apply(e)
	if !repair {
		m.minted[fn] = max(m.minted[fn], e.Generation)
	}
}

// fetch moves one chunk from src into n's store, as the sync's eager
// phase or a lazy tail's step does; false when src cannot serve it.
func (m *modelNet) fetch(addr string, n *modelNode, src *modelNode, dg string) bool {
	if n.store[dg] {
		m.violate("%s fetched %s, which it holds", addr, dg)
	}
	if src == nil || !src.up || !src.store[dg] {
		return false
	}
	n.store[dg] = true
	return true
}

// sync is POST /functions/{fn}/sync on n: take over fn's live tail,
// plan what the store lacks, fetch the eager part, adopt the source's
// generation, leave the rest to a new tail.
func (m *modelNet) sync(addr string, n *modelNode, fn, source string, eager bool) (int, interface{}) {
	bad := func(why string) (int, interface{}) { return 502, map[string]string{"error": why} }
	src := m.nodes[source]
	if m.seen[source] != m.sweep {
		m.violate("sync on %s names source %s, which had no status in sweep %d", addr, source, m.sweep)
	}
	if src == nil || !src.up {
		return bad("source unreachable")
	}
	se := src.entries[fn]
	if se == nil || se.Deleted || !se.HasSnapshot {
		return bad("source has no snapshot")
	}
	if e := n.entries[fn]; e != nil {
		if eager && len(e.tail) > 0 && m.absent(n, fn, e) <= len(e.tail) {
			m.violate("eager repair of %s fired at %s, whose live tail owns everything it lacks", fn, addr)
		}
		e.tail = nil // taken over: what it had not fetched is planned below
	}
	var lazy []string
	fetched := 0
	for i := 0; i < modelChunks; i++ {
		dg, ls := modelChunk(fn, se.RecordInput, i)
		switch {
		case n.store[dg]:
		case ls || eager:
			if !m.fetch(addr, n, src, dg) {
				return bad("source cannot serve " + dg)
			}
			fetched++
		default:
			lazy = append(lazy, dg)
		}
	}
	e := n.entries[fn]
	if e == nil {
		e = &modelEntry{StatusFunction: daemon.StatusFunction{Entry: statedir.Entry{Name: fn}}}
		n.entries[fn] = e
	}
	e.Generation = max(e.Generation, se.Generation)
	e.Deleted, e.HasSnapshot, e.RecordInput = false, true, se.RecordInput
	e.tail, e.tailSource = lazy, source
	return 200, daemon.SyncResponse{ChunksFetched: fetched, BytesFetched: int64(fetched) << 10}
}

// advanceTails steps every live tail on n by one chunk: fetched, or —
// the source cannot serve it — abandoned to nobody.
func (m *modelNet) advanceTails(addr string, n *modelNode) {
	for _, fn := range sortedKeys(n.entries) {
		e := n.entries[fn]
		for len(e.tail) > 0 {
			dg := e.tail[0]
			e.tail = e.tail[1:]
			if !n.store[dg] { // the real fetcher skips what arrived meanwhile, too
				m.fetch(addr, n, m.nodes[e.tailSource], dg)
				break
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// modelRun is one seeded schedule against one fresh cluster.
type modelRun struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	net   *modelNet
	g     *Gateway
	addrs []string
	fns   []string
	dead  map[string]bool // deleted: the name is not used again
	// fresh is set by a check and spent by the pass that acts on it: as
	// in the sweep loop, a pass never acts on one sweep's answers twice —
	// but anything may happen between the sweep and its pass.
	fresh bool
	log   []string
}

func newModelRun(t *testing.T, seed int64) *modelRun {
	rng := rand.New(rand.NewSource(seed))
	r := &modelRun{t: t, seed: seed, rng: rng, dead: map[string]bool{},
		fns: []string{"f0", "f1", "f2"},
		net: &modelNet{nodes: map[string]*modelNode{}, minted: map[string]uint64{}, seen: map[string]int{}}}
	for i := 0; i < 3+rng.Intn(2); i++ {
		addr := fmt.Sprintf("n%d:1", i)
		r.addrs = append(r.addrs, addr)
		r.net.nodes[addr] = &modelNode{up: true, entries: map[string]*modelEntry{}, store: map[string]bool{}}
	}
	g, err := build(Config{Backends: r.addrs, Replicas: 1 + rng.Intn(2), Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	g.client.Transport = r.net
	r.g = g
	return r
}

func (r *modelRun) logf(format string, args ...interface{}) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *modelRun) fail(format string, args ...interface{}) {
	r.t.Helper()
	r.t.Fatalf("seed %d: %s\nschedule:\n  %s", r.seed, fmt.Sprintf(format, args...), strings.Join(r.log, "\n  "))
}

// client sends one client mutation through the gateway's handler.
func (r *modelRun) client(method, path, body string) int {
	rec := httptest.NewRecorder()
	r.g.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewBufferString(body)))
	return rec.Code
}

func (r *modelRun) check() {
	r.net.sweep++
	r.g.CheckNow()
	r.fresh = true
}

func (r *modelRun) resync() int {
	r.fresh = false
	r.net.resyncing = true
	defer func() { r.net.resyncing = false }()
	return r.g.ResyncNow()
}

// step runs one random schedule operation.
func (r *modelRun) step() {
	m := r.net
	addr := r.addrs[r.rng.Intn(len(r.addrs))]
	n := m.nodes[addr]
	fn := r.fns[r.rng.Intn(len(r.fns))]
	// rejoin brings a killed node back — a restart found no fetcher
	// alive, whatever else it found.
	rejoin := func(what string, recover func()) {
		if n.up {
			return
		}
		r.logf("%s %s", what, addr)
		n.up = true
		for _, e := range n.entries {
			e.tail = nil
		}
		recover()
	}
	switch op := r.rng.Intn(16); op {
	case 0, 1:
		if !r.dead[fn] {
			r.logf("register %s -> %d", fn, r.client("PUT", "/functions/"+fn, ""))
		}
	case 2, 3, 4:
		if !r.dead[fn] {
			input := string(rune('A' + r.rng.Intn(3)))
			r.logf("record %s %s -> %d", fn, input, r.client("POST", "/functions/"+fn+"/record", `{"input":"`+input+`"}`))
		}
	case 5:
		if r.rng.Intn(3) == 0 && !r.dead[fn] {
			code := r.client("DELETE", "/functions/"+fn, "")
			r.dead[fn] = code == 204
			r.logf("delete %s -> %d", fn, code)
		}
	case 6:
		if n.up {
			r.logf("kill %s", addr)
			n.up = false
		}
	case 7:
		rejoin("rejoin", func() {})
	case 8:
		rejoin("wipe-and-rejoin", func() {
			n.entries, n.store = map[string]*modelEntry{}, map[string]bool{}
		})
	case 9:
		rejoin("rejoin-quarantined "+fn, func() {
			if e := n.entries[fn]; e != nil {
				e.HasSnapshot, e.RecordInput = false, "" // invalidate: the generation stays
			}
		})
	case 10:
		if e := n.entries[fn]; e != nil && e.HasSnapshot {
			dg, _ := modelChunk(fn, e.RecordInput, modelChunks-1)
			r.logf("drop-chunk %s %s", addr, dg)
			delete(n.store, dg)
		}
	case 11:
		if e := n.entries[fn]; e != nil && len(e.tail) > 0 {
			r.logf("abandon-tail %s %s (%d chunks)", addr, fn, len(e.tail))
			e.tail = nil
		}
	case 12:
		if n.up {
			r.logf("advance-tails %s", addr)
			m.advanceTails(addr, n)
		}
	case 13:
		r.logf("check")
		r.check()
	case 14:
		if r.fresh {
			r.logf("resync -> %d", r.resync())
		}
	case 15:
		r.check()
		r.logf("sweep -> %d", r.resync())
	}
	r.invariants()
}

// invariants are what must hold after every operation.
func (r *modelRun) invariants() {
	m := r.net
	if len(m.violations) > 0 {
		r.fail("%s", strings.Join(m.violations, "; "))
	}
	for addr, n := range m.nodes {
		for fn, e := range n.entries {
			// (A tombstone may: replaying a delete onto a copy tied with it
			// mints one more, and nothing outranks a delete anyway.)
			if !e.Deleted && e.Generation > m.minted[fn] {
				r.fail("%s holds %s at generation %d; no client mutation minted past %d", addr, fn, e.Generation, m.minted[fn])
			}
		}
	}
}

// converge brings every node up, lets the tails drain, and requires
// the cluster to settle within a bounded number of passes.
func (r *modelRun) converge() {
	m := r.net
	r.logf("-- converge")
	for _, n := range m.nodes {
		if !n.up {
			n.up = true
			for _, e := range n.entries {
				e.tail = nil
			}
		}
	}
	const maxPasses = 6
	for pass := 1; ; pass++ {
		r.check()
		actions := r.resync()
		r.logf("pass %d -> %d", pass, actions)
		for i := 0; i < modelChunks; i++ {
			for _, addr := range r.addrs {
				m.advanceTails(addr, m.nodes[addr])
			}
		}
		r.invariants()
		if actions == 0 && r.settled() == "" {
			return
		}
		if pass == maxPasses {
			r.fail("not converged after %d passes: %s", maxPasses, r.settled())
		}
	}
}

// settled says what still disagrees, "" when nothing does. Per replica
// set, against its winner: a tombstone leaves no live copy; a live winner leaves every
// replica live, and its snapshot — when it has one — on every replica
// at its generation, and complete wherever a complete copy survives.
// (A winner that lost its snapshot leaves nothing to converge on: the
// newest version is gone from the cluster. And agreement is on the
// generation, which is all the protocol compares: two replicas that
// each missed a different mutation can count to the same number over
// different recordings — generations are counters, not version vectors.)
func (r *modelRun) settled() string {
	m := r.net
	for _, b := range r.g.backends {
		if b.Stale() {
			return b.Addr + " is stale"
		}
	}
	for _, fn := range r.fns {
		set := prefAddrs(r.g, fn, 1+r.g.cfg.Replicas)
		var w *modelEntry
		for _, addr := range set {
			if e := m.nodes[addr].entries[fn]; e != nil && (w == nil || outranks(e.StatusFunction, w.StatusFunction)) {
				w = e
			}
		}
		if w == nil {
			continue
		}
		// A repair needs a source that can serve the whole snapshot; where
		// chunk loss has left no complete copy of the winning version, the
		// survivors' deficits are data loss, not unrepaired state.
		complete := false
		for _, addr := range set {
			if e := m.nodes[addr].entries[fn]; e != nil && e.HasSnapshot && e.Generation == w.Generation &&
				len(e.tail) == 0 && m.absent(m.nodes[addr], fn, e) == 0 {
				complete = true
			}
		}
		for _, addr := range set {
			n := m.nodes[addr]
			e := n.entries[fn]
			switch {
			case w.Deleted:
				if e != nil && !e.Deleted {
					return fmt.Sprintf("%s on %s outlived its delete", fn, addr)
				}
			case e == nil || e.Deleted:
				return fmt.Sprintf("%s is live but %s does not hold it", fn, addr)
			case w.HasSnapshot:
				if !e.HasSnapshot || e.Generation != w.Generation {
					return fmt.Sprintf("%s on %s is (gen %d, snapshot %v), winner at gen %d",
						fn, addr, e.Generation, e.HasSnapshot, w.Generation)
				}
				if len(e.tail) > 0 {
					return fmt.Sprintf("%s on %s still has %d chunks pending", fn, addr, len(e.tail))
				}
				if absent := m.absent(n, fn, e); absent > 0 && complete {
					return fmt.Sprintf("%s on %s is missing %d chunks a complete copy could supply", fn, addr, absent)
				}
			}
		}
	}
	return ""
}

func runModel(t *testing.T, seed int64) []string {
	r := newModelRun(t, seed)
	for i := 0; i < 60; i++ {
		r.step()
	}
	r.converge()
	return r.log
}

func TestProtocolModel(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		runModel(t, seed)
	}
	// Same seed, same schedule, same verdict — outcomes included.
	for _, seed := range []int64{7, 77} {
		a, b := runModel(t, seed), runModel(t, seed)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("seed %d is not deterministic:\n%s\n--- vs ---\n%s", seed, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	}
}
