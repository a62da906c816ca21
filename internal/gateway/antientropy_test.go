package gateway

// Anti-entropy unit tests over scriptable fake backends: staleness
// detection from /status generations, repairs (register, chunk
// sync, delete), placement demotion while stale, and recovery to
// its place in preference order once manifests converge.

import (
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"faasnap/internal/daemon"
	"faasnap/internal/events"
	"faasnap/internal/statedir"
)

// scriptManifest sets the durable-state section of a fake backend's
// GET /status response.
func scriptManifest(f *fakeBackend, digest string, entries ...string) {
	f.manifestJSON.Store(fmt.Sprintf(`"digest":%q,"recovering":false,"functions":[%s]`,
		digest, strings.Join(entries, ",")))
}

func liveEntry(name string, gen int, hasSnap bool, input string) string {
	return fmt.Sprintf(`{"name":%q,"generation":%d,"deleted":false,"has_snapshot":%t,"record_input":%q}`,
		name, gen, hasSnap, input)
}

func tombstone(name string, gen int) string {
	return fmt.Sprintf(`{"name":%q,"generation":%d,"deleted":true,"has_snapshot":false}`, name, gen)
}

func TestAntiEntropyRepairsStaleBackend(t *testing.T) {
	net, fakes := newFakes(3)
	g := newTestGateway(t, net, Config{Replicas: 1})

	const fn = "hello-world"
	prefs := prefFakes(t, g, fn, 2, fakes)
	owner, standby := prefs[0], prefs[1]
	var outside *fakeBackend
	for _, f := range fakes {
		if f != owner && f != standby {
			outside = f
		}
	}

	// Owner holds the acknowledged state; the standby rejoined with a
	// wiped disk (empty manifest); the non-replica backend is also empty
	// and must not be repaired — it is outside fn's replica set.
	scriptManifest(owner, "d-owner", liveEntry(fn, 2, true, "A"))
	scriptManifest(standby, "d-empty")
	scriptManifest(outside, "d-empty")
	standby.script("POST /functions/{name}/sync", answer(http.StatusOK, `{"function":"hello-world","chunks_fetched":3,"bytes_fetched":4096,"trace_id":"5eed00000000abcd"}`))

	if n := sweep(g); n != 2 {
		t.Fatalf("resync actions = %d, want 2 (register + chunks)", n)
	}
	if c, sy, rec := net.count("PUT /functions/"+fn, standby.addr), net.count("POST /functions/"+fn+"/sync", standby.addr),
		net.count("POST /functions/"+fn+"/record", standby.addr); c != 1 || sy != 1 || rec != 0 {
		t.Fatalf("standby repairs: creates=%d syncs=%d records=%d, want 1, 1 and no record replay", c, sy, rec)
	}
	if n := len(net.take(outside.addr)); n != 2 {
		t.Fatalf("non-replica backend saw %d requests, want its two status sweeps only", n)
	}

	// Each repair is recorded once, as its repair event with its
	// duration. The pass leaves no gateway trace, so the id the sync's
	// reply carried reaches the daemon that minted it.
	var synced string
	for _, ev := range g.Events().Since(0, events.Repair, fn) {
		if wall, err := strconv.ParseFloat(ev.Fields["wall_ms"], 64); err != nil || wall < 0 {
			t.Fatalf("repair event %+v carries no wall_ms", ev)
		}
		if ev.Fields["action"] == string(repairChunks) {
			synced = ev.TraceID
		}
	}
	standby.script("GET /traces/{id}", answer(http.StatusOK, `{"held_by":"standby"}`))
	var trace string
	if sc := call(t, g.Handler(), "GET", "/traces/"+synced, nil, &trace).StatusCode; synced == "" || sc != http.StatusOK || trace != `{"held_by":"standby"}` {
		t.Fatalf("GET /traces/%s = %d %s, want the standby's trace", synced, sc, trace)
	}

	// While repairs are in flight the standby is demoted to the back of
	// the candidate order.
	sb := backendAt(g, standby.addr)
	if !sb.Stale() {
		t.Fatal("repaired backend not marked stale")
	}
	cands, _ := g.candidates(fn)
	if cands[len(cands)-1] != sb {
		t.Fatalf("stale backend not demoted: candidate order %v", addrsOf(cands))
	}

	// The stale verdict and repair counters are visible on /metrics.
	metrics := gwScrape(g)
	for _, want := range []string{
		`faasnap_gw_resync_total{action="chunks",backend="` + standby.addr + `"} 1`,
		`faasnap_gw_resync_chunk_bytes_total{backend="` + standby.addr + `"} 4096`,
		`faasnap_gw_resync_total{action="register",backend="` + standby.addr + `"} 1`,
		`faasnap_gw_backend_stale{backend="` + standby.addr + `"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Once the standby's manifest converges, the next pass repairs
	// nothing and restores its place in preference order.
	scriptManifest(standby, "d-owner", liveEntry(fn, 2, true, "A"))
	if n := sweep(g); n != 0 {
		t.Fatalf("converged pass issued %d actions", n)
	}
	if sb.Stale() {
		t.Fatal("backend still stale after convergence")
	}
}

// TestAntiEntropyFailedSyncRetriesNextSweep: a chunk sync that fails
// issues nothing in its place — no record replay — and leaves the
// backend stale; the next sweep tries the sync again.
func TestAntiEntropyFailedSyncRetriesNextSweep(t *testing.T) {
	net, fakes := newFakes(2)
	g := newTestGateway(t, net, Config{Replicas: 1})

	const fn = "hello-world"
	prefs := prefFakes(t, g, fn, 2, fakes)
	owner, standby := prefs[0], prefs[1]
	scriptManifest(owner, "d-owner", liveEntry(fn, 2, true, "A"))
	scriptManifest(standby, "d-reg", liveEntry(fn, 1, false, ""))
	const syncRoute = "POST /functions/{name}/sync"
	standby.script(syncRoute, answer(http.StatusBadGateway, ""))
	syncs := func() (int, int) {
		return net.count("POST /functions/"+fn+"/sync", standby.addr), net.count("POST /functions/"+fn+"/record", standby.addr)
	}

	if n := sweep(g); n != 0 {
		t.Fatalf("failed sync counted as %d repair actions", n)
	}
	if sy, rec := syncs(); sy != 1 || rec != 0 {
		t.Fatalf("first pass: syncs=%d records=%d, want one sync attempt and no record", sy, rec)
	}
	sb := backendAt(g, standby.addr)
	if !sb.Stale() {
		t.Fatal("backend whose repair failed is not stale")
	}

	standby.script(syncRoute, nil)
	if n := sweep(g); n != 1 {
		t.Fatalf("retry pass issued %d actions, want 1 (chunks)", n)
	}
	if sy, rec := syncs(); sy != 2 || rec != 0 {
		t.Fatalf("retry pass: syncs=%d records=%d, want 2 and 0", sy, rec)
	}
}

func TestAntiEntropyPropagatesDelete(t *testing.T) {
	net, fakes := newFakes(3)
	g := newTestGateway(t, net, Config{Replicas: 1})

	const fn = "json"
	prefs := prefFakes(t, g, fn, 2, fakes)
	owner, standby := prefs[0], prefs[1]

	// The owner processed the delete (tombstone, generation 3); the
	// standby was down for it and still serves generation 2. The delete
	// must win — an acknowledged delete never resurrects.
	scriptManifest(owner, "d-tomb", tombstone(fn, 3))
	scriptManifest(standby, "d-live", liveEntry(fn, 2, true, "A"))

	if n := sweep(g); n != 1 {
		t.Fatalf("resync actions = %d, want 1 (delete)", n)
	}
	if d := net.count("DELETE /functions/"+fn, standby.addr); d != 1 {
		t.Fatalf("standby deletes = %d, want 1", d)
	}
	if d := net.count("DELETE /functions/"+fn, owner.addr); d != 0 {
		t.Fatalf("owner deletes = %d, want 0", d)
	}
}

func TestAntiEntropyIgnoresManifestlessBackends(t *testing.T) {
	// Backends whose /status carries no durable-state section (stateless
	// daemons) are neither repair sources nor targets, and never marked
	// stale.
	net, fakes := newFakes(2)
	g := newTestGateway(t, net, Config{Replicas: 1})

	if n := sweep(g); n != 0 {
		t.Fatalf("resync against manifestless backends = %d actions", n)
	}
	for _, f := range fakes {
		if backendAt(g, f.addr).Stale() {
			t.Fatalf("manifestless backend %s marked stale", f.addr)
		}
		if hits := net.take(f.addr); len(hits) != 2 {
			t.Fatalf("manifestless backend saw %v, want its two status sweeps only", hits)
		}
	}
}

// TestAntiEntropyVersionRules is the repair-rule table of GATEWAY.md
// as plan rows, one standby state per row against an owner holding the
// function at generation 2 (or 3, re-recorded) with its snapshot: the
// pair's statuses in, the repairs out, no HTTP. (That a repair lands and
// the next pass is clean is TestRepairRuleEveryState's fixed point; the
// eager repair's event citing the deficit, TestRepairCausalityChain's.)
func TestAntiEntropyVersionRules(t *testing.T) {
	const fn = "hello-world"
	// entry is fn at gen, recorded with input ("" for no snapshot),
	// missing chunks; a deficit carries its event's seq, 7.
	entry := func(gen uint64, input string, missing int) daemon.StatusFunction {
		e := daemon.StatusFunction{Entry: statedir.Entry{Name: fn, Generation: gen, HasSnapshot: input != "", RecordInput: input},
			ChunksMissing: missing}
		if missing > 0 {
			e.DeficitSeq = 7
		}
		return e
	}
	backends := backendsOf("r0:1", "r1:1")
	owner, standby := preference(backends, fn, 2)[0], preference(backends, fn, 2)[1]
	for _, tc := range []struct {
		name           string
		owner, standby daemon.StatusFunction
		want           repairKind // the one repair of the standby, "" for none
	}{
		{"same version, same snapshot: nothing to do", entry(2, "A", 0), entry(2, "A", 0), ""},
		// Losing a snapshot does not mint: the standby is at the owner's
		// generation without the snapshot, so the owner wins the tie.
		{"snapshot quarantined at recovery", entry(2, "A", 0), entry(2, "", 0), repairChunks},
		// Both hold a snapshot, the standby's is of an older recording.
		// The sync adopts the owner's generation, so the rule cannot fire
		// twice.
		{"missed a re-record while down", entry(3, "B", 0), entry(2, "A", 0), repairChunks},
		{"chunks nobody owns: eager re-sync", entry(2, "A", 0), entry(2, "A", 2), repairChunksEager},
		// A source must be able to serve what it advertises: while the
		// only other copy is itself incomplete, wait.
		{"chunks nobody owns, no complete source yet", entry(2, "A", 3), entry(2, "A", 2), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			views := map[string]*backendView{}
			for addr, e := range map[string]daemon.StatusFunction{owner.Addr: tc.owner, standby.Addr: tc.standby} {
				views[addr] = &backendView{StatusResponse: daemon.StatusResponse{Ready: true, Digest: "d", Functions: []daemon.StatusFunction{e}}}
			}
			var want []repair
			if tc.want != "" {
				want = []repair{{kind: tc.want, fn: fn, target: standby, source: owner.Addr}}
				if tc.want == repairChunksEager {
					want[0].deficitSeq = 7
				}
			}
			if got := plan(views, backends, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("plan = %+v, want %+v", got, want)
			}
		})
	}
}

// TestAntiEntropyKeepsVerdictWithoutStatus: a stale backend that dies
// mid-repair stays stale — no converged event — through
// every pass that cannot see it, and is cleared only by a pass that has
// its status and finds nothing to repair; the converged event then still
// cites the last repair.
func TestAntiEntropyKeepsVerdictWithoutStatus(t *testing.T) {
	net, fakes := newFakes(2)
	g := newTestGateway(t, net, Config{Replicas: 1})
	const fn = "hello-world"
	prefs := prefFakes(t, g, fn, 2, fakes)
	owner, standby := prefs[0], prefs[1]
	scriptManifest(owner, "d-owner", liveEntry(fn, 2, true, "A"))
	scriptManifest(standby, "d-empty")

	if n := sweep(g); n != 2 {
		t.Fatalf("repair pass actions = %d, want 2", n)
	}
	sb := backendAt(g, standby.addr)
	if !sb.Stale() {
		t.Fatal("repaired backend not marked stale")
	}
	repairs := g.Events().Since(0, events.Repair, fn)
	lastRepair := repairs[len(repairs)-1].Seq
	converged := func() []events.Event { return g.Events().Since(0, events.Converged, "") }

	net.set(standby.addr, linkDown)
	for pass := 1; pass <= 3; pass++ {
		if n := sweep(g); n != 0 {
			t.Fatalf("pass %d repaired a backend it has no status for (%d actions)", pass, n)
		}
		if !sb.Stale() {
			t.Fatalf("pass %d cleared the verdict of a backend it could not see", pass)
		}
		if conv := converged(); len(conv) != 0 {
			t.Fatalf("pass %d: converged %v for a node that is still down", pass, conv)
		}
	}

	net.set(standby.addr, linkUp)
	scriptManifest(standby, "d-owner", liveEntry(fn, 2, true, "A"))
	if n := sweep(g); n != 0 || sb.Stale() {
		t.Fatalf("pass after rejoin: %d actions, stale=%v", n, sb.Stale())
	}
	conv := converged()
	if len(conv) != 1 || conv[0].Fields["backend"] != standby.addr {
		t.Fatalf("after rejoin: converged %v; want one for the standby", conv)
	}
	if conv[0].CauseSeq != lastRepair || conv[0].CauseOrigin != "gateway" {
		t.Fatalf("converged cause = (%d, %q), want the last repair (%d, gateway)", conv[0].CauseSeq, conv[0].CauseOrigin, lastRepair)
	}
}

func addrsOf(bs []*Backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Addr
	}
	return out
}

// TestNoRepairRacesAFanout: a sweep that lands while a record's fan-out
// holds its standby leg sees the standby behind the owner, and a pass
// over that sweep's statuses after the fan-out returns reads a state the
// fan-out has moved past; neither repairs anything. The pass after the
// next sweep sees the fan-out's outcome, here a failed standby leg, and
// repairs it as today.
func TestNoRepairRacesAFanout(t *testing.T) {
	net, fakes := newFakes(2)
	g := newTestGateway(t, net, Config{Replicas: 1})

	const fn = "hello-world"
	prefs := prefFakes(t, g, fn, 2, fakes)
	owner, standby := prefs[0], prefs[1]
	scriptManifest(owner, "d-reg", liveEntry(fn, 1, false, ""))
	scriptManifest(standby, "d-reg", liveEntry(fn, 1, false, ""))
	if n := sweep(g); n != 0 {
		t.Fatalf("registered replicas: %d repairs, want none", n)
	}
	const recordRoute = "POST /functions/{name}/record"
	owner.script(recordRoute, func(w http.ResponseWriter, r *http.Request) {
		scriptManifest(owner, "d-rec", liveEntry(fn, 2, true, "A"))
		fmt.Fprintf(w, `{"function":%q}`, fn)
	})
	during := -1
	standby.script(recordRoute, func(w http.ResponseWriter, r *http.Request) {
		during = sweep(g) // between the owner's leg and this one
		http.Error(w, "injected", http.StatusInternalServerError)
	})
	syncs := func() int { return net.count("POST /functions/"+fn+"/sync", standby.addr) }

	if code := call(t, g.Handler(), "POST", "/functions/"+fn+"/record", map[string]string{"input": "A"}, nil).StatusCode; code != http.StatusOK {
		t.Fatalf("record through the gateway = %d", code)
	}
	if during != 0 || syncs() != 0 {
		t.Fatalf("a sweep between the legs: %d repairs, %d syncs sent; want none", during, syncs())
	}
	if n := g.ResyncNow(); n != 0 || syncs() != 0 {
		t.Fatalf("a pass over statuses taken before the fan-out ended: %d repairs, %d syncs sent; want none", n, syncs())
	}
	if backendAt(g, standby.addr).Stale() {
		t.Fatal("the standby was marked stale from a status the fan-out overtook")
	}
	if n := sweep(g); n != 1 || syncs() != 1 {
		t.Fatalf("the pass after a fresh sweep: %d repairs, %d syncs sent; want the failed leg synced once", n, syncs())
	}
}
