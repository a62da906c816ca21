package gateway

// Anti-entropy unit tests over scriptable fake backends: staleness
// detection from /status generations, repairs (register, chunk
// sync, delete), placement demotion while stale, and recovery to
// its place in preference order once manifests converge.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"faasnap/internal/events"
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

// prefFakes resolves fn's replica set (owner + n-1 standbys) to fakes.
func prefFakes(t *testing.T, g *Gateway, fn string, n int, fakes []*fakeBackend) []*fakeBackend {
	t.Helper()
	addrs := prefAddrs(g, fn, n)
	out := make([]*fakeBackend, 0, n)
	for _, a := range addrs {
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

func TestAntiEntropyRepairsStaleBackend(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{Replicas: 1}, fakes...)

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

	g.CheckNow()
	if n := g.ResyncNow(); n != 2 {
		t.Fatalf("resync actions = %d, want 2 (register + chunks)", n)
	}
	if c, sy, rec := standby.creates.Load(), standby.syncs.Load(), standby.records.Load(); c != 1 || sy != 1 || rec != 0 {
		t.Fatalf("standby repairs: creates=%d syncs=%d records=%d, want 1, 1 and no record replay", c, sy, rec)
	}
	if c, sy := outside.creates.Load(), outside.syncs.Load(); c != 0 || sy != 0 {
		t.Fatalf("non-replica backend was repaired: creates=%d syncs=%d", c, sy)
	}

	// While repairs are in flight the standby is demoted to the back of
	// the candidate order.
	sb := backendAt(g, standby.addr)
	if !sb.Stale() {
		t.Fatal("repaired backend not marked stale")
	}
	cands := g.candidates(fn)
	if cands[len(cands)-1] != sb {
		t.Fatalf("stale backend not demoted: candidate order %v", addrsOf(cands))
	}

	// The stale verdict and repair counters are visible on /metrics.
	var buf bytes.Buffer
	g.reg.WritePrometheus(&buf)
	metrics := buf.String()
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
	g.CheckNow()
	if n := g.ResyncNow(); n != 0 {
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
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{Replicas: 1}, fakes...)

	const fn = "hello-world"
	prefs := prefFakes(t, g, fn, 2, fakes)
	owner, standby := prefs[0], prefs[1]
	scriptManifest(owner, "d-owner", liveEntry(fn, 2, true, "A"))
	scriptManifest(standby, "d-reg", liveEntry(fn, 1, false, ""))
	standby.syncFail.Store(true)

	g.CheckNow()
	if n := g.ResyncNow(); n != 0 {
		t.Fatalf("failed sync counted as %d repair actions", n)
	}
	if sy, rec := standby.syncs.Load(), standby.records.Load(); sy != 1 || rec != 0 {
		t.Fatalf("first pass: syncs=%d records=%d, want one sync attempt and no record", sy, rec)
	}
	sb := backendAt(g, standby.addr)
	if !sb.Stale() {
		t.Fatal("backend whose repair failed is not stale")
	}

	standby.syncFail.Store(false)
	g.CheckNow()
	if n := g.ResyncNow(); n != 1 {
		t.Fatalf("retry pass issued %d actions, want 1 (chunks)", n)
	}
	if sy, rec := standby.syncs.Load(), standby.records.Load(); sy != 2 || rec != 0 {
		t.Fatalf("retry pass: syncs=%d records=%d, want 2 and 0", sy, rec)
	}
}

func TestAntiEntropyPropagatesDelete(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{Replicas: 1}, fakes...)

	const fn = "json"
	prefs := prefFakes(t, g, fn, 2, fakes)
	owner, standby := prefs[0], prefs[1]

	// The owner processed the delete (tombstone, generation 3); the
	// standby was down for it and still serves generation 2. The delete
	// must win — an acknowledged delete never resurrects.
	scriptManifest(owner, "d-tomb", tombstone(fn, 3))
	scriptManifest(standby, "d-live", liveEntry(fn, 2, true, "A"))

	g.CheckNow()
	if n := g.ResyncNow(); n != 1 {
		t.Fatalf("resync actions = %d, want 1 (delete)", n)
	}
	if d := standby.deletes.Load(); d != 1 {
		t.Fatalf("standby deletes = %d, want 1", d)
	}
	if d := owner.deletes.Load(); d != 0 {
		t.Fatalf("owner deletes = %d, want 0", d)
	}
}

func TestAntiEntropyIgnoresManifestlessBackends(t *testing.T) {
	// Backends whose /status carries no durable-state section (stateless
	// daemons) are neither repair sources nor targets, and never marked
	// stale.
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{Replicas: 1}, fakes...)

	g.CheckNow()
	if n := g.ResyncNow(); n != 0 {
		t.Fatalf("resync against manifestless backends = %d actions", n)
	}
	for _, f := range fakes {
		b := backendAt(g, f.addr)
		if b.Stale() {
			t.Fatalf("manifestless backend %s marked stale", f.addr)
		}
		if c := f.creates.Load(); c != 0 {
			t.Fatalf("manifestless backend repaired: %d creates", c)
		}
	}
}

// TestAntiEntropyVersionRules is the repair-rule table of GATEWAY.md,
// one standby state per row against an owner holding the function at
// generation 2 (or 3, re-recorded) with its snapshot.
func TestAntiEntropyVersionRules(t *testing.T) {
	const fn = "hello-world"
	withChunks := func(entry string, pending, missing int) string {
		return strings.TrimSuffix(entry, "}") + fmt.Sprintf(`,"chunks_pending":%d,"chunks_missing":%d,"deficit_seq":7}`, pending, missing)
	}
	for _, tc := range []struct {
		name           string
		owner, standby string
		actions, syncs int
		action         string // the repair event's action, when one fires
		stale          bool
		// healed is the standby's entry once the repair has landed; the
		// next pass must find nothing to do.
		healed string
	}{
		{
			name:    "same version, same snapshot: nothing to do",
			owner:   liveEntry(fn, 2, true, "A"),
			standby: liveEntry(fn, 2, true, "A"),
		},
		{
			// Losing a snapshot does not mint: the standby is at the owner's
			// generation without the snapshot, so the owner wins the tie.
			name:    "snapshot quarantined at recovery",
			owner:   liveEntry(fn, 2, true, "A"),
			standby: liveEntry(fn, 2, false, ""),
			actions: 1, syncs: 1, action: "chunks", stale: true,
			healed: liveEntry(fn, 2, true, "A"),
		},
		{
			// Both hold a snapshot, the standby's is of an older recording.
			// The sync adopts the owner's generation, so the rule cannot
			// fire twice.
			name:    "missed a re-record while down",
			owner:   liveEntry(fn, 3, true, "B"),
			standby: liveEntry(fn, 2, true, "A"),
			actions: 1, syncs: 1, action: "chunks", stale: true,
			healed: liveEntry(fn, 3, true, "B"),
		},
		{
			name:    "lazy tail still draining: pending is somebody's job",
			owner:   liveEntry(fn, 2, true, "A"),
			standby: withChunks(liveEntry(fn, 2, true, "A"), 5, 0),
		},
		{
			name:    "chunks nobody owns: eager re-sync",
			owner:   liveEntry(fn, 2, true, "A"),
			standby: withChunks(liveEntry(fn, 2, true, "A"), 5, 2),
			actions: 1, syncs: 1, action: "chunks_eager", stale: true,
			healed: liveEntry(fn, 2, true, "A"),
		},
		{
			// A source must be able to serve what it advertises: while the
			// only other copy is itself incomplete, wait.
			name:    "chunks nobody owns, no complete source yet",
			owner:   withChunks(liveEntry(fn, 2, true, "A"), 3, 0),
			standby: withChunks(liveEntry(fn, 2, true, "A"), 0, 2),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
			g := newTestGateway(t, Config{Replicas: 1}, fakes...)
			prefs := prefFakes(t, g, fn, 2, fakes)
			owner, standby := prefs[0], prefs[1]
			scriptManifest(owner, "d-owner", tc.owner)
			scriptManifest(standby, "d-standby", tc.standby)

			g.CheckNow()
			if n := g.ResyncNow(); n != tc.actions {
				t.Fatalf("actions = %d, want %d", n, tc.actions)
			}
			if sy := standby.syncs.Load(); int(sy) != tc.syncs {
				t.Fatalf("standby syncs = %d, want %d", sy, tc.syncs)
			}
			if n := owner.syncs.Load() + owner.creates.Load() + owner.deletes.Load(); n != 0 {
				t.Fatalf("the winner was repaired (%d mutations)", n)
			}
			sb := backendAt(g, standby.addr)
			if sb.Stale() != tc.stale {
				t.Fatalf("standby stale = %v, want %v", sb.Stale(), tc.stale)
			}
			if tc.action == "" {
				return
			}
			repairs := g.Events().Since(0, events.Repair, fn)
			if len(repairs) != 1 || repairs[0].Fields["action"] != tc.action {
				t.Fatalf("repair events = %+v, want one %q", repairs, tc.action)
			}
			if tc.action == "chunks_eager" && (repairs[0].CauseSeq != 7 || repairs[0].CauseOrigin != standby.addr) {
				t.Fatalf("eager repair cause = (%d, %q), want the standby's deficit event", repairs[0].CauseSeq, repairs[0].CauseOrigin)
			}
			scriptManifest(standby, "d-owner", tc.healed)
			g.CheckNow()
			if n := g.ResyncNow(); n != 0 || sb.Stale() {
				t.Fatalf("pass after the repair: %d actions, stale=%v; want a clean no-op", n, sb.Stale())
			}
		})
	}
}

// TestAntiEntropyKeepsVerdictWithoutStatus: a stale backend that dies
// mid-repair stays stale — no backend_clean, no converged — through
// every pass that cannot see it, and is cleared only by a pass that has
// its status and finds nothing to repair; the converged event then still
// cites the last repair.
func TestAntiEntropyKeepsVerdictWithoutStatus(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{Replicas: 1}, fakes...)
	const fn = "hello-world"
	prefs := prefFakes(t, g, fn, 2, fakes)
	owner, standby := prefs[0], prefs[1]
	scriptManifest(owner, "d-owner", liveEntry(fn, 2, true, "A"))
	scriptManifest(standby, "d-empty")

	g.CheckNow()
	if n := g.ResyncNow(); n != 2 {
		t.Fatalf("repair pass actions = %d, want 2", n)
	}
	sb := backendAt(g, standby.addr)
	if !sb.Stale() {
		t.Fatal("repaired backend not marked stale")
	}
	repairs := g.Events().Since(0, events.Repair, fn)
	lastRepair := repairs[len(repairs)-1].Seq
	verdicts := func() (clean, converged []events.Event) {
		return g.Events().Since(0, events.BackendClean, ""), g.Events().Since(0, events.Converged, "")
	}

	standby.down.Store(true)
	for pass := 1; pass <= 3; pass++ {
		g.CheckNow()
		if n := g.ResyncNow(); n != 0 {
			t.Fatalf("pass %d repaired a backend it has no status for (%d actions)", pass, n)
		}
		if !sb.Stale() {
			t.Fatalf("pass %d cleared the verdict of a backend it could not see", pass)
		}
		if clean, conv := verdicts(); len(clean)+len(conv) != 0 {
			t.Fatalf("pass %d: backend_clean %v / converged %v for a node that is still down", pass, clean, conv)
		}
	}

	standby.down.Store(false)
	scriptManifest(standby, "d-owner", liveEntry(fn, 2, true, "A"))
	g.CheckNow()
	if n := g.ResyncNow(); n != 0 || sb.Stale() {
		t.Fatalf("pass after rejoin: %d actions, stale=%v", n, sb.Stale())
	}
	clean, conv := verdicts()
	if len(clean) != 1 || len(conv) != 1 || conv[0].Fields["backend"] != standby.addr {
		t.Fatalf("after rejoin: backend_clean %v, converged %v; want one each for the standby", clean, conv)
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
