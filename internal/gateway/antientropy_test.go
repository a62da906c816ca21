package gateway

// Anti-entropy unit tests over scriptable fake backends: staleness
// detection from /manifest generations, repairs (register, chunk
// sync, delete), placement demotion while stale, and recovery to
// full ring weight once manifests converge.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// scriptManifest sets a fake backend's GET /manifest response.
func scriptManifest(f *fakeBackend, digest string, entries ...string) {
	f.manifestJSON.Store(fmt.Sprintf(`{"digest":%q,"recovering":false,"functions":[%s]}`,
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
	addrs := g.pool.ring.Preference(fn, n)
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

	g.pool.CheckNow()
	if n := g.pool.ResyncNow(); n != 2 {
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
	sb, _ := g.pool.backend(standby.addr)
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
	// nothing and restores full ring weight.
	scriptManifest(standby, "d-owner", liveEntry(fn, 2, true, "A"))
	g.pool.CheckNow()
	if n := g.pool.ResyncNow(); n != 0 {
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

	g.pool.CheckNow()
	if n := g.pool.ResyncNow(); n != 0 {
		t.Fatalf("failed sync counted as %d repair actions", n)
	}
	if sy, rec := standby.syncs.Load(), standby.records.Load(); sy != 1 || rec != 0 {
		t.Fatalf("first pass: syncs=%d records=%d, want one sync attempt and no record", sy, rec)
	}
	sb, _ := g.pool.backend(standby.addr)
	if !sb.Stale() {
		t.Fatal("backend whose repair failed is not stale")
	}

	standby.syncFail.Store(false)
	g.pool.CheckNow()
	if n := g.pool.ResyncNow(); n != 1 {
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

	g.pool.CheckNow()
	if n := g.pool.ResyncNow(); n != 1 {
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
	// Backends without /manifest (stateless daemons) are neither repair
	// sources nor targets, and never marked stale.
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, Config{Replicas: 1}, fakes...)

	g.pool.CheckNow()
	if n := g.pool.ResyncNow(); n != 0 {
		t.Fatalf("resync against manifestless backends = %d actions", n)
	}
	for _, f := range fakes {
		b, _ := g.pool.backend(f.addr)
		if b.Stale() {
			t.Fatalf("manifestless backend %s marked stale", f.addr)
		}
		if c := f.creates.Load(); c != 0 {
			t.Fatalf("manifestless backend repaired: %d creates", c)
		}
	}
}

func addrsOf(bs []*Backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Addr
	}
	return out
}
