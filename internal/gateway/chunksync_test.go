package gateway

// Anti-entropy chunk-sync over real daemons: a standby that rejoined
// with a wiped disk is repaired by pulling the winner's chunk map and
// only the chunks it is missing — the action is counted as "chunks"
// and the transferred bytes are measurably smaller than the snapshot.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"faasnap/internal/daemon"
	"faasnap/internal/events"
)

// provision registers fn on n as a small custom function and records
// it with input A.
func provision(t *testing.T, n *daemonNode, fn string) {
	t.Helper()
	spec := map[string]interface{}{
		"name": fn, "boot_mb": 16, "stable_pages": 128,
		"chunk_mean": 4, "retain_frac": 0.5, "base_ms": 1, "per_kb_us": 2,
		"init_ms": 5,
		"input_a": map[string]interface{}{"bytes": 4096, "data_pages": 8},
		"input_b": map[string]interface{}{"bytes": 16384, "data_pages": 24},
	}
	if st := call(t, nil, "PUT", n.url()+"/functions/"+fn, spec, nil).StatusCode; st != http.StatusOK {
		t.Fatalf("register %s on %s = %d", fn, n.addr, st)
	}
	if st := call(t, nil, "POST", n.url()+"/functions/"+fn+"/record", map[string]string{"input": "A"}, nil).StatusCode; st != http.StatusOK {
		t.Fatalf("record %s on %s = %d", fn, n.addr, st)
	}
}

type chunkRef struct {
	Digest     string `json:"digest"`
	LoadingSet bool   `json:"loading_set"`
}

// chunkMap is fn's chunk map on the daemon at base.
func chunkMap(t *testing.T, base, fn string) []chunkRef {
	t.Helper()
	var cm struct {
		Chunks []chunkRef `json:"chunks"`
	}
	call(t, nil, "GET", base+"/functions/"+fn+"/chunkmap", nil, &cm)
	return cm.Chunks
}

// dropLazyChunk deletes one chunk of fn outside the loading set from
// n's local tier, out of band, as a failed lazy fetch leaves it, and
// returns its digest.
func dropLazyChunk(t *testing.T, n *daemonNode, fn string) string {
	t.Helper()
	for _, c := range chunkMap(t, n.url(), fn) {
		if !c.LoadingSet {
			if err := os.Remove(filepath.Join(n.dir, "cas", "chunks", c.Digest[:2], c.Digest)); err != nil {
				t.Fatalf("remove chunk file: %v", err)
			}
			return c.Digest
		}
	}
	t.Fatal("chunk map has no lazy chunks")
	return ""
}

// casDrained is whether n's background lazy fetcher owes nothing.
func casDrained(t *testing.T, n *daemonNode) func() bool {
	return func() bool {
		var cs struct {
			LazyPendingChunks int64 `json:"lazy_pending_chunks"`
		}
		call(t, nil, "GET", n.url()+"/cas", nil, &cs)
		return cs.LazyPendingChunks == 0
	}
}

// metricValue greps one sample line out of the registry's Prometheus
// exposition; -1 when absent.
func metricValue(t *testing.T, g *Gateway, line string) float64 {
	t.Helper()
	for _, l := range strings.Split(gwScrape(g), "\n") {
		if v, ok := strings.CutPrefix(l, line+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("parse metric %q: %v", l, err)
			}
			return f
		}
	}
	return -1
}

func TestAntiEntropyChunkSync(t *testing.T) {
	t.Parallel()
	a, b := startDaemon(t, daemon.Config{}, ""), startDaemon(t, daemon.Config{}, "")
	g := newTestGateway(t, nil, Config{Replicas: 1, Backends: []string{a.addr, b.addr}})

	// Record on A only; B is the wiped-disk standby. With two backends
	// and one replica, both are in every function's replica set.
	const fn = "chunksync-alpha"
	provision(t, a, fn)
	var cm struct {
		TotalBytes int64 `json:"total_bytes"`
		LSBytes    int64 `json:"ls_bytes"`
	}
	call(t, nil, "GET", a.url()+"/functions/"+fn+"/chunkmap?summary=1", nil, &cm)
	if cm.TotalBytes == 0 || cm.LSBytes >= cm.TotalBytes {
		t.Fatalf("chunk map on A: %+v", cm)
	}

	if n := sweep(g); n != 2 {
		t.Fatalf("resync actions = %d, want 2 (register + chunk-sync)", n)
	}

	// The repair rode the chunk plane.
	if v := metricValue(t, g, `faasnap_gw_resync_total{action="chunks",backend="`+b.addr+`"}`); v != 1 {
		t.Fatalf(`resync action "chunks" = %v, want 1`, v)
	}
	moved := metricValue(t, g, `faasnap_gw_resync_chunk_bytes_total{backend="`+b.addr+`"}`)
	// Only the loading set moves eagerly: the transfer must be real but
	// measurably smaller than the whole snapshot's chunk payload.
	if moved <= 0 || int64(moved) >= cm.TotalBytes {
		t.Fatalf("chunk-sync moved %v bytes of a %d-byte snapshot; want 0 < moved < total", moved, cm.TotalBytes)
	}

	// B serves the function it never recorded.
	var info struct {
		HasSnapshot bool `json:"has_snapshot"`
		Chunks      int  `json:"chunks"`
	}
	if st := call(t, nil, "GET", b.url()+"/functions/"+fn, nil, &info).StatusCode; st != http.StatusOK || !info.HasSnapshot || info.Chunks == 0 {
		t.Fatalf("standby after chunk-sync: status=%d info=%+v", st, info)
	}
	if st := call(t, nil, "POST", b.url()+"/functions/"+fn+"/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil).StatusCode; st != http.StatusOK {
		t.Fatalf("invoke on standby = %d", st)
	}

	// Wait for B's lazy tail, then repair a sibling function from the
	// same base image: most chunks are already on B, so the second sync
	// moves far fewer bytes than the first.
	waitFor(t, "B's lazy tail never drained", casDrained(t, b))
	const sibling = "chunksync-beta"
	provision(t, a, sibling)
	var cmSib struct {
		TotalBytes int64 `json:"total_bytes"`
	}
	call(t, nil, "GET", a.url()+"/functions/"+sibling+"/chunkmap?summary=1", nil, &cmSib)
	if n := sweep(g); n != 2 {
		t.Fatalf("sibling resync actions = %d, want 2", n)
	}
	movedBoth := metricValue(t, g, `faasnap_gw_resync_chunk_bytes_total{backend="`+b.addr+`"}`)
	delta := movedBoth - moved
	if delta <= 0 || int64(delta)*2 >= cmSib.TotalBytes {
		t.Fatalf("sibling sync moved %v of %d bytes; want a fraction via shared chunks", delta, cmSib.TotalBytes)
	}
	// After the lazy tails drain, the standby's store holds both
	// functions with the base image stored once.
	waitFor(t, "B's lazy tail never drained", casDrained(t, b))
	var cas struct {
		DedupRatio float64 `json:"dedup_ratio"`
	}
	call(t, nil, "GET", b.url()+"/cas", nil, &cas)
	if cas.DedupRatio <= 0.25 {
		t.Fatalf("standby dedup ratio = %v after syncing two shared-base functions", cas.DedupRatio)
	}

	// Converged: the next pass is a no-op.
	if n := sweep(g); n != 0 {
		t.Fatalf("converged pass issued %d actions", n)
	}
}

// TestAntiEntropyRepairsMissingLazyChunks: a backend that has the
// snapshot but lost chunk content (a lazy tail its background fetcher
// abandoned, simulated here by deleting a chunk file out-of-band)
// reports the deficit as chunks_missing in GET /status, and the next
// anti-entropy pass repairs it with an eager chunk sync — after which
// the backend serves the digest to peers again and the sweep is a
// no-op.
func TestAntiEntropyRepairsMissingLazyChunks(t *testing.T) {
	t.Parallel()
	a, b := startDaemon(t, daemon.Config{}, ""), startDaemon(t, daemon.Config{}, "")
	g := newTestGateway(t, nil, Config{Replicas: 1, Backends: []string{a.addr, b.addr}})

	const fn = "chunkrepair-alpha"
	provision(t, a, fn)
	if n := sweep(g); n != 2 {
		t.Fatalf("initial resync actions = %d, want 2 (register + chunk-sync)", n)
	}
	waitFor(t, "B's lazy tail never drained", casDrained(t, b))

	// Drop one non-loading-set chunk from B's local tier, as a failed
	// lazy fetch would have left it.
	victim := dropLazyChunk(t, b, fn)
	if st := call(t, nil, "GET", b.url()+"/chunks/"+victim, nil, nil).StatusCode; st != http.StatusNotFound {
		t.Fatalf("deleted chunk served with %d", st)
	}

	// The deficit is visible in B's status.
	missing := func() int {
		var st daemon.StatusResponse
		call(t, nil, "GET", b.url()+"/status", nil, &st)
		for _, e := range st.Functions {
			if e.Name == fn {
				return e.ChunksMissing
			}
		}
		return -1
	}
	if n := missing(); n != 1 {
		t.Fatalf("chunks_missing on B = %d, want 1", n)
	}

	// One repair action: an eager chunk sync that restores the deficit.
	if n := sweep(g); n != 1 {
		t.Fatalf("repair pass actions = %d, want 1", n)
	}
	if v := metricValue(t, g, `faasnap_gw_resync_total{action="chunks",backend="`+b.addr+`"}`); v != 2 {
		t.Fatalf(`resync action "chunks" = %v, want 2 (initial sync + repair)`, v)
	}
	if n := missing(); n != 0 {
		t.Fatalf("chunks_missing on B after repair = %d, want 0", n)
	}
	if st := call(t, nil, "GET", b.url()+"/chunks/"+victim, nil, nil).StatusCode; st != http.StatusOK {
		t.Fatalf("repaired chunk served with %d", st)
	}

	// Converged: the next pass is a no-op.
	if n := sweep(g); n != 0 {
		t.Fatalf("converged pass issued %d actions", n)
	}
}

// TestAntiEntropyLeavesLiveTailAlone: a replica whose lazy tail is still
// draining is not a replica with a deficit. With the source's non-
// loading-set chunks held behind a gate, every pass that runs while the
// tail drains reads chunks_pending falling and chunks_missing zero,
// repairs nothing, and the source serves each chunk exactly once.
func TestAntiEntropyLeavesLiveTailAlone(t *testing.T) {
	t.Parallel()
	a, b := startDaemon(t, daemon.Config{}, ""), startDaemon(t, daemon.Config{}, "")
	g := newTestGateway(t, nil, Config{Replicas: 1, Backends: []string{a.addr, b.addr}})
	const fn = "livetail-alpha"
	provision(t, a, fn)
	chunks := chunkMap(t, a.url(), fn)

	// A's non-loading-set chunks are held at a gate in front of it, one
	// released per token.
	var mu sync.Mutex
	hold := map[string]bool{}
	served := map[string]int{}
	tokens := make(chan struct{})
	for _, c := range chunks {
		hold[c.Digest] = !c.LoadingSet
	}
	a.front.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dg, ok := strings.CutPrefix(r.URL.Path, "/chunks/"); ok {
			if hold[dg] {
				select {
				case <-tokens:
				case <-r.Context().Done():
					return
				}
			}
			mu.Lock()
			served[dg]++
			mu.Unlock()
		}
		a.h.ServeHTTP(w, r)
	}))
	// On the way out open the gate first: the cleanups wait for held
	// requests.
	defer close(tokens)
	tail := 0
	for _, held := range hold {
		if held {
			tail++
		}
	}
	if tail < 2 {
		t.Fatalf("chunk map has %d lazy chunks; the test needs a tail", tail)
	}

	if n := sweep(g); n != 2 {
		t.Fatalf("initial resync actions = %d, want 2 (register + chunk-sync)", n)
	}
	for left := tail; left >= 0; left-- {
		// One token resolves one chunk; sweep until B's status shows it.
		waitFor(t, "chunks_pending never fell to "+strconv.Itoa(left), func() bool {
			if n := sweep(g); n != 0 {
				t.Fatalf("pass with %d chunks pending issued %d repairs", left, n)
			}
			e, ok := backendAt(g, b.addr).view.Load().entry(fn)
			if !ok {
				t.Fatalf("%s missing from B's status", fn)
			}
			if e.ChunksMissing != 0 {
				t.Fatalf("live tail reported as missing: %+v", e)
			}
			if e.ChunksPending < left {
				t.Fatalf("chunks_pending = %d, want %d", e.ChunksPending, left)
			}
			return e.ChunksPending == left
		})
		if backendAt(g, b.addr).Stale() {
			t.Fatalf("replica with %d chunks pending and nothing missing is stale", left)
		}
		if left > 0 {
			tokens <- struct{}{}
		}
	}

	if v := metricValue(t, g, `faasnap_gw_resync_total{action="chunks",backend="`+b.addr+`"}`); v != 1 {
		t.Fatalf(`resync action "chunks" = %v, want 1 (the initial sync only)`, v)
	}
	for _, e := range g.Events().Since(0, events.Repair, fn) {
		if e.Fields["action"] == "chunks_eager" {
			t.Fatalf("eager repair fired at a live tail: %+v", e)
		}
	}
	if evs := b.d.Events().Since(0, events.ManifestDeficit, ""); len(evs) != 0 {
		t.Fatalf("B announced %d deficits while its tail was live", len(evs))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != len(chunks) {
		t.Fatalf("source served %d distinct chunks, want %d", len(served), len(chunks))
	}
	for dg, n := range served {
		if n != 1 {
			t.Fatalf("source served chunk %s %d times, want once", dg[:8], n)
		}
	}
}

// TestAntiEntropyRepairOutlastsProbeBound: a repair carries the request
// deadline, not the status probe's. With the source serving its
// loading-set chunks one at a time, each held so the sync takes ~2.5 s
// however many the standby asks for at once, one pass repairs the wiped
// standby, counts the repair once, and counts every byte the standby
// fetched.
func TestAntiEntropyRepairOutlastsProbeBound(t *testing.T) {
	t.Parallel()
	a, b := startDaemon(t, daemon.Config{}, ""), startDaemon(t, daemon.Config{}, "")
	g := newTestGateway(t, nil, Config{Replicas: 1, Backends: []string{a.addr, b.addr}})
	const fn = "bigrepair-alpha"
	provision(t, a, fn)
	ls := map[string]bool{}
	for _, c := range chunkMap(t, a.url(), fn) {
		if c.LoadingSet {
			ls[c.Digest] = true
		}
	}
	if len(ls) == 0 {
		t.Fatal("chunk map has no loading set")
	}

	// A gate in front of A serves loading-set chunks one at a time, each
	// after a delay, and counts what it sends. The lazy tail is held until
	// the test ends, so every chunk byte B fetches in the pass is counted.
	var mu, slow sync.Mutex
	delay := 2500 * time.Millisecond / time.Duration(len(ls))
	var sent int64
	release := make(chan struct{})
	a.front.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dg, ok := strings.CutPrefix(r.URL.Path, "/chunks/")
		if !ok {
			a.h.ServeHTTP(w, r)
			return
		}
		if !ls[dg] {
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
			a.h.ServeHTTP(w, r)
			return
		}
		slow.Lock()
		time.Sleep(delay)
		slow.Unlock()
		rec := httptest.NewRecorder()
		a.h.ServeHTTP(rec, r)
		mu.Lock()
		sent += int64(rec.Body.Len())
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	// On the way out open the gate first: the cleanups wait for held
	// requests.
	defer close(release)

	start := time.Now()
	if n := sweep(g); n != 2 {
		t.Fatalf("resync actions = %d, want 2 (register + chunk-sync)", n)
	}
	if el := time.Since(start); el <= probeTimeout {
		t.Fatalf("the pass took %v; the gate should hold the sync past the %v probe bound", el, probeTimeout)
	}
	var info struct {
		HasSnapshot bool `json:"has_snapshot"`
	}
	if st := call(t, nil, "GET", b.url()+"/functions/"+fn, nil, &info).StatusCode; st != http.StatusOK || !info.HasSnapshot {
		t.Fatalf("standby after one pass: status=%d info=%+v", st, info)
	}
	if v := metricValue(t, g, `faasnap_gw_resync_total{action="chunks",backend="`+b.addr+`"}`); v != 1 {
		t.Fatalf(`resync action "chunks" = %v, want 1`, v)
	}
	mu.Lock()
	fetched := sent
	mu.Unlock()
	if v := metricValue(t, g, `faasnap_gw_resync_chunk_bytes_total{backend="`+b.addr+`"}`); fetched == 0 || int64(v) != fetched {
		t.Fatalf("resync chunk bytes = %v, want the %d bytes the standby fetched", v, fetched)
	}
}
