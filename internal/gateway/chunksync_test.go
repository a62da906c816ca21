package gateway

// Anti-entropy chunk-sync over real daemons: a standby that rejoined
// with a wiped disk is repaired by pulling the winner's chunk map and
// only the chunks it is missing — the action is counted as "chunks"
// and the transferred bytes are measurably smaller than the snapshot.

import (
	"bytes"
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

// damageChunk loses one chunk of fn outside the loading set from n's
// local tier and returns its digest: it damages the chunk's bytes inside
// its pack, out of band, and has n read it once, which quarantines it.
func damageChunk(t *testing.T, n *daemonNode, fn string) string {
	t.Helper()
	get := func(digest string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		n.h.ServeHTTP(rec, httptest.NewRequest("GET", "/chunks/"+digest, nil))
		return rec
	}
	for _, c := range chunkMap(t, n.url(), fn) {
		if c.LoadingSet {
			continue
		}
		data := get(c.Digest).Body.Bytes()
		packs, _ := filepath.Glob(filepath.Join(n.dir, "cas", "packs", "*.pack"))
		for _, path := range packs {
			raw, err := os.ReadFile(path)
			if i := bytes.Index(raw, data); err == nil && len(data) > 0 && i >= 0 {
				raw[i+len(data)/2] ^= 0xff
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatalf("damage chunk: %v", err)
				}
				if code := get(c.Digest).Code; code != http.StatusInternalServerError {
					t.Fatalf("damaged chunk read = %d, want 500", code)
				}
				return c.Digest
			}
		}
		t.Fatalf("no pack holds chunk %s", c.Digest)
	}
	t.Fatal("chunk map has no chunk outside the loading set")
	return ""
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
	// Base extents are filled on B: the transfer must be real but
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

	// Repair a sibling function from the same base image: most chunks
	// are already on B, so the second sync moves far fewer bytes than
	// the first.
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
	// The standby's store holds both functions with the base image
	// stored once.
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
// snapshot but lost chunk content outside its loading set (a chunk
// damaged in its pack and quarantined on read) reports the deficit as
// chunks_missing in GET /status, and the next anti-entropy pass repairs
// it with a chunk sync — after which the backend serves the digest to
// peers again and the sweep is a no-op.
func TestAntiEntropyRepairsMissingLazyChunks(t *testing.T) {
	t.Parallel()
	a, b := startDaemon(t, daemon.Config{}, ""), startDaemon(t, daemon.Config{}, "")
	g := newTestGateway(t, nil, Config{Replicas: 1, Backends: []string{a.addr, b.addr}})

	const fn = "chunkrepair-alpha"
	provision(t, a, fn)
	if n := sweep(g); n != 2 {
		t.Fatalf("initial resync actions = %d, want 2 (register + chunk-sync)", n)
	}

	// Lose one non-loading-set chunk from B's local tier.
	victim := damageChunk(t, b, fn)
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

	// One repair action: a chunk sync that restores the deficit.
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
	// after a delay, and counts every chunk byte it sends.
	var mu, slow sync.Mutex
	delay := 2500 * time.Millisecond / time.Duration(len(ls))
	var sent int64
	a.front.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dg, ok := strings.CutPrefix(r.URL.Path, "/chunks/")
		if !ok {
			a.h.ServeHTTP(w, r)
			return
		}
		if ls[dg] {
			slow.Lock()
			time.Sleep(delay)
			slow.Unlock()
		}
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
