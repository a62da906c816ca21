package gateway

// Anti-entropy chunk-sync over real daemons: a standby that rejoined
// with a wiped disk is repaired by pulling the winner's chunk map and
// only the chunks it is missing — the action is counted as "chunks"
// and the transferred bytes are measurably smaller than the snapshot.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
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

func startRealDaemon(t *testing.T) (*daemon.Daemon, string) {
	d, _, addr := startRealDaemonDir(t)
	return d, addr
}

// startRealDaemonDir also returns the daemon's state directory, for
// tests that damage durable state out-of-band.
func startRealDaemonDir(t *testing.T) (*daemon.Daemon, string, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := daemon.New(daemon.Config{
		StateDir: dir,
		Logger:   log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() { srv.Close(); d.Close() })
	return d, dir, srv.Listener.Addr().String()
}

func daemonJSON(t *testing.T, method, url string, body, out interface{}) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	}
	return resp.StatusCode
}

func chunkSyncSpec(name string) map[string]interface{} {
	return map[string]interface{}{
		"name": name, "boot_mb": 16, "stable_pages": 128,
		"chunk_mean": 4, "retain_frac": 0.5, "base_ms": 1, "per_kb_us": 2,
		"init_ms": 5,
		"input_a": map[string]interface{}{"bytes": 4096, "data_pages": 8},
		"input_b": map[string]interface{}{"bytes": 16384, "data_pages": 24},
	}
}

// metricValue greps one sample line out of the registry's Prometheus
// exposition; -1 when absent.
func metricValue(t *testing.T, g *Gateway, line string) float64 {
	t.Helper()
	var buf bytes.Buffer
	g.reg.WritePrometheus(&buf)
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, line+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(l, line+" "), 64)
			if err != nil {
				t.Fatalf("parse metric %q: %v", l, err)
			}
			return v
		}
	}
	return -1
}

func TestAntiEntropyChunkSync(t *testing.T) {
	_, addrA := startRealDaemon(t)
	_, addrB := startRealDaemon(t)
	g := newTestGateway(t, Config{Replicas: 1, Backends: []string{addrA, addrB}})

	// Record on A only; B is the wiped-disk standby. With two backends
	// and one replica, both are in every function's replica set.
	const fn = "chunksync-alpha"
	base := "http://" + addrA
	if st := daemonJSON(t, "PUT", base+"/functions/"+fn, chunkSyncSpec(fn), nil); st != http.StatusOK {
		t.Fatalf("register on A = %d", st)
	}
	if st := daemonJSON(t, "POST", base+"/functions/"+fn+"/record",
		map[string]string{"input": "A"}, nil); st != http.StatusOK {
		t.Fatalf("record on A = %d", st)
	}
	var cm struct {
		TotalBytes int64 `json:"total_bytes"`
		LSBytes    int64 `json:"ls_bytes"`
	}
	daemonJSON(t, "GET", base+"/functions/"+fn+"/chunkmap?summary=1", nil, &cm)
	if cm.TotalBytes == 0 || cm.LSBytes >= cm.TotalBytes {
		t.Fatalf("chunk map on A: %+v", cm)
	}

	g.CheckNow()
	if n := g.ResyncNow(); n != 2 {
		t.Fatalf("resync actions = %d, want 2 (register + chunk-sync)", n)
	}

	// The repair rode the chunk plane.
	if v := metricValue(t, g, `faasnap_gw_resync_total{action="chunks",backend="`+addrB+`"}`); v != 1 {
		t.Fatalf(`resync action "chunks" = %v, want 1`, v)
	}
	moved := metricValue(t, g, `faasnap_gw_resync_chunk_bytes_total{backend="`+addrB+`"}`)
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
	if st := daemonJSON(t, "GET", "http://"+addrB+"/functions/"+fn, nil, &info); st != http.StatusOK || !info.HasSnapshot || info.Chunks == 0 {
		t.Fatalf("standby after chunk-sync: status=%d info=%+v", st, info)
	}
	if st := daemonJSON(t, "POST", "http://"+addrB+"/functions/"+fn+"/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil); st != http.StatusOK {
		t.Fatalf("invoke on standby = %d", st)
	}

	// Wait for B's lazy tail, then repair a sibling function from the
	// same base image: most chunks are already on B, so the second sync
	// moves far fewer bytes than the first.
	waitCASDrained(t, "http://"+addrB)
	const sibling = "chunksync-beta"
	if st := daemonJSON(t, "PUT", base+"/functions/"+sibling, chunkSyncSpec(sibling), nil); st != http.StatusOK {
		t.Fatalf("register sibling on A = %d", st)
	}
	if st := daemonJSON(t, "POST", base+"/functions/"+sibling+"/record",
		map[string]string{"input": "A"}, nil); st != http.StatusOK {
		t.Fatalf("record sibling on A = %d", st)
	}
	var cmSib struct {
		TotalBytes int64 `json:"total_bytes"`
	}
	daemonJSON(t, "GET", base+"/functions/"+sibling+"/chunkmap?summary=1", nil, &cmSib)
	g.CheckNow()
	if n := g.ResyncNow(); n != 2 {
		t.Fatalf("sibling resync actions = %d, want 2", n)
	}
	movedBoth := metricValue(t, g, `faasnap_gw_resync_chunk_bytes_total{backend="`+addrB+`"}`)
	delta := movedBoth - moved
	if delta <= 0 || int64(delta)*2 >= cmSib.TotalBytes {
		t.Fatalf("sibling sync moved %v of %d bytes; want a fraction via shared chunks", delta, cmSib.TotalBytes)
	}
	// After the lazy tails drain, the standby's store holds both
	// functions with the base image stored once.
	waitCASDrained(t, "http://"+addrB)
	var cas struct {
		DedupRatio float64 `json:"dedup_ratio"`
	}
	daemonJSON(t, "GET", "http://"+addrB+"/cas", nil, &cas)
	if cas.DedupRatio <= 0.25 {
		t.Fatalf("standby dedup ratio = %v after syncing two shared-base functions", cas.DedupRatio)
	}

	// Converged: the next pass is a no-op.
	g.CheckNow()
	if n := g.ResyncNow(); n != 0 {
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
	_, addrA := startRealDaemon(t)
	_, dirB, addrB := startRealDaemonDir(t)
	g := newTestGateway(t, Config{Replicas: 1, Backends: []string{addrA, addrB}})

	const fn = "chunkrepair-alpha"
	base := "http://" + addrA
	if st := daemonJSON(t, "PUT", base+"/functions/"+fn, chunkSyncSpec(fn), nil); st != http.StatusOK {
		t.Fatalf("register on A = %d", st)
	}
	if st := daemonJSON(t, "POST", base+"/functions/"+fn+"/record",
		map[string]string{"input": "A"}, nil); st != http.StatusOK {
		t.Fatalf("record on A = %d", st)
	}
	g.CheckNow()
	if n := g.ResyncNow(); n != 2 {
		t.Fatalf("initial resync actions = %d, want 2 (register + chunk-sync)", n)
	}
	waitCASDrained(t, "http://"+addrB)

	// Drop one non-loading-set chunk from B's local tier, as a failed
	// lazy fetch would have left it.
	var cmFull struct {
		Chunks []struct {
			Digest     string `json:"digest"`
			LoadingSet bool   `json:"loading_set"`
		} `json:"chunks"`
	}
	daemonJSON(t, "GET", "http://"+addrB+"/functions/"+fn+"/chunkmap", nil, &cmFull)
	victim := ""
	for _, c := range cmFull.Chunks {
		if !c.LoadingSet {
			victim = c.Digest
			break
		}
	}
	if victim == "" {
		t.Fatal("chunk map has no lazy chunks")
	}
	if err := os.Remove(filepath.Join(dirB, "cas", "chunks", victim[:2], victim)); err != nil {
		t.Fatalf("remove chunk file: %v", err)
	}
	if st := daemonJSON(t, "GET", "http://"+addrB+"/chunks/"+victim, nil, nil); st != http.StatusNotFound {
		t.Fatalf("deleted chunk served with %d", st)
	}

	// The deficit is visible in B's status.
	missing := func(addr string) int {
		var mi struct {
			Functions []struct {
				Name          string `json:"name"`
				ChunksMissing int    `json:"chunks_missing"`
			} `json:"functions"`
		}
		daemonJSON(t, "GET", "http://"+addr+"/status", nil, &mi)
		for _, e := range mi.Functions {
			if e.Name == fn {
				return e.ChunksMissing
			}
		}
		return -1
	}
	if n := missing(addrB); n != 1 {
		t.Fatalf("chunks_missing on B = %d, want 1", n)
	}

	// One repair action: an eager chunk sync that restores the deficit.
	g.CheckNow()
	if n := g.ResyncNow(); n != 1 {
		t.Fatalf("repair pass actions = %d, want 1", n)
	}
	if v := metricValue(t, g, `faasnap_gw_resync_total{action="chunks",backend="`+addrB+`"}`); v != 2 {
		t.Fatalf(`resync action "chunks" = %v, want 2 (initial sync + repair)`, v)
	}
	if n := missing(addrB); n != 0 {
		t.Fatalf("chunks_missing on B after repair = %d, want 0", n)
	}
	if st := daemonJSON(t, "GET", "http://"+addrB+"/chunks/"+victim, nil, nil); st != http.StatusOK {
		t.Fatalf("repaired chunk served with %d", st)
	}

	// Converged: the next pass is a no-op.
	g.CheckNow()
	if n := g.ResyncNow(); n != 0 {
		t.Fatalf("converged pass issued %d actions", n)
	}
}

// TestAntiEntropyLeavesLiveTailAlone: a replica whose lazy tail is still
// draining is not a replica with a deficit. With the source's non-
// loading-set chunks held behind a gate, every pass that runs while the
// tail drains reads chunks_pending falling and chunks_missing zero,
// repairs nothing, and the source serves each chunk exactly once.
func TestAntiEntropyLeavesLiveTailAlone(t *testing.T) {
	dA, _ := startRealDaemon(t)
	dB, addrB := startRealDaemon(t)

	// A is reachable only through the gate, so the address the gateway
	// hands B as its sync source is the gate's.
	var mu sync.Mutex
	hold := map[string]bool{}
	served := map[string]int{}
	tokens := make(chan struct{})
	inner := dA.Handler()
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dg, ok := strings.CutPrefix(r.URL.Path, "/chunks/"); ok {
			mu.Lock()
			held := hold[dg]
			mu.Unlock()
			if held {
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
		inner.ServeHTTP(w, r)
	}))
	// On the way out open the gate first: Close waits for held requests.
	defer gate.Close()
	defer close(tokens)
	addrA := gate.Listener.Addr().String()
	g := newTestGateway(t, Config{Replicas: 1, Backends: []string{addrA, addrB}})

	const fn = "livetail-alpha"
	if st := daemonJSON(t, "PUT", gate.URL+"/functions/"+fn, chunkSyncSpec(fn), nil); st != http.StatusOK {
		t.Fatalf("register on A = %d", st)
	}
	if st := daemonJSON(t, "POST", gate.URL+"/functions/"+fn+"/record",
		map[string]string{"input": "A"}, nil); st != http.StatusOK {
		t.Fatalf("record on A = %d", st)
	}
	var cm struct {
		Chunks []struct {
			Digest     string `json:"digest"`
			LoadingSet bool   `json:"loading_set"`
		} `json:"chunks"`
	}
	daemonJSON(t, "GET", gate.URL+"/functions/"+fn+"/chunkmap", nil, &cm)
	mu.Lock()
	for _, c := range cm.Chunks {
		if !c.LoadingSet {
			hold[c.Digest] = true
		}
	}
	tail := len(hold)
	mu.Unlock()
	if tail < 2 {
		t.Fatalf("chunk map has %d lazy chunks; the test needs a tail", tail)
	}

	g.CheckNow()
	if n := g.ResyncNow(); n != 2 {
		t.Fatalf("initial resync actions = %d, want 2 (register + chunk-sync)", n)
	}
	entryB := func() daemon.StatusFunction {
		b := backendAt(g, addrB)
		e, ok := b.view.Load().entry(fn)
		if !ok {
			t.Fatalf("%s missing from B's status", fn)
		}
		return e
	}
	for left := tail; left >= 0; left-- {
		// One token resolves one chunk; sweep until B's status shows it.
		deadline := time.Now().Add(30 * time.Second)
		for {
			g.CheckNow()
			if n := g.ResyncNow(); n != 0 {
				t.Fatalf("pass with %d chunks pending issued %d repairs", left, n)
			}
			e := entryB()
			if e.ChunksMissing != 0 {
				t.Fatalf("live tail reported as missing: %+v", e)
			}
			if e.ChunksPending == left {
				break
			}
			if e.ChunksPending < left || time.Now().After(deadline) {
				t.Fatalf("chunks_pending = %d, want %d", e.ChunksPending, left)
			}
			time.Sleep(time.Millisecond)
		}
		if b := backendAt(g, addrB); b.Stale() {
			t.Fatalf("replica with %d chunks pending and nothing missing is stale", left)
		}
		if left > 0 {
			tokens <- struct{}{}
		}
	}

	if v := metricValue(t, g, `faasnap_gw_resync_total{action="chunks",backend="`+addrB+`"}`); v != 1 {
		t.Fatalf(`resync action "chunks" = %v, want 1 (the initial sync only)`, v)
	}
	for _, e := range g.Events().Since(0, events.Repair, fn) {
		if e.Fields["action"] == "chunks_eager" {
			t.Fatalf("eager repair fired at a live tail: %+v", e)
		}
	}
	if evs := dB.Events().Since(0, events.ManifestDeficit, ""); len(evs) != 0 {
		t.Fatalf("B announced %d deficits while its tail was live", len(evs))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != len(cm.Chunks) {
		t.Fatalf("source served %d distinct chunks, want %d", len(served), len(cm.Chunks))
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
	dA, _ := startRealDaemon(t)
	_, addrB := startRealDaemon(t)

	// A is reachable only through the gate, which serves loading-set
	// chunks one at a time, each after a delay, and counts what it sends. The lazy tail is held until the
	// test ends, so every chunk byte B fetches in the pass is counted.
	var mu, slow sync.Mutex
	ls := map[string]bool{}
	var delay time.Duration
	var sent int64
	release := make(chan struct{})
	inner := dA.Handler()
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dg, ok := strings.CutPrefix(r.URL.Path, "/chunks/")
		if !ok {
			inner.ServeHTTP(w, r)
			return
		}
		mu.Lock()
		eager, d := ls[dg], delay
		mu.Unlock()
		if !eager {
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
			inner.ServeHTTP(w, r)
			return
		}
		slow.Lock()
		time.Sleep(d)
		slow.Unlock()
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		mu.Lock()
		sent += int64(rec.Body.Len())
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	// On the way out open the gate first: Close waits for held requests.
	defer gate.Close()
	defer close(release)
	addrA := gate.Listener.Addr().String()
	g := newTestGateway(t, Config{Replicas: 1, Backends: []string{addrA, addrB}})

	const fn = "bigrepair-alpha"
	if st := daemonJSON(t, "PUT", gate.URL+"/functions/"+fn, chunkSyncSpec(fn), nil); st != http.StatusOK {
		t.Fatalf("register on A = %d", st)
	}
	if st := daemonJSON(t, "POST", gate.URL+"/functions/"+fn+"/record",
		map[string]string{"input": "A"}, nil); st != http.StatusOK {
		t.Fatalf("record on A = %d", st)
	}
	var cm struct {
		Chunks []struct {
			Digest     string `json:"digest"`
			LoadingSet bool   `json:"loading_set"`
		} `json:"chunks"`
	}
	daemonJSON(t, "GET", gate.URL+"/functions/"+fn+"/chunkmap", nil, &cm)
	mu.Lock()
	for _, c := range cm.Chunks {
		if c.LoadingSet {
			ls[c.Digest] = true
		}
	}
	if len(ls) == 0 {
		mu.Unlock()
		t.Fatal("chunk map has no loading set")
	}
	delay = 2500 * time.Millisecond / time.Duration(len(ls))
	mu.Unlock()

	start := time.Now()
	g.CheckNow()
	if n := g.ResyncNow(); n != 2 {
		t.Fatalf("resync actions = %d, want 2 (register + chunk-sync)", n)
	}
	if el := time.Since(start); el <= probeTimeout {
		t.Fatalf("the pass took %v; the gate should hold the sync past the %v probe bound", el, probeTimeout)
	}
	var info struct {
		HasSnapshot bool `json:"has_snapshot"`
	}
	if st := daemonJSON(t, "GET", "http://"+addrB+"/functions/"+fn, nil, &info); st != http.StatusOK || !info.HasSnapshot {
		t.Fatalf("standby after one pass: status=%d info=%+v", st, info)
	}
	if v := metricValue(t, g, `faasnap_gw_resync_total{action="chunks",backend="`+addrB+`"}`); v != 1 {
		t.Fatalf(`resync action "chunks" = %v, want 1`, v)
	}
	mu.Lock()
	fetched := sent
	mu.Unlock()
	if v := metricValue(t, g, `faasnap_gw_resync_chunk_bytes_total{backend="`+addrB+`"}`); fetched == 0 || int64(v) != fetched {
		t.Fatalf("resync chunk bytes = %v, want the %d bytes the standby fetched", v, fetched)
	}
}

// waitCASDrained polls a daemon's /cas until its background lazy
// fetcher owes nothing.
func waitCASDrained(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var cs struct {
			LazyPendingChunks int64 `json:"lazy_pending_chunks"`
		}
		daemonJSON(t, "GET", base+"/cas", nil, &cs)
		if cs.LazyPendingChunks == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("lazy chunk fetch never drained on %s", base)
}
