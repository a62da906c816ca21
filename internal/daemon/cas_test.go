package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"faasnap/internal/events"
)

// customSpec is a small custom function spec booting a bootMB image:
// specs of one bootMB share their base image, so their boot chunks
// dedup. At 16 it records in milliseconds; at 24 its recording is about
// 24 MB of chunks.
func customSpec(name string, bootMB int) map[string]interface{} {
	return map[string]interface{}{
		"name": name, "boot_mb": bootMB, "stable_pages": 128,
		"chunk_mean": 4, "retain_frac": 0.5, "base_ms": 1, "per_kb_us": 2,
		"init_ms": 5,
		"input_a": map[string]interface{}{"bytes": 4096, "data_pages": 8},
		"input_b": map[string]interface{}{"bytes": 16384, "data_pages": 24},
	}
}

func casProvision(t *testing.T, srv *httptest.Server, name string) {
	t.Helper()
	if resp := doJSON(t, "PUT", srv.URL+"/functions/"+name, customSpec(name, 16), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s = %d", name, resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv.URL+"/functions/"+name+"/record",
		map[string]string{"input": "A"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("record %s = %d", name, resp.StatusCode)
	}
}

func casInvoke(t *testing.T, srv *httptest.Server, name string) {
	t.Helper()
	resp := doJSON(t, "POST", srv.URL+"/functions/"+name+"/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke %s = %d", name, resp.StatusCode)
	}
}

// hostport strips the scheme from an httptest server URL, yielding the
// address form the sync API takes.
func hostport(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

// lazyDrained is whether srv's background lazy fetcher owes nothing.
func lazyDrained(t *testing.T, srv *httptest.Server) func() bool {
	return func() bool {
		var cs CASResponse
		doJSON(t, "GET", srv.URL+"/cas", nil, &cs)
		return cs.LazyPendingChunks == 0
	}
}

func TestCASDedupAcrossFunctions(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha")

	var solo CASResponse
	doJSON(t, "GET", srv.URL+"/cas", nil, &solo)
	if solo.LogicalBytes <= 0 || solo.Stats.LocalChunks == 0 {
		t.Fatalf("after one record: %+v", solo)
	}

	casProvision(t, srv, "cas-beta")
	var both CASResponse
	doJSON(t, "GET", srv.URL+"/cas", nil, &both)
	if both.LogicalBytes <= solo.LogicalBytes {
		t.Fatalf("logical bytes did not grow: %d -> %d", solo.LogicalBytes, both.LogicalBytes)
	}
	// Two functions from the same base image must share the majority of
	// their content: the store stays well below 2x a single snapshot.
	if phys := both.Stats.PhysicalBytes(); phys >= solo.LogicalBytes*17/10 {
		t.Fatalf("store holds %d bytes for two snapshots of %d each — dedup not real", phys, solo.LogicalBytes)
	}
	if both.DedupRatio <= 0.25 {
		t.Fatalf("dedup ratio = %v, want > 0.25 for shared-base functions", both.DedupRatio)
	}

	var info FunctionInfo
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha", nil, &info)
	if info.Chunks == 0 || info.ChunkBytes == 0 {
		t.Fatalf("function info carries no chunk map: %+v", info)
	}
}

func TestCASChunkEndpoints(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha")

	var sum ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap?summary=1", nil, &sum)
	if sum.ChunkCount == 0 || sum.Chunks != nil || sum.Snapfile != nil {
		t.Fatalf("summary chunkmap = %+v", sum)
	}
	var full ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap", nil, &full)
	if len(full.Chunks) != full.ChunkCount || len(full.Snapfile) == 0 {
		t.Fatalf("full chunkmap: %d refs of %d, %d snapfile bytes",
			len(full.Chunks), full.ChunkCount, len(full.Snapfile))
	}

	// A chunk round-trips and hashes to its digest.
	ref := full.Chunks[0]
	resp := doJSON(t, "GET", srv.URL+"/chunks/"+ref.Digest, nil, nil)
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk get = %d", resp.StatusCode)
	}
	if resp.ContentLength != ref.Bytes || len(data) != int(ref.Bytes) || resp.TransferEncoding != nil {
		t.Fatalf("chunk reply: Content-Length %d, %d bytes, transfer encoding %q; want %d bytes, declared",
			resp.ContentLength, len(data), resp.TransferEncoding, ref.Bytes)
	}
	if got := hex.EncodeToString(func() []byte { s := sha256.Sum256(data); return s[:] }()); got != ref.Digest {
		t.Fatalf("chunk bytes hash to %s, addressed as %s", got, ref.Digest)
	}
	if tier := resp.Header.Get("X-Faasnap-Chunk-Tier"); tier != "local" {
		t.Fatalf("chunk tier = %q, want local", tier)
	}

	if resp := doJSON(t, "GET", srv.URL+"/chunks/not-a-digest", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad digest = %d, want 400", resp.StatusCode)
	}
	missing := strings.Repeat("00", 32)
	if resp := doJSON(t, "GET", srv.URL+"/chunks/"+missing, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing digest = %d, want 404", resp.StatusCode)
	}
}

func TestCASCorruptChunkQuarantined(t *testing.T) {
	state := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: state})
	casProvision(t, srv, "cas-alpha")

	var full ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap", nil, &full)
	hexd := full.Chunks[0].Digest
	path := filepath.Join(state, "cas", "chunks", hexd[:2], hexd)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// First read detects the damage and quarantines; the chunk is never
	// served corrupt and later reads answer 404.
	if resp := doJSON(t, "GET", srv.URL+"/chunks/"+hexd, nil, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt chunk = %d, want 500", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", srv.URL+"/chunks/"+hexd, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("quarantined chunk = %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(state, "quarantine", "chunk-"+hexd)); err != nil {
		t.Fatalf("corrupt chunk not quarantined: %v", err)
	}
}

// TestCASSyncThreeDaemons is the cross-host restore e2e: A records, B
// restores from A without ever recording, C restores from B — and a
// second function from the same base image syncs at a fraction of its
// bytes because the shared chunks are already present.
func TestCASSyncThreeDaemons(t *testing.T) {
	_, srvA := newTestDaemon(t, Config{StateDir: t.TempDir()})
	_, srvB := newTestDaemon(t, Config{StateDir: t.TempDir()})
	_, srvC := newTestDaemon(t, Config{StateDir: t.TempDir()})

	casProvision(t, srvA, "cas-alpha")

	// B pulls alpha from A. Only the loading set moves eagerly; the
	// lazy tail must leave the reply's transfer strictly smaller than
	// the full snapshot.
	var sync SyncResponse
	if resp := doJSON(t, "POST", srvB.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(srvA)}, &sync); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync B<-A = %d", resp.StatusCode)
	}
	if sync.ChunksFetched == 0 || sync.ChunksLazy == 0 {
		t.Fatalf("sync fetched %d eagerly, deferred %d; want both > 0: %+v",
			sync.ChunksFetched, sync.ChunksLazy, sync)
	}
	if sync.BytesFetched >= sync.BytesTotal {
		t.Fatalf("lazy restore transferred %d of %d bytes — nothing deferred", sync.BytesFetched, sync.BytesTotal)
	}
	// The function serves immediately from its loading set.
	casInvoke(t, srvB, "cas-alpha")
	var info FunctionInfo
	doJSON(t, "GET", srvB.URL+"/functions/cas-alpha", nil, &info)
	if !info.HasSnapshot || info.Chunks == 0 {
		t.Fatalf("synced function info = %+v", info)
	}
	waitFor(t, "lazy chunk fetch never drained", lazyDrained(t, srvB))

	var casB CASResponse
	doJSON(t, "GET", srvB.URL+"/cas", nil, &casB)
	if casB.RestoreBytesSaved <= 0 {
		t.Fatalf("restore saved %d bytes, want > 0", casB.RestoreBytesSaved)
	}

	// C restores from B — a host that never recorded the function.
	var syncC SyncResponse
	if resp := doJSON(t, "POST", srvC.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(srvB)}, &syncC); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync C<-B = %d", resp.StatusCode)
	}
	casInvoke(t, srvC, "cas-alpha")
	waitFor(t, "lazy chunk fetch never drained", lazyDrained(t, srvC))

	// A sibling from the same base image: most of its chunks are
	// already on B, so the transfer is a fraction of the snapshot.
	casProvision(t, srvA, "cas-beta")
	var syncBeta SyncResponse
	if resp := doJSON(t, "POST", srvB.URL+"/functions/cas-beta/sync",
		map[string]interface{}{"source": hostport(srvA), "eager": true}, &syncBeta); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync beta B<-A = %d", resp.StatusCode)
	}
	if syncBeta.ChunksPresent == 0 {
		t.Fatalf("no dedup on sibling sync: %+v", syncBeta)
	}
	if syncBeta.BytesFetched*2 >= syncBeta.BytesTotal {
		t.Fatalf("sibling sync moved %d of %d bytes; want < half via shared chunks", syncBeta.BytesFetched, syncBeta.BytesTotal)
	}
	casInvoke(t, srvB, "cas-beta")
}

func TestCASSyncRejectsBadSource(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	if resp := doJSON(t, "POST", srv.URL+"/functions/x/sync",
		map[string]interface{}{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sync without source = %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv.URL+"/functions/x/sync",
		map[string]interface{}{"source": "127.0.0.1:1"}, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("sync from dead source = %d, want 502", resp.StatusCode)
	}
	// Stateless daemons have no chunk plane at all.
	_, stateless := newTestDaemon(t, Config{})
	if resp := doJSON(t, "POST", stateless.URL+"/functions/x/sync",
		map[string]interface{}{"source": "127.0.0.1:1"}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stateless sync = %d, want 409", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", stateless.URL+"/cas", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stateless /cas = %d, want 404", resp.StatusCode)
	}
}

// TestCASGCHonorsTombstones: deleting a function frees its private
// chunks on the next sweep, keeps chunks shared with live functions,
// and an empty registry empties the store.
func TestCASGCHonorsTombstones(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha")
	casProvision(t, srv, "cas-beta")

	if resp := doJSON(t, "DELETE", srv.URL+"/functions/cas-beta", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	var gc GCResponse
	if resp := doJSON(t, "POST", srv.URL+"/gc", map[string]interface{}{}, &gc); resp.StatusCode != http.StatusOK {
		t.Fatalf("gc = %d", resp.StatusCode)
	}
	if gc.Removed == 0 {
		t.Fatal("delete freed no chunks")
	}
	if gc.Kept == 0 {
		t.Fatal("gc removed the survivor's chunks")
	}
	// The survivor still serves.
	casInvoke(t, srv, "cas-alpha")

	if resp := doJSON(t, "DELETE", srv.URL+"/functions/cas-alpha", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	doJSON(t, "POST", srv.URL+"/gc", map[string]interface{}{}, &gc)
	if gc.Stats.LocalChunks != 0 || gc.Stats.ColdChunks != 0 {
		t.Fatalf("empty registry left chunks behind: %+v", gc.Stats)
	}
}

// TestCASGCDemote: live chunks outside every loading set move to the
// compressed cold tier and still serve (with the cold tier's modeled
// latency) through the chunk API.
func TestCASGCDemote(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha")

	var full ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap", nil, &full)
	var coldDigest string
	for _, ref := range full.Chunks {
		if !ref.LoadingSet {
			coldDigest = ref.Digest
			break
		}
	}
	if coldDigest == "" {
		t.Fatal("every chunk is in the loading set; spec too small to test demotion")
	}

	var gc GCResponse
	if resp := doJSON(t, "POST", srv.URL+"/gc", map[string]interface{}{"demote": true}, &gc); resp.StatusCode != http.StatusOK {
		t.Fatalf("gc demote = %d", resp.StatusCode)
	}
	if gc.Demoted == 0 || gc.Stats.ColdChunks == 0 {
		t.Fatalf("nothing demoted: %+v", gc)
	}
	resp := doJSON(t, "GET", srv.URL+"/chunks/"+coldDigest, nil, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Faasnap-Chunk-Tier") != "cold" {
		t.Fatalf("demoted chunk get = %d tier=%q, want 200 from cold", resp.StatusCode, resp.Header.Get("X-Faasnap-Chunk-Tier"))
	}
}

// TestCASRecoveryKeepsChunks: a restart over the same state dir
// reloads chunk maps and keeps every referenced chunk through the
// recovery sweep.
func TestCASRecoveryKeepsChunks(t *testing.T) {
	state := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: state})
	casProvision(t, srv, "cas-alpha")
	var before CASResponse
	doJSON(t, "GET", srv.URL+"/cas", nil, &before)
	srv.Close()

	_, srv2 := newTestDaemon(t, Config{StateDir: state})
	var info FunctionInfo
	doJSON(t, "GET", srv2.URL+"/functions/cas-alpha", nil, &info)
	if !info.HasSnapshot || info.Chunks == 0 {
		t.Fatalf("recovered function lost its chunk map: %+v", info)
	}
	var after CASResponse
	doJSON(t, "GET", srv2.URL+"/cas", nil, &after)
	if after.Stats.LocalChunks != before.Stats.LocalChunks {
		t.Fatalf("recovery changed chunk count: %d -> %d", before.Stats.LocalChunks, after.Stats.LocalChunks)
	}
	casInvoke(t, srv2, "cas-alpha")
}

// statusOf returns name's entry in srv's GET /status.
func statusOf(t *testing.T, srv *httptest.Server, name string) StatusFunction {
	t.Helper()
	var st StatusResponse
	if resp := doJSON(t, "GET", srv.URL+"/status", nil, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, f := range st.Functions {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("%s not in status: %+v", name, st.Functions)
	return StatusFunction{}
}

// TestCASSyncAdoptsSourceGeneration: a sync journals the generation of
// what it copied instead of minting one — however often it runs, the
// copy never outranks its source — and the adopted entry survives a
// restart.
func TestCASSyncAdoptsSourceGeneration(t *testing.T) {
	_, src := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, src, "cas-alpha")
	dir := t.TempDir()
	_, dst := newTestDaemon(t, Config{StateDir: dir})
	syncBody := map[string]interface{}{"source": hostport(src), "eager": true}
	syncOnce := func(to *httptest.Server) {
		t.Helper()
		if resp := doJSON(t, "POST", to.URL+"/functions/cas-alpha/sync", syncBody, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("sync = %d", resp.StatusCode)
		}
	}

	want := statusOf(t, src, "cas-alpha").Generation
	if want != 2 {
		t.Fatalf("source generation = %d, want 2 (register, record)", want)
	}
	for round := 1; round <= 2; round++ {
		syncOnce(dst)
		if got := statusOf(t, dst, "cas-alpha"); got.Generation != want || !got.HasSnapshot || got.RecordInput != "A" {
			t.Fatalf("sync %d: target entry = %+v, want the source's generation %d with its snapshot", round, got, want)
		}
	}

	// The source re-records; the next sync moves the copy to the new
	// version, and a restart replays the adopted entry as journaled.
	if resp := doJSON(t, "POST", src.URL+"/functions/cas-alpha/record",
		map[string]string{"input": "B"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-record = %d", resp.StatusCode)
	}
	syncOnce(dst)
	if got := statusOf(t, dst, "cas-alpha"); got.Generation != 3 || got.RecordInput != "B" {
		t.Fatalf("after re-record: target entry = %+v, want generation 3 input B", got)
	}
	dst.Close()
	_, dst2 := newTestDaemon(t, Config{StateDir: dir})
	if got := statusOf(t, dst2, "cas-alpha"); got.Generation != 3 || !got.HasSnapshot || got.Spec == "" {
		t.Fatalf("after restart: target entry = %+v, want generation 3 with snapshot and spec", got)
	}
	casInvoke(t, dst2, "cas-alpha")
}

// gatedSource fronts a daemon and holds GET /chunks/{digest} for the
// digests in hold until a token arrives, counting every chunk it
// serves: a peer whose lazy tail drains one chunk per token.
type gatedSource struct {
	srv    *httptest.Server
	tokens chan struct{}
	mu     sync.Mutex
	served map[string]int
	parked int // requests that have reached the gate, released or not
}

func newGatedSource(t *testing.T, h http.Handler, hold map[string]bool) *gatedSource {
	t.Helper()
	g := &gatedSource{tokens: make(chan struct{}), served: make(map[string]int)}
	g.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dg, ok := strings.CutPrefix(r.URL.Path, "/chunks/"); ok {
			if hold[dg] {
				g.mu.Lock()
				g.parked++
				g.mu.Unlock()
				select {
				case <-g.tokens:
				case <-r.Context().Done():
					return
				}
			}
			g.mu.Lock()
			g.served[dg]++
			g.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { g.open(); g.srv.Close() })
	return g
}

// open releases every held and future chunk request.
func (g *gatedSource) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.tokens:
	default:
		close(g.tokens)
	}
}

// waitParked returns once n held requests have reached the gate. A lazy
// fetcher issues one request at a time and an eager sync a window of
// them, so with the gate shut the n-th arrival tells how far the
// daemon's syncs have got.
func (g *gatedSource) waitParked(t *testing.T, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("fewer than %d requests reached the gate", n), func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.parked >= n
	})
}

// assertServedOnce fails unless every chunk the source served, it
// served exactly once, n of them in total.
func (g *gatedSource) assertServedOnce(t *testing.T, n int) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.served) != n {
		t.Fatalf("source served %d distinct chunks, want %d", len(g.served), n)
	}
	for dg, c := range g.served {
		if c != 1 {
			t.Fatalf("source served chunk %s %d times, want once", dg[:8], c)
		}
	}
}

// lazyDigests returns the non-loading-set digests of name's chunk map.
func lazyDigests(t *testing.T, srv *httptest.Server, name string) (lazy map[string]bool, total int) {
	t.Helper()
	var cm ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/"+name+"/chunkmap", nil, &cm)
	lazy = make(map[string]bool)
	for _, c := range cm.Chunks {
		if !c.LoadingSet {
			lazy[c.Digest] = true
		}
	}
	if len(lazy) < 2 {
		t.Fatalf("chunk map has %d lazy chunks; the test needs a tail", len(lazy))
	}
	return lazy, len(cm.Chunks)
}

// TestCASLazyTailPendingIsNotMissing: while a lazy tail drains, GET
// /status reports what it still owes as chunks_pending — falling to
// zero one resolved chunk at a time — never as chunks_missing, and
// reading it appends nothing to the ledger.
func TestCASLazyTailPendingIsNotMissing(t *testing.T) {
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	lazy, total := lazyDigests(t, a, "cas-alpha")
	// b before the gate: cleanups run last-in first-out, and b's Close
	// waits for a fetcher the gate may still be holding.
	d, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	src := newGatedSource(t, a.Config.Handler, lazy)

	var sr SyncResponse
	if resp := doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(src.srv)}, &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("lazy sync = %d", resp.StatusCode)
	}
	if sr.ChunksLazy != len(lazy) {
		t.Fatalf("sync deferred %d chunks, want the %d lazy ones", sr.ChunksLazy, len(lazy))
	}
	for left := len(lazy); ; left-- {
		// Each token resolves exactly one chunk; poll until the fetcher
		// has booked it.
		waitFor(t, fmt.Sprintf("chunks_pending never fell to %d", left), func() bool {
			st := statusOf(t, b, "cas-alpha")
			if st.ChunksMissing != 0 || st.DeficitSeq != 0 {
				t.Fatalf("live tail reported as a deficit: %+v", st)
			}
			if st.ChunksPending < left {
				t.Fatalf("chunks_pending = %d, want %d", st.ChunksPending, left)
			}
			return st.ChunksPending == left
		})
		if left == 0 {
			break
		}
		src.tokens <- struct{}{}
	}
	waitFor(t, "lazy chunk fetch never drained", lazyDrained(t, b))
	if evs := d.Events().Since(0, events.ManifestDeficit, ""); len(evs) != 0 {
		t.Fatalf("reading /status during a live tail appended %d manifest_deficit events", len(evs))
	}
	src.assertServedOnce(t, total)
}

// TestCASSyncTakesOverLiveTail: a sync that arrives while the
// function's lazy fetcher is live stops it and plans its remainder —
// one fetcher per function, no chunk fetched twice.
func TestCASSyncTakesOverLiveTail(t *testing.T) {
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	lazy, total := lazyDigests(t, a, "cas-alpha")
	_, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	src := newGatedSource(t, a.Config.Handler, lazy)

	body := map[string]interface{}{"source": hostport(src.srv)}
	if resp := doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("lazy sync = %d", resp.StatusCode)
	}
	// The tail parks inside its first fetch. An eager sync takes over: it
	// halts the fetcher — cancelling that fetch — and plans the remainder,
	// so the second request to reach the gate is the takeover's own; open
	// the gate then.
	src.waitParked(t, 1)
	body["eager"] = true
	done := make(chan int, 1)
	go func() { done <- doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync", body, nil).StatusCode }()
	src.waitParked(t, 2)
	src.open()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("takeover sync = %d", code)
	}
	if st := statusOf(t, b, "cas-alpha"); st.ChunksPending != 0 || st.ChunksMissing != 0 {
		t.Fatalf("after takeover: %+v, want nothing pending or missing", st)
	}
	waitFor(t, "lazy chunk fetch never drained", lazyDrained(t, b))
	src.assertServedOnce(t, total)
}

// TestCASFailedSyncLeavesLiveTailAlone: a sync whose source cannot
// supply a snapshot fails before it touches the function's live lazy
// fetcher — the tail keeps its claim and drains, nothing goes missing.
func TestCASFailedSyncLeavesLiveTailAlone(t *testing.T) {
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	lazy, total := lazyDigests(t, a, "cas-alpha")
	d, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	src := newGatedSource(t, a.Config.Handler, lazy)

	if code := doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(src.srv)}, nil).StatusCode; code != http.StatusOK {
		t.Fatalf("lazy sync = %d", code)
	}
	// The tail is parked inside its first fetch. Neither an unreachable
	// source nor one without the function may stop it.
	_, empty := newTestDaemon(t, Config{StateDir: t.TempDir()})
	for _, source := range []string{"127.0.0.1:1", hostport(empty)} {
		if code := doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync",
			map[string]interface{}{"source": source, "eager": true}, nil).StatusCode; code != http.StatusBadGateway {
			t.Fatalf("sync from %s = %d, want 502", source, code)
		}
		if st := statusOf(t, b, "cas-alpha"); st.ChunksPending != len(lazy) || st.ChunksMissing != 0 {
			t.Fatalf("after failed sync from %s: %+v, want %d pending, 0 missing", source, st, len(lazy))
		}
	}
	src.open()
	waitFor(t, "lazy chunk fetch never drained", lazyDrained(t, b))
	if st := statusOf(t, b, "cas-alpha"); st.ChunksPending != 0 || st.ChunksMissing != 0 {
		t.Fatalf("after drain: %+v, want nothing pending or missing", st)
	}
	if evs := d.Events().Since(0, events.ManifestDeficit, ""); len(evs) != 0 {
		t.Fatalf("failed syncs turned a live tail into %d manifest_deficit events", len(evs))
	}
	src.assertServedOnce(t, total)
}

// TestCASSyncsSerialisePerFunction: a sync stuck on a slow source holds
// up later syncs of the same function only; another function's sync on
// the same daemon completes meanwhile.
func TestCASSyncsSerialisePerFunction(t *testing.T) {
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	casProvision(t, a, "cas-beta")
	lazy, _ := lazyDigests(t, a, "cas-alpha")
	_, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	src := newGatedSource(t, a.Config.Handler, lazy)

	// An eager sync of cas-alpha parks inside its eager fetch, holding
	// cas-alpha's sync gate.
	stuck := make(chan int, 1)
	go func() {
		stuck <- doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync",
			map[string]interface{}{"source": hostport(src.srv), "eager": true}, nil).StatusCode
	}()
	src.waitParked(t, 1)
	if code := doJSON(t, "POST", b.URL+"/functions/cas-beta/sync",
		map[string]interface{}{"source": hostport(a), "eager": true}, nil).StatusCode; code != http.StatusOK {
		t.Fatalf("cas-beta sync behind a stuck cas-alpha sync = %d", code)
	}
	select {
	case code := <-stuck:
		t.Fatalf("cas-alpha sync returned %d while its source was gated", code)
	default:
	}
	src.open()
	if code := <-stuck; code != http.StatusOK {
		t.Fatalf("cas-alpha sync = %d", code)
	}
	casInvoke(t, b, "cas-alpha")
	casInvoke(t, b, "cas-beta")
}
