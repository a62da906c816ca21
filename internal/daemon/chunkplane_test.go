package daemon

// The chunk plane's window: what a record and an eager sync allocate and
// how fast they move chunks, and what a sync that fails mid-window
// leaves behind.

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/fstest"
	"time"

	"faasnap/internal/casstore"
	"faasnap/internal/core"
	"faasnap/internal/workload"
)

// TestRecordSyncAllocationBudget: one record and one eager sync of a
// 24 MB function between two daemons allocate a bounded multiple of the
// chunk bytes they move. A record fills one reused buffer per window
// slot; a sync reads each chunk into one buffer of its declared length.
func TestRecordSyncAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	const budget = 0.8 // bytes allocated per chunk byte moved; 0.65 measured
	const fn = "budget-fn"
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	_, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	if resp := doJSON(t, "PUT", a.URL+"/functions/"+fn, customSpec(fn, 24), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if code := doJSON(t, "POST", a.URL+"/functions/"+fn+"/record", map[string]string{"input": "A"}, nil).StatusCode; code != http.StatusOK {
		t.Fatalf("record = %d", code)
	}
	var sr SyncResponse
	if resp := doJSON(t, "POST", b.URL+"/functions/"+fn+"/sync",
		map[string]interface{}{"source": hostport(a), "eager": true}, &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync = %d", resp.StatusCode)
	}
	runtime.ReadMemStats(&after)
	if sr.BytesTotal < 24<<20 || sr.BytesFetched != sr.BytesTotal {
		t.Fatalf("sync moved %d of %d chunk bytes; want all of at least 24 MB", sr.BytesFetched, sr.BytesTotal)
	}
	// The record commits every chunk, the sync fetches and commits every
	// chunk again.
	moved := float64(sr.BytesTotal + sr.BytesFetched)
	per := float64(after.TotalAlloc-before.TotalAlloc) / moved
	t.Logf("%.1f MB allocated for %.1f MB of chunks moved: %.3f bytes per byte", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), moved/(1<<20), per)
	if per > budget {
		t.Errorf("record + sync allocate %.3f bytes per chunk byte moved, budget %.2f", per, budget)
	}
}

// roundTrip is a transport made of one function.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSyncFailingMidWindowKeepsServing: a source that fails one eager
// chunk while others of the window are in flight fails the sync with
// 502. The function keeps serving its previous view, and every fetch
// worker has returned by the reply: nothing is fetched or written after
// it.
func TestSyncFailingMidWindowKeepsServing(t *testing.T) {
	src, dst := boot(t, fstest.MapFS{}), boot(t, fstest.MapFS{})
	// The source's function has a larger base image, so dst holds none of
	// its chunks.
	if code, _ := src.do("PUT", "/functions/"+crashFn, customSpec(crashFn, 16)); code != http.StatusOK {
		t.Fatalf("source register = %d", code)
	}
	if code := dst.op(opRegister, crashFn); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	for _, n := range []*node{src, dst} {
		if code := n.op(opRecord, crashFn); code != http.StatusOK {
			t.Fatalf("record = %d", code)
		}
	}
	fs, _ := dst.d.idx.lookup(crashFn)
	prev := fs.published()
	_, body := src.do("GET", "/functions/"+crashFn+"/chunkmap?summary=1", nil)
	var cm ChunkMapResponse
	if json.Unmarshal(body, &cm); cm.ChunkCount <= 2*window {
		t.Fatalf("the source's function has %d chunks; the test needs more than two windows", cm.ChunkCount)
	}

	// The third chunk asked for fails; the two before it are held until it
	// has, so the failure lands with the window's first round in flight.
	const failAt = 3
	var asked, inflight, atFail atomic.Int32
	failed := make(chan struct{})
	dst.d.store.peer.Transport = roundTrip(func(r *http.Request) (*http.Response, error) {
		if !strings.HasPrefix(r.URL.Path, "/chunks/") {
			return served{src.h}.RoundTrip(r)
		}
		inflight.Add(1)
		defer inflight.Add(-1)
		if asked.Add(1) == failAt {
			atFail.Store(inflight.Load())
			close(failed)
			rec := httptest.NewRecorder()
			http.Error(rec, "injected", http.StatusInternalServerError)
			return rec.Result(), nil
		}
		<-failed
		return served{src.h}.RoundTrip(r)
	})
	if code, _ := dst.do("POST", "/functions/"+crashFn+"/sync", map[string]interface{}{"source": "peer", "eager": true}); code != http.StatusBadGateway {
		t.Fatalf("sync with a failing chunk = %d, want 502", code)
	}
	dst.disk.mu.Lock()
	ops := len(dst.disk.ops)
	dst.disk.mu.Unlock()
	n := asked.Load()
	if inflight.Load() != 0 {
		t.Fatal("a chunk fetch was still in flight after the reply")
	}
	time.Sleep(50 * time.Millisecond)
	dst.disk.mu.Lock()
	later := dst.disk.ops[ops:]
	dst.disk.mu.Unlock()
	if asked.Load() != n || len(later) > 0 {
		t.Fatalf("a fetch worker outlived the request: %d more chunks asked for, disk ops %q after the reply", asked.Load()-n, later)
	}
	if atFail.Load() < failAt || int(n) >= cm.ChunkCount {
		t.Fatalf("%d fetches in flight when the failure came, %d of %d chunks asked for; want a window cut short", atFail.Load(), n, cm.ChunkCount)
	}
	if fs.published() != prev {
		t.Fatal("a failed sync replaced the function's view")
	}
	if code, snap := dst.get(crashFn); code != http.StatusOK || !snap || dst.op(opInvoke, crashFn) != http.StatusOK || dst.deficit(crashFn) != 0 {
		t.Fatalf("after the failed sync: get = %d, has_snapshot = %v; want the previous snapshot serving whole", code, snap)
	}
}

// TestChunkLengthDeclaredAndCapped: a sync refuses a chunk reply that
// declares no Content-Length, or one over maxChunkBytes, and says why.
func TestChunkLengthDeclaredAndCapped(t *testing.T) {
	dst := boot(t, fstest.MapFS{})
	dst.peer(t, crashFn)
	src := dst.d.store.peer.Transport
	for _, n := range []int64{-1, maxChunkBytes + 1} {
		dst.d.store.peer.Transport = roundTrip(func(r *http.Request) (*http.Response, error) {
			if !strings.HasPrefix(r.URL.Path, "/chunks/") {
				return src.RoundTrip(r)
			}
			return &http.Response{StatusCode: http.StatusOK, ContentLength: n, Header: http.Header{},
				Body: io.NopCloser(strings.NewReader("")), Request: r}, nil
		})
		code, body := dst.do("POST", "/functions/"+crashFn+"/sync", map[string]interface{}{"source": "peer", "eager": true})
		if code != http.StatusBadGateway || !strings.Contains(string(body), "want a Content-Length of at most") {
			t.Fatalf("chunk declared as %d bytes: sync = %d %s, want a 502 naming the cap", n, code, body)
		}
	}
}

// bigArtifacts records a 24 MB custom function.
func bigArtifacts(b *testing.B) *core.Artifacts {
	raw, _ := json.Marshal(customSpec("bench-fn", 24))
	spec, err := workload.ParseSpec(raw)
	if err != nil {
		b.Fatal(err)
	}
	arts, _ := core.Record(core.DefaultHostConfig(), spec, spec.A)
	return arts
}

// BenchmarkPutSnapshot commits a 24 MB recording's chunks into an empty
// store: MB/s over its chunk bytes, allocations per recording.
func BenchmarkPutSnapshot(b *testing.B) {
	arts := bigArtifacts(b)
	dir := b.TempDir()
	d, err := New(Config{StateDir: dir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.SetBytes(casstore.PlanChunks(arts, 0).TotalBytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(filepath.Join(dir, "cas")); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := d.store.putSnapshot(arts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEagerSync syncs a 24 MB function eagerly from a daemon over
// loopback onto an empty one: MB/s over its chunk bytes, allocations per
// sync.
func BenchmarkEagerSync(b *testing.B) {
	const fn = "bench-fn"
	quiet := log.New(io.Discard, "", 0)
	a, err := New(Config{StateDir: b.TempDir(), Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	if doJSON(b, "PUT", srv.URL+"/functions/"+fn, customSpec(fn, 24), nil).StatusCode != http.StatusOK ||
		doJSON(b, "POST", srv.URL+"/functions/"+fn+"/record", map[string]string{"input": "A"}, nil).StatusCode != http.StatusOK {
		b.Fatal("source provisioning failed")
	}
	body := `{"source":"` + hostport(srv) + `","eager":true}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := New(Config{StateDir: b.TempDir(), Logger: quiet})
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		b.StartTimer()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/functions/"+fn+"/sync", strings.NewReader(body)))
		b.StopTimer()
		var sr SyncResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusOK || err != nil {
			b.Fatalf("sync = %d: %s", rec.Code, rec.Body)
		}
		b.SetBytes(sr.BytesFetched)
		d.Close()
		b.StartTimer()
	}
}
