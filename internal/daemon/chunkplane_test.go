package daemon

// The chunk plane's window: what a record and a sync allocate and
// how fast they move chunks, and what a sync that fails mid-window
// leaves behind.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/fstest"
	"time"

	"faasnap/internal/atomicfile"
	"faasnap/internal/casstore"
	"faasnap/internal/core"
	"faasnap/internal/snapfile"
	"faasnap/internal/snapshot"
	"faasnap/internal/workload"
)

// TestRecordSyncAllocationBudget: one record and one eager sync of a
// function with 25 MB of function-private pages between two daemons
// allocate a bounded multiple of the chunk bytes they move. A record
// fills one reused buffer per window slot; a sync reads each chunk into
// one reused buffer per window slot, and its source serves each chunk
// from a pooled one. The boot image is the smallest there is: a sync
// fills its base extents from the image instead of moving them.
func TestRecordSyncAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	const budget = 0.2 // bytes allocated per chunk byte moved; 0.15 measured
	const fn = "budget-fn"
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	_, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	spec := customSpec(fn, 1)
	spec["stable_pages"] = 6400
	if resp := doJSON(t, "PUT", a.URL+"/functions/"+fn, spec, nil); resp.StatusCode != http.StatusOK {
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
	if sr.BytesFetched < 24<<20 || sr.ChunksFetched+sr.ChunksBase != sr.ChunksTotal {
		t.Fatalf("sync fetched %d of %d chunk bytes, %d of %d chunks and %d from the base image; want every chunk, at least 24 MB of it fetched",
			sr.BytesFetched, sr.BytesTotal, sr.ChunksFetched, sr.ChunksTotal, sr.ChunksBase)
	}
	// The record commits every chunk, the sync fetches and commits every
	// chunk but the base extents again.
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
	_, body := src.do("GET", "/functions/"+crashFn+"/chunkmap", nil)
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

// TestChunkLengthDeclaredAndCapped: a sync refuses a chunk or snapfile
// reply that declares no Content-Length, or one over maxBodyBytes, and
// says why.
func TestChunkLengthDeclaredAndCapped(t *testing.T) {
	dst := boot(t, fstest.MapFS{})
	dst.peer(t, crashFn)
	src := dst.d.store.peer.Transport
	for _, prefix := range []string{"/chunks/", "/functions/" + crashFn + "/snapfile"} {
		for _, n := range []int64{-1, maxBodyBytes + 1} {
			dst.d.store.peer.Transport = roundTrip(func(r *http.Request) (*http.Response, error) {
				if !strings.HasPrefix(r.URL.Path, prefix) {
					return src.RoundTrip(r)
				}
				return &http.Response{StatusCode: http.StatusOK, ContentLength: n, Header: http.Header{},
					Body: io.NopCloser(strings.NewReader("")), Request: r}, nil
			})
			code, body := dst.do("POST", "/functions/"+crashFn+"/sync", map[string]interface{}{"source": "peer", "eager": true})
			if code != http.StatusBadGateway || !strings.Contains(string(body), "want a Content-Length of at most") {
				t.Fatalf("%s declared as %d bytes: sync = %d %s, want a 502 naming the cap", prefix, n, code, body)
			}
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

// BenchmarkPutSnapshot commits a 24 MB recording's chunks into the empty
// store of a fresh daemon, whose base table is empty too: MB/s over its
// chunk bytes, allocations per recording.
func BenchmarkPutSnapshot(b *testing.B) {
	arts := bigArtifacts(b)
	b.SetBytes(casstore.PlanChunks(arts, 0).TotalBytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := New(Config{StateDir: b.TempDir(), Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := d.store.putSnapshot(arts); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		d.Close()
		b.StartTimer()
	}
}

// BenchmarkSync syncs a 24 MB function from a daemon over loopback onto
// an empty one: MB/s over the chunk bytes it restores, fetched or filled
// from the base image, allocations per sync.
func BenchmarkSync(b *testing.B) {
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
	body := `{"source":"` + hostport(srv) + `"}`
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
		b.SetBytes(sr.BytesTotal)
		d.Close()
		b.StartTimer()
	}
}

// recordedSpecs are the recordings whose snapfiles are pinned: two
// catalog functions on one base image, on inputs A and B, and the
// record-sync benchmark's functions (boot 8–32 MB; four share each of
// the 8, 12 and 16 MB images), on input A.
func recordedSpecs(t *testing.T) (specs []*workload.Spec, ins []workload.Input) {
	t.Helper()
	for _, name := range []string{"hello-world", "mmap"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs, ins = append(specs, s, s), append(ins, s.A, s.B)
	}
	custom := func(name string, bootMB, stable int) {
		raw, _ := json.Marshal(map[string]interface{}{
			"name": name, "boot_mb": bootMB, "stable_pages": stable,
			"chunk_mean": 4, "retain_frac": 0.5, "base_ms": 2, "per_kb_us": 2, "init_ms": 10,
			"input_a": map[string]int64{"bytes": 4096, "data_pages": 8},
			"input_b": map[string]int64{"bytes": 16384, "data_pages": 24},
		})
		s, err := workload.ParseSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		specs, ins = append(specs, s), append(ins, s.A)
	}
	for i, mb := range []int{20, 24, 28, 32} {
		custom(fmt.Sprintf("bm-own-%02dmb", mb), mb, 256+i*64)
	}
	for _, mb := range []int{8, 12, 16} {
		for k := 0; k < 4; k++ {
			custom(fmt.Sprintf("bm-shared-%02dmb-%d", mb, k), mb, 256+k*64)
		}
	}
	return specs, ins
}

// recordedSnapfiles is the SHA-256, over recordedSpecs in order, of each
// recording's name, input, chunk count and snapfile digest as
// putSnapshot wrote them when it filled and hashed every chunk.
const recordedSnapfiles = "6ceb5fb1814156d5334be30413c9cfdcf8e0af809d5a3dbbd468413f463f4251"

// TestBaseTableKeepsSnapfiles: recording every function of
// recordedSpecs through one store, where each base image is hashed by
// the first recording on it alone, writes the snapfiles — chunk maps
// included — that hashing every chunk wrote, and the base table then
// holds the digest those give each base extent.
func TestBaseTableKeepsSnapfiles(t *testing.T) {
	specs, ins := recordedSpecs(t)
	d, err := New(Config{StateDir: t.TempDir(), Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h, path := sha256.New(), filepath.Join(t.TempDir(), "pinned.snap")
	digests := map[casstore.Extent]casstore.Digest{}
	for i, s := range specs {
		arts, _ := core.Record(core.DefaultHostConfig(), s, ins[i])
		save, err := d.store.putSnapshot(arts)
		if err == nil {
			err = save(path)
		}
		if err != nil {
			t.Fatal(err)
		}
		raw, err := atomicfile.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, cm, err := snapfile.ReadChunked(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s/%s %d %x\n", s.Name, ins[i].Name, len(cm.Refs), sha256.Sum256(raw))
		for _, ref := range cm.Refs {
			if ext, ok := casstore.BaseExtent(arts, ref); ok {
				digests[ext] = ref.Digest
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != recordedSnapfiles {
		t.Fatalf("recorded snapfiles hash to %s, want %s", got, recordedSnapfiles)
	}

	// The snapfiles pin every chunk map to its digests when each chunk was
	// hashed, so a base extent's entry in the table is its hash if it is
	// the digest each chunk map gives that extent.
	var entries int
	d.store.base.Range(func(k, v any) bool {
		ext, dg := k.(casstore.Extent), v.(casstore.Digest)
		if want := digests[ext]; want != dg {
			t.Fatalf("base table holds %s for %+v, its recordings %s", dg, ext, want)
		}
		entries++
		return true
	})
	if entries == 0 || entries != len(digests) {
		t.Fatalf("base table holds %d extents, the recordings %d", entries, len(digests))
	}
}

// TestBaseExtentsHashedOncePerDaemon: of four record-sync-shaped
// functions on one base image, recorded on one daemon and synced eagerly
// onto another, only the first's record and sync hash the image's base
// extents, and the source serves none of them. The log reports the
// bytes each record and each sync hashes.
func TestBaseExtentsHashedOncePerDaemon(t *testing.T) {
	da, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	db, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	// Every chunk a store hashes is put into a pack, where it is either
	// found stored (a dedup hit) or stored.
	hashed := func(d *Daemon) int {
		return int(d.telemetry.Counter("faasnap_cas_put_dedup_hits_total", "", nil).Value()) + int(d.store.cas.Stats().LocalChunks)
	}
	mb := func(chunks int) float64 {
		return float64(chunks*casstore.DefaultChunkPages*snapshot.PageSize) / (1 << 20)
	}
	for k := 0; k < 4; k++ {
		fn := fmt.Sprintf("bm-shared-16mb-%d", k)
		spec := customSpec(fn, 16)
		spec["stable_pages"] = 256 + k*64
		if resp := doJSON(t, "PUT", a.URL+"/functions/"+fn, spec, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s = %d", fn, resp.StatusCode)
		}
		before := hashed(da)
		if code := doJSON(t, "POST", a.URL+"/functions/"+fn+"/record", map[string]string{"input": "A"}, nil).StatusCode; code != http.StatusOK {
			t.Fatalf("record %s = %d", fn, code)
		}
		record := hashed(da) - before
		base, own := baseRefs(t, a.Config.Handler, fn)
		for _, n := range own {
			if n != casstore.DefaultChunkPages*snapshot.PageSize {
				t.Fatalf("%s has a %d-byte chunk; the log counts whole chunks", fn, n)
			}
		}
		before = hashed(db)
		var sr SyncResponse
		if resp := doJSON(t, "POST", b.URL+"/functions/"+fn+"/sync",
			map[string]interface{}{"source": hostport(a), "eager": true}, &sr); resp.StatusCode != http.StatusOK {
			t.Fatalf("sync %s = %d", fn, resp.StatusCode)
		}
		sync := hashed(db) - before
		t.Logf("%s, %d chunks (%d base): record hashed %.2f MB; sync hashed %.2f MB on the receiver and %.2f MB on the source",
			fn, len(base)+len(own), len(base), mb(record), mb(sync), mb(sr.ChunksFetched))
		want := len(own)
		if k == 0 {
			want += len(base)
		}
		if record != want || sync != want || sr.ChunksFetched != len(own) {
			t.Fatalf("%s: record hashed %d chunks, sync %d, source served %d; want %d, %d and %d",
				fn, record, sync, sr.ChunksFetched, want, want, len(own))
		}
	}
}
