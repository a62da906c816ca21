package daemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"faasnap/internal/casstore"
	"faasnap/internal/events"
	"faasnap/internal/snapfile"
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

// damageInPack flips a byte in the middle of chunk hexd, served by the
// daemon at base, inside the pack under state that holds it — found by
// its bytes — and returns the pack's path.
func damageInPack(t *testing.T, state, base, hexd string) string {
	t.Helper()
	resp, err := http.Get(base + "/chunks/" + hexd)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("get chunk %s = %d, %v", hexd, resp.StatusCode, err)
	}
	packs, _ := filepath.Glob(filepath.Join(state, "cas", "packs", "*.pack"))
	for _, path := range packs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(raw, data); i >= 0 {
			raw[i+len(data)/2] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
	}
	t.Fatalf("no pack under %s holds chunk %s", state, hexd)
	return ""
}

// TestCASCorruptChunkQuarantined: a chunk damaged inside its pack is
// never served, before a restart or after one; each read that finds the
// damage copies the bytes into quarantine/, and the pack stays.
func TestCASCorruptChunkQuarantined(t *testing.T) {
	state := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: state})
	casProvision(t, srv, "cas-alpha")

	var full ChunkMapResponse
	doJSON(t, "GET", srv.URL+"/functions/cas-alpha/chunkmap", nil, &full)
	hexd := full.Chunks[0].Digest
	pack := damageInPack(t, state, srv.URL, hexd)

	// The first read detects the damage and quarantines; the chunk is
	// never served corrupt and later reads answer 404.
	for i, base := range []string{"", ".2"} {
		if resp := doJSON(t, "GET", srv.URL+"/chunks/"+hexd, nil, nil); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("corrupt chunk = %d, want 500", resp.StatusCode)
		}
		if resp := doJSON(t, "GET", srv.URL+"/chunks/"+hexd, nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("quarantined chunk = %d, want 404", resp.StatusCode)
		}
		if _, err := os.Stat(filepath.Join(state, "quarantine", "chunk-"+hexd+base)); err != nil {
			t.Fatalf("corrupt chunk not quarantined: %v", err)
		}
		if _, err := os.Stat(pack); err != nil {
			t.Fatalf("the pack holding the corrupt chunk was removed: %v", err)
		}
		if i == 0 {
			// A restart indexes the damaged copy again from the pack's
			// trailer: it must be caught again, not served.
			srv.Close()
			_, srv = newTestDaemon(t, Config{StateDir: state})
		}
	}
}

// TestCASOccupancySurvivesReopen: GET /cas and the store's Stats, both
// read off its index, answer the same after a restart over the state
// directory, before and after a demoting GC.
func TestCASOccupancySurvivesReopen(t *testing.T) {
	state := t.TempDir()
	d, srv := newTestDaemon(t, Config{StateDir: state})
	casProvision(t, srv, "cas-alpha")
	casProvision(t, srv, "cas-beta")
	reopen := func() {
		t.Helper()
		var before, after CASResponse
		doJSON(t, "GET", srv.URL+"/cas", nil, &before)
		st := d.store.cas.Stats()
		srv.Close()
		d, srv = newTestDaemon(t, Config{StateDir: state})
		doJSON(t, "GET", srv.URL+"/cas", nil, &after)
		if st2 := d.store.cas.Stats(); before != after || st != st2 || st != before.Stats {
			t.Fatalf("occupancy before a restart: %+v (Stats %+v); after: %+v (Stats %+v)", before, st, after, st2)
		}
	}
	reopen()
	var gc GCResponse
	if resp := doJSON(t, "POST", srv.URL+"/gc", map[string]interface{}{"demote": true}, &gc); resp.StatusCode != http.StatusOK || gc.Demoted == 0 {
		t.Fatalf("gc demote = %d, %+v", resp.StatusCode, gc)
	}
	reopen()
	casInvoke(t, srv, "cas-beta")
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

	// B pulls alpha from A. Base extents are filled on B, so the
	// transfer is strictly smaller than the full snapshot, and the
	// snapshot is whole when the reply comes.
	var sync SyncResponse
	if resp := doJSON(t, "POST", srvB.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(srvA)}, &sync); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync B<-A = %d", resp.StatusCode)
	}
	if sync.ChunksFetched == 0 || sync.ChunksBase == 0 {
		t.Fatalf("sync fetched %d, filled %d from the base image; want both > 0: %+v",
			sync.ChunksFetched, sync.ChunksBase, sync)
	}
	if sync.BytesFetched >= sync.BytesTotal {
		t.Fatalf("restore transferred %d of %d bytes — no base fills", sync.BytesFetched, sync.BytesTotal)
	}
	if st := statusOf(t, srvB, "cas-alpha"); st.ChunksMissing != 0 {
		t.Fatalf("after the sync reply: %+v, want every chunk held", st)
	}
	casInvoke(t, srvB, "cas-alpha")
	var info FunctionInfo
	doJSON(t, "GET", srvB.URL+"/functions/cas-alpha", nil, &info)
	if !info.HasSnapshot || info.Chunks == 0 {
		t.Fatalf("synced function info = %+v", info)
	}

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

	// A sibling from the same base image: most of its chunks are
	// already on B, so the transfer is a fraction of the snapshot.
	casProvision(t, srvA, "cas-beta")
	var syncBeta SyncResponse
	if resp := doJSON(t, "POST", srvB.URL+"/functions/cas-beta/sync",
		map[string]interface{}{"source": hostport(srvA)}, &syncBeta); resp.StatusCode != http.StatusOK {
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

// TestCASSyncRejectsBadSource: a sync needs a source and a state
// directory, and one whose source cannot supply a snapshot —
// unreachable, or without the function — is a 502 that leaves what the
// function has alone: its synced snapshot stays as it was, nothing goes missing, and
// no deficit is announced.
func TestCASSyncRejectsBadSource(t *testing.T) {
	d, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	if resp := doJSON(t, "POST", srv.URL+"/functions/x/sync",
		map[string]interface{}{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sync without source = %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", srv.URL+"/functions/x/sync",
		map[string]interface{}{"source": "127.0.0.1:1"}, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("sync from dead source = %d, want 502", resp.StatusCode)
	}
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	if code := doJSON(t, "POST", srv.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(a)}, nil).StatusCode; code != http.StatusOK {
		t.Fatalf("sync = %d", code)
	}
	before := statusOf(t, srv, "cas-alpha")
	_, empty := newTestDaemon(t, Config{StateDir: t.TempDir()})
	for _, source := range []string{"127.0.0.1:1", hostport(empty)} {
		if code := doJSON(t, "POST", srv.URL+"/functions/cas-alpha/sync",
			map[string]interface{}{"source": source}, nil).StatusCode; code != http.StatusBadGateway {
			t.Fatalf("sync from %s = %d, want 502", source, code)
		}
		if st := statusOf(t, srv, "cas-alpha"); !reflect.DeepEqual(st, before) || st.ChunksMissing != 0 {
			t.Fatalf("after a failed sync from %s: %+v, want it as it was, %+v", source, st, before)
		}
	}
	if evs := d.Events().Since(0, events.ManifestDeficit, ""); len(evs) != 0 {
		t.Fatalf("failed syncs announced %d manifest_deficit events", len(evs))
	}
	casInvoke(t, srv, "cas-alpha")
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
	// The sweep is recorded once, as its gc_sweep event: no trace.
	var sweeps struct {
		Events []events.Event `json:"events"`
	}
	doJSON(t, "GET", srv.URL+"/events?type=gc_sweep", nil, &sweeps)
	if len(sweeps.Events) != 1 {
		t.Fatalf("gc left %d gc_sweep events, want 1", len(sweeps.Events))
	}
	ev := sweeps.Events[0]
	if wall, err := strconv.ParseFloat(ev.Fields["wall_ms"], 64); err != nil || wall < 0 || ev.TraceID != "" {
		t.Fatalf("gc_sweep event = %+v, want a wall_ms field and no trace", ev)
	}
	var ids []string
	doJSON(t, "GET", srv.URL+"/traces", nil, &ids)
	for _, id := range ids {
		var spans []struct {
			Name string `json:"name"`
		}
		doJSON(t, "GET", srv.URL+"/traces/"+id, nil, &spans)
		if len(spans) > 0 && spans[0].Name == "cas-gc" {
			t.Fatalf("gc left trace %s beside its event", id)
		}
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
// digests in hold until the gate opens, counting every chunk it serves:
// a peer that hangs on part of a snapshot.
type gatedSource struct {
	srv    *httptest.Server
	tokens chan struct{}
	mu     sync.Mutex
	served map[string]int
	parked int // requests that have reached the gate, released or not
	gaveUp int // parked requests whose client went away
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
					g.mu.Lock()
					g.gaveUp++
					g.mu.Unlock()
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

// waitParked returns once n held requests have reached the gate. A sync
// issues a window of them, so with the gate shut the n-th arrival tells
// how far the daemon's syncs have got.
func (g *gatedSource) waitParked(t *testing.T, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("fewer than %d requests reached the gate", n), func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.parked >= n
	})
}

// waitGaveUp returns once n parked requests have left the gate because
// their client went away.
func (g *gatedSource) waitGaveUp(t *testing.T, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("fewer than %d parked requests gave up", n), func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.gaveUp >= n
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

// foreignBase serves h, except that name's chunk map names each base
// extent under the digest of other bytes — its first byte flipped —
// which it serves itself: a peer whose base image differs from every
// other daemon's, so a sync fetches every chunk from it, the base
// extents included (in this model, every chunk outside the loading set).
func foreignBase(t *testing.T, h http.Handler, name string) http.Handler {
	t.Helper()
	cmr := chunkMapOf(t, h, name)
	arts, cm, err := snapfile.ReadChunked(bytes.NewReader(cmr.Snapfile))
	if err != nil {
		t.Fatal(err)
	}
	own := map[string][]byte{}
	for i, ref := range cm.Refs {
		if _, ok := casstore.BaseExtent(arts, ref); !ok {
			continue
		}
		data := casstore.Fill(arts, ref, make([]byte, ref.Bytes))
		data[0] ^= 0xff
		dg := casstore.Sum(data)
		cm.Refs[i].Digest, cmr.Chunks[i].Digest = dg, dg.String()
		own[dg.String()] = data
	}
	if len(own) == 0 {
		t.Fatalf("%s has no base extents to make foreign", name)
	}
	var raw bytes.Buffer
	if err := snapfile.WriteChunked(&raw, arts, cm); err != nil {
		t.Fatal(err)
	}
	cmr.Snapfile = raw.Bytes()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/functions/"+name+"/chunkmap" {
			json.NewEncoder(w).Encode(cmr)
			return
		}
		if data, ok := own[strings.TrimPrefix(r.URL.Path, "/chunks/")]; ok {
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			w.Write(data)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// chunkMapOf is name's full chunk map as h serves it.
func chunkMapOf(t *testing.T, h http.Handler, name string) ChunkMapResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/functions/"+name+"/chunkmap", nil))
	var cm ChunkMapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cm); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("chunk map of %s = %d: %v", name, rec.Code, err)
	}
	return cm
}

// foreignDigests returns the digests name's chunk map names its base
// extents under as h serves it: behind foreignBase, chunks only the
// source can supply.
func foreignDigests(t *testing.T, h http.Handler, name string) map[string]bool {
	t.Helper()
	base, _ := baseRefs(t, h, name)
	held := make(map[string]bool, len(base))
	for dg := range base {
		held[dg] = true
	}
	return held
}

// TestCASSyncsSerialisePerFunction: a sync stuck on a slow source holds
// up later syncs of the same function only; another function's sync on
// the same daemon completes meanwhile.
func TestCASSyncsSerialisePerFunction(t *testing.T) {
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	casProvision(t, a, "cas-beta")
	foreign := foreignBase(t, a.Config.Handler, "cas-alpha")
	_, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	src := newGatedSource(t, foreign, foreignDigests(t, foreign, "cas-alpha"))

	// A sync of cas-alpha parks inside its fetch, holding cas-alpha's
	// sync gate.
	stuck := make(chan int, 1)
	go func() {
		stuck <- doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync",
			map[string]interface{}{"source": hostport(src.srv)}, nil).StatusCode
	}()
	src.waitParked(t, 1)
	if code := doJSON(t, "POST", b.URL+"/functions/cas-beta/sync",
		map[string]interface{}{"source": hostport(a)}, nil).StatusCode; code != http.StatusOK {
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

// baseRefs splits name's chunk map as h serves it into the digests of
// its base extents and of the rest, each with its bytes.
func baseRefs(t *testing.T, h http.Handler, name string) (base, own map[string]int64) {
	t.Helper()
	arts, cm, err := snapfile.ReadChunked(bytes.NewReader(chunkMapOf(t, h, name).Snapfile))
	if err != nil {
		t.Fatal(err)
	}
	base, own = map[string]int64{}, map[string]int64{}
	for _, ref := range cm.Refs {
		if _, ok := casstore.BaseExtent(arts, ref); ok {
			base[casstore.Digest(ref.Digest).String()] = ref.Bytes
		} else {
			own[casstore.Digest(ref.Digest).String()] = ref.Bytes
		}
	}
	return base, own
}

// TestCASSyncAsksSourceOnlyForNonBaseChunks: a function that is mostly
// base image syncs with the source asked, once each, for its other
// chunks only, whatever the request's ignored "eager" says. The reply
// counts the base fills apart from what was fetched, the saved-bytes
// counter takes them, and the waterfall tags them with the tier "base".
func TestCASSyncAsksSourceOnlyForNonBaseChunks(t *testing.T) {
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	base, own := baseRefs(t, a.Config.Handler, "cas-alpha")
	if len(base) <= len(own) || len(own) == 0 {
		t.Fatalf("%d base extents, %d other chunks; the test needs a function that is mostly base image", len(base), len(own))
	}
	var ownBytes int64
	for _, n := range own {
		ownBytes += n
	}

	for _, eager := range []bool{true, false} {
		_, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
		src := newGatedSource(t, a.Config.Handler, nil)
		var sr SyncResponse
		if resp := doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync",
			map[string]interface{}{"source": hostport(src.srv), "eager": eager}, &sr); resp.StatusCode != http.StatusOK {
			t.Fatalf("sync (eager %v) = %d", eager, resp.StatusCode)
		}
		src.assertServedOnce(t, len(own))
		src.mu.Lock()
		for dg := range src.served {
			if _, ok := own[dg]; !ok {
				t.Fatalf("eager %v: source asked for base extent %s", eager, dg[:8])
			}
		}
		src.mu.Unlock()
		if st := statusOf(t, b, "cas-alpha"); st.ChunksMissing != 0 {
			t.Fatalf("eager %v: after the sync %+v, want every chunk held", eager, st)
		}
		casInvoke(t, b, "cas-alpha")
		var cas CASResponse
		doJSON(t, "GET", b.URL+"/cas", nil, &cas)
		if cas.RestoreBytesSaved != sr.BytesTotal-sr.BytesFetched {
			t.Fatalf("eager %v: restore_bytes_saved = %d, want %d", eager, cas.RestoreBytesSaved, sr.BytesTotal-sr.BytesFetched)
		}
		if sr.ChunksBase != len(base) || sr.ChunksFetched != len(own) || sr.BytesFetched != ownBytes || sr.ChunksPresent != 0 {
			t.Fatalf("eager %v: %+v, want %d base fills and %d chunks (%d bytes) fetched", eager, sr, len(base), len(own), ownBytes)
		}
		var spans []struct {
			Name string            `json:"name"`
			Tags map[string]string `json:"tags"`
		}
		doJSON(t, "GET", b.URL+"/traces/"+sr.TraceID, nil, &spans)
		var tagged bool
		for _, sp := range spans {
			tagged = tagged || sp.Name == "eager-fetch" && strings.Contains(sp.Tags["tier"], "base")
		}
		if !tagged {
			t.Fatalf("eager %v: no eager-fetch span tagged tier base: %+v", eager, spans)
		}
	}
}

// TestCASSyncFetchesForeignBaseExtent: a source whose chunk map names
// the base extents under other digests has each of them fetched from it
// once and stored under its digest, before the reply — the local bytes,
// which hash to something else, are stored under no digest, and the
// base table learns nothing from them: a sibling recorded here
// afterwards gets the base image's own digests. Reading the receiver's
// status then finds nothing missing and announces no deficit.
func TestCASSyncFetchesForeignBaseExtent(t *testing.T) {
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	foreign := foreignBase(t, a.Config.Handler, "cas-alpha")
	fbase, _ := baseRefs(t, a.Config.Handler, "cas-alpha")
	d, b := newTestDaemon(t, Config{StateDir: t.TempDir()})
	src := newGatedSource(t, foreign, nil)
	var sr SyncResponse
	if resp := doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync",
		map[string]interface{}{"source": hostport(src.srv)}, &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync from a foreign base = %d", resp.StatusCode)
	}
	src.assertServedOnce(t, sr.ChunksTotal)
	if st := statusOf(t, b, "cas-alpha"); st.ChunksMissing != 0 || st.DeficitSeq != 0 {
		t.Fatalf("after the sync reply: %+v, want nothing missing", st)
	}
	if evs := d.Events().Since(0, events.ManifestDeficit, ""); len(evs) != 0 {
		t.Fatalf("reading /status after a whole sync appended %d manifest_deficit events", len(evs))
	}
	if sr.ChunksBase != 0 || sr.ChunksFetched != sr.ChunksTotal || sr.BytesFetched != sr.BytesTotal {
		t.Fatalf("sync from a foreign base: %+v, want every chunk fetched", sr)
	}
	for _, c := range chunkMapOf(t, foreign, "cas-alpha").Chunks {
		resp, err := http.Get(b.URL + "/chunks/" + c.Digest)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || casstore.Sum(body).String() != c.Digest {
			t.Fatalf("chunk %s on the receiver = %d, %d bytes hashing to %s", c.Digest[:8], resp.StatusCode, len(body), casstore.Sum(body))
		}
	}
	casInvoke(t, b, "cas-alpha")

	casProvision(t, b, "cas-beta")
	bbase, _ := baseRefs(t, b.Config.Handler, "cas-beta")
	if len(bbase) != len(fbase) {
		t.Fatalf("sibling recorded %d base extents, the source's function %d", len(bbase), len(fbase))
	}
	for dg := range bbase {
		if _, ok := fbase[dg]; !ok {
			t.Fatalf("sibling's base extent %s is not the base image's", dg[:8])
		}
	}
}
