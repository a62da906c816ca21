package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"faasnap/internal/core"
	"faasnap/internal/telemetry"
	"faasnap/internal/vmm"
	"faasnap/internal/workload"
)

// wantLoad is the snapshot-load request a restore of name in mode sends,
// built field by field from the artifacts' mapping plan: the reference
// the view's encoded bodies must match byte for byte.
func wantLoad(t *testing.T, arts *core.Artifacts, name string, mode core.Mode) []byte {
	t.Helper()
	req := vmm.SnapshotLoadRequest{
		SnapshotPath: "/snapshots/" + name + ".state",
		MemBackend:   vmm.MemBackend{BackendType: "File", BackendPath: "/snapshots/" + name + ".mem"},
		ResumeVM:     true,
	}
	if mode == core.ModeFaaSnap || mode == core.ModePerRegion {
		for _, m := range arts.MappingPlan(true) {
			rm := vmm.RegionMap{StartPage: m.Start, Pages: m.Pages}
			switch m.Backing {
			case core.MapAnon:
				rm.Backing = "anonymous"
			case core.MapMemoryFile:
				rm.Backing, rm.Path, rm.Offset = "memory_file", "/snapshots/"+name+".mem", m.FileOff
			case core.MapLoadingSet:
				rm.Backing, rm.Path, rm.Offset = "loading_set", "/snapshots/"+name+".ls", m.FileOff
			}
			req.RegionMaps = append(req.RegionMaps, rm)
		}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// budgetToolchain is the Go release the allocation budgets of this
// package's tests were read on; allocation sizes move between releases.
const budgetToolchain = "go1.24"

var restoreModes = []core.Mode{core.ModeFaaSnap, core.ModePerRegion, core.ModeREAP, core.ModeFirecracker, core.ModeCached}

// recordArts records a catalog function on its A input.
func recordArts(t testing.TB, name string) *core.Artifacts {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	arts, _ := core.Record(core.DefaultHostConfig(), spec, spec.A)
	return arts
}

// restoreOnce drives one restore of v in mode on d and fails the test
// when it does not end in a running VM.
func restoreOnce(t testing.TB, d *Daemon, name string, v *view, mode core.Mode) {
	t.Helper()
	sc := telemetry.SpanContext{TraceID: "t-restore", SpanID: "s-root"}
	spans, retries, err := d.restoreVMM(context.Background(), name, v, mode, sc)
	if err != nil || retries != 0 || len(spans) == 0 {
		t.Errorf("restore %s as %v: %v (%d retries, %d spans)", name, mode, err, retries, len(spans))
	}
}

// The body a restore sends is the request the mapping plan gives,
// encoded as json.Marshal encodes it, in every mode; the mapped body
// carries the plan's regions and the plain one none.
func TestLoadBodyIsTheEncodedRequest(t *testing.T) {
	d, _ := newTestDaemon(t, Config{})
	for _, name := range []string{"hello-world", "image"} {
		v := &view{name: name, arts: recordArts(t, name)}
		for _, mode := range restoreModes {
			body, err := v.load(mode)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantLoad(t, v.arts, name, mode); !bytes.Equal(body, want) {
				t.Errorf("%s %v: body differs from the encoded request\n got %.200s\nwant %.200s", name, mode, body, want)
			}
			var req vmm.SnapshotLoadRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			mapped := mode == core.ModeFaaSnap || mode == core.ModePerRegion
			if mapped != (len(req.RegionMaps) > 0) {
				t.Errorf("%s %v: %d region maps", name, mode, len(req.RegionMaps))
			}
			restoreOnce(t, d, name, v, mode)
		}
	}
}

// A re-record publishes a new view, whose body carries the new
// recording's regions; the old view keeps its own. (image's recordings
// on A and B map different regions; hello-world's do not.)
func TestLoadBodyFollowsReRecord(t *testing.T) {
	const fn = "image"
	d, srv := newTestDaemon(t, Config{})
	record := func(input string) *view {
		t.Helper()
		if resp := doJSON(t, "POST", srv.URL+"/functions/"+fn+"/record", map[string]string{"input": input}, nil); resp.StatusCode != 200 {
			t.Fatalf("record %s = %d", input, resp.StatusCode)
		}
		fs, _ := d.idx.lookup(fn)
		v := fs.published()
		restoreOnce(t, d, fn, v, core.ModeFaaSnap)
		return v
	}
	if resp := doJSON(t, "PUT", srv.URL+"/functions/"+fn, nil, nil); resp.StatusCode != 200 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	before := record("A")
	oldBody, _ := before.load(core.ModeFaaSnap)
	after := record("B")
	if after == before || after.arts == before.arts {
		t.Fatal("re-record published no new view")
	}
	body, _ := after.load(core.ModeFaaSnap)
	if want := wantLoad(t, after.arts, fn, core.ModeFaaSnap); !bytes.Equal(body, want) {
		t.Fatal("the re-recorded view's body is not its recording's request")
	}
	if bytes.Equal(body, oldBody) {
		t.Fatal("the re-recorded view sends the first recording's body")
	}
	if again, _ := before.load(core.ModeFaaSnap); !bytes.Equal(again, wantLoad(t, before.arts, fn, core.ModeFaaSnap)) {
		t.Fatal("the displaced view's body changed")
	}
}

// Concurrent restores of one view share one encoding per variant.
func TestConcurrentRestoresShareOneEncode(t *testing.T) {
	d, _ := newTestDaemon(t, Config{})
	v := &view{name: "hello-world", arts: recordArts(t, "hello-world")}
	const n = 8
	bodies := make([]vmm.EncodedLoad, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := restoreModes[i%2] // FaaSnap and per-region share the mapped body
			restoreOnce(t, d, "hello-world", v, mode)
			bodies[i], _ = v.load(mode)
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if len(b) == 0 || &b[0] != &bodies[0][0] {
			t.Fatalf("restore %d sent its own encoding", i)
		}
	}
}

// TestRestoreAllocationBudget is the restore hop's share of a small
// invoke's allocation: daemon client, pipe, VMM server and the VMM's
// decode of the body. The budgets were read on budgetToolchain. (While
// the VMM decoded the region maps with encoding/json into a fresh
// buffer and each span header went through it too: 189.4 KB and 1 144
// objects for a hello-world FaaSnap restore. While every restore
// encoded its body, each VMM built a ServeMux and decoded through a
// growing buffer, and each dial took a 4 KiB read buffer: 413 KB and
// 1 691 objects for a FaaSnap restore, 30.3 KB and 296 objects for a
// Firecracker one.)
func TestRestoreAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	if v := runtime.Version(); !strings.HasPrefix(v, budgetToolchain) {
		t.Logf("the budgets were read on %s and this is %s: a miss is a finding about the toolchain, not a flake", budgetToolchain, v)
	}
	d, _ := newTestDaemon(t, Config{})
	v := &view{name: "hello-world", arts: recordArts(t, "hello-world")}
	// Only the runtime.GC before each window collects: a cycle starting
	// inside one empties the sync.Pools (net/http's bufio pools among
	// them), and refilling them would be counted as the restores'. The
	// windows allocate a few MB.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		mode    core.Mode
		kb      float64
		objects float64
	}{
		{core.ModeFaaSnap, 88, 205},
		{core.ModeFirecracker, 24, 230},
	} {
		restoreOnce(t, d, "hello-world", v, c.mode) // encode the body
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			restoreOnce(t, d, "hello-world", v, c.mode)
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		objects := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("hello-world %-12v %.1f KB, %.0f objects per restore", c.mode, kb, objects)
		if kb > c.kb || objects > c.objects {
			t.Errorf("a %v restore allocates %.1f KB and %.0f objects, budget %.0f KB and %.0f", c.mode, kb, objects, c.kb, c.objects)
		}
	}
}

// BenchmarkRestore is the daemon→VMM restore hop alone, per mode, on a
// paper function: a fresh VMM, the snapshot load, its reply spans.
func BenchmarkRestore(b *testing.B) {
	d, err := New(Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	v := &view{name: "image", arts: recordArts(b, "image")}
	for _, mode := range restoreModes {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				restoreOnce(b, d, "image", v, mode)
			}
		})
	}
}
