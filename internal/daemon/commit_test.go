package daemon

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"testing/fstest"

	"faasnap/internal/snapfile"
)

// served is a transport that answers every request from h in process,
// whatever host it is addressed to.
type served struct{ h http.Handler }

func (s served) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestCommitOrderSharedByRecordAndSync: a local recording and a
// chunk-level sync of the same function make the same disk operations in
// the same order from the snapfile's temp file on — there is one commit,
// not two that happen to agree — and write no chunk after it.
func TestCommitOrderSharedByRecordAndSync(t *testing.T) {
	src, dst := boot(t, fstest.MapFS{}), boot(t, fstest.MapFS{})
	for _, n := range []*node{src, dst} {
		if code, _ := n.do("PUT", "/functions/hello-world", nil); code != http.StatusOK {
			t.Fatalf("create = %d", code)
		}
	}
	if code, _ := src.do("POST", "/functions/hello-world/record", nil); code != http.StatusOK {
		t.Fatalf("source record = %d", code)
	}
	dst.d.store.peer.Transport = served{src.h}

	temp := regexp.MustCompile(`hello-world\.snap\.[0-9]+\.tmp`)
	// commitOps runs a request on dst and returns the disk operations of
	// its commit: everything from the snapfile's temp file on (the chunk
	// puts before it depend on what the store already holds), with the
	// temp file's number elided and consecutive writes to one file as one.
	commitOps := func(path string, body any) []string {
		dst.disk.mu.Lock()
		from := len(dst.disk.ops)
		dst.disk.mu.Unlock()
		if code, _ := dst.do("POST", path, body); code != http.StatusOK {
			t.Fatalf("%s = %d", path, code)
		}
		dst.disk.mu.Lock()
		defer dst.disk.mu.Unlock()
		var ops []string
		for _, op := range dst.disk.ops[from:] {
			if op = temp.ReplaceAllString(op, "hello-world.snap.*.tmp"); ops == nil && op != "create hello-world.snap.*.tmp" {
				continue
			}
			if strings.Contains(op, "cas/") {
				t.Fatalf("%s: %q after the snapfile's temp file was created", path, op)
			}
			if len(ops) == 0 || op != ops[len(ops)-1] || !strings.HasPrefix(op, "write ") {
				ops = append(ops, op)
			}
		}
		return ops
	}

	want := []string{
		"create hello-world.snap.*.tmp",
		"write hello-world.snap.*.tmp",
		"fsync hello-world.snap.*.tmp",
		"rename hello-world.snap.*.tmp → hello-world.snap",
		"fsync dir .",
		"write manifest.log",
		"fsync manifest.log",
	}
	if record := commitOps("/functions/hello-world/record", nil); !reflect.DeepEqual(record, want) {
		t.Fatalf("record commit order = %q, want %q", record, want)
	}
	body := map[string]interface{}{"source": "peer", "eager": true}
	if synced := commitOps("/functions/hello-world/sync", body); !reflect.DeepEqual(synced, want) {
		t.Fatalf("sync commit order = %q, want %q", synced, want)
	}
}

// TestConcurrentRecordSyncPutOnOneFunction: commits to one function
// serialize under its lock and publish into the entry the registry
// already holds. Rounds of concurrent record + sync + PUT on one name
// must leave the registry's chunk map equal to the on-disk snapfile's,
// the manifest consistent with both, and the VM and agent of a
// PUT-created entry in place.
func TestConcurrentRecordSyncPutOnOneFunction(t *testing.T) {
	const fn = "hello-world"
	_, src := newTestDaemon(t, Config{StateDir: t.TempDir()})
	recordedFn(t, src.URL) // recorded with input A
	dir := t.TempDir()
	d, dst := newTestDaemon(t, Config{StateDir: dir})
	syncBody := map[string]interface{}{"source": strings.TrimPrefix(src.URL, "http://"), "eager": true}

	for round := 0; round < 4; round++ {
		// Even rounds start from a deleted function, so the sync and the
		// PUT race to create the entry; odd rounds start from a registered
		// one, so a record (input B) races the sync (input A) on the
		// snapfile.
		ops := map[string]func() int{
			"sync": func() int { return doJSON(t, "POST", dst.URL+"/functions/"+fn+"/sync", syncBody, nil).StatusCode },
			"put":  func() int { return doJSON(t, "PUT", dst.URL+"/functions/"+fn, nil, nil).StatusCode },
		}
		if round%2 == 0 {
			doJSON(t, "DELETE", dst.URL+"/functions/"+fn, nil, nil)
			// A sync that commits before the PUT registers meets the
			// tombstone, which a copy at or below its generation cannot
			// outrank (409): re-record the source above it, so either
			// order of the race is a valid outcome.
			if e, ok := d.idx.entry(fn); ok {
				for statusOf(t, src, fn).Generation <= e.Generation {
					if code := doJSON(t, "POST", src.URL+"/functions/"+fn+"/record", nil, nil).StatusCode; code != http.StatusOK {
						t.Fatalf("source re-record = %d", code)
					}
				}
			}
		} else {
			ops["record"] = func() int {
				return doJSON(t, "POST", dst.URL+"/functions/"+fn+"/record", map[string]string{"input": "B"}, nil).StatusCode
			}
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		status := map[string]int{}
		for name, op := range ops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				code := op()
				mu.Lock()
				status[name] = code
				mu.Unlock()
			}()
		}
		wg.Wait()
		for name, code := range status {
			if code != 200 {
				t.Fatalf("round %d: %s = %d, want 200", round, name, code)
			}
		}

		fs, ok := d.idx.lookup(fn)
		if !ok {
			t.Fatalf("round %d: function missing from the registry", round)
		}
		machine, agent := fs.guest()
		arts, chunks := fs.published().arts, fs.published().chunks
		if machine == nil || agent == nil {
			t.Fatalf("round %d: the entry an acknowledged PUT booted lost its VM (machine %v, agent %v)", round, machine != nil, agent != nil)
		}
		diskArts, diskChunks, err := snapfile.LoadChunked(filepath.Join(dir, fn+".snap"))
		if err != nil {
			t.Fatalf("round %d: on-disk snapfile: %v", round, err)
		}
		if arts == nil || chunks == nil || !reflect.DeepEqual(chunks.Refs, diskChunks.Refs) {
			t.Fatalf("round %d: the registry's chunk map is not the on-disk snapfile's", round)
		}
		me, ok := d.idx.entry(fn)
		if !ok || me.Deleted || !me.HasSnapshot {
			t.Fatalf("round %d: manifest entry = %+v, want live with a snapshot", round, me)
		}
		if me.RecordInput != diskArts.RecordInput.Name || arts.RecordInput.Name != diskArts.RecordInput.Name {
			t.Fatalf("round %d: record input disagrees: manifest %q, registry %q, disk %q",
				round, me.RecordInput, arts.RecordInput.Name, diskArts.RecordInput.Name)
		}
	}
	if n, _ := d.life.observeDeficit(fn); n != 0 {
		t.Fatalf("%d chunks of the final chunk map are missing from the store", n)
	}
}
