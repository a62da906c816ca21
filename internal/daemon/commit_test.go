package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/snapfile"
)

// post issues one JSON request without touching t, so it is safe off
// the test goroutine; status 0 means the request itself failed.
func post(method, url string, body interface{}) int {
	var rd io.Reader
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestCommitOrderSharedByRecordAndSync: a local recording and a
// chunk-level sync of the same function pass the same crashpoints in
// the same order — there is one commit, not two that happen to agree.
func TestCommitOrderSharedByRecordAndSync(t *testing.T) {
	_, src := newTestDaemon(t, Config{StateDir: t.TempDir()})
	recordedFn(t, src.URL)
	_, dst := newTestDaemon(t, Config{StateDir: t.TempDir()})
	if resp := doJSON(t, "PUT", dst.URL+"/functions/hello-world", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("create = %d", resp.StatusCode)
	}

	var mu sync.Mutex
	var seen []string
	replied := make(chan struct{}, 1)
	restore := chaos.ObserveCrashpoints(func(p string) {
		mu.Lock()
		seen = append(seen, p)
		mu.Unlock()
		if p == chaos.CrashRecordPostReply {
			replied <- struct{}{}
		}
	})
	defer restore()
	// commitPoints runs op and returns the crashpoints of its commit:
	// everything from record.post-chunks on (the chunk puts before it
	// depend on what the store already holds). record.post-reply is
	// passed after the reply is written, so the client can be ahead of
	// it.
	commitPoints := func(op func()) []string {
		mu.Lock()
		seen = nil
		mu.Unlock()
		op()
		select {
		case <-replied:
		case <-time.After(5 * time.Second):
			t.Fatalf("commit never reached %s", chaos.CrashRecordPostReply)
		}
		mu.Lock()
		defer mu.Unlock()
		for i, p := range seen {
			if p == chaos.CrashRecordPostChunks {
				return append([]string(nil), seen[i:]...)
			}
		}
		t.Fatalf("commit never passed %s: %v", chaos.CrashRecordPostChunks, seen)
		return nil
	}

	want := []string{
		chaos.CrashRecordPostChunks,
		chaos.CrashSnapfilePreRename, chaos.CrashSnapfilePostRename,
		chaos.CrashRecordPreJournal,
		chaos.CrashManifestPreSync, chaos.CrashManifestPostAppend,
		chaos.CrashRecordPostReply,
	}
	record := commitPoints(func() {
		if resp := doJSON(t, "POST", dst.URL+"/functions/hello-world/record", nil, nil); resp.StatusCode != 200 {
			t.Fatalf("record = %d", resp.StatusCode)
		}
	})
	if !reflect.DeepEqual(record, want) {
		t.Fatalf("record commit order = %v, want %v", record, want)
	}
	synced := commitPoints(func() {
		body := map[string]interface{}{"source": strings.TrimPrefix(src.URL, "http://"), "eager": true}
		if resp := doJSON(t, "POST", dst.URL+"/functions/hello-world/sync", body, nil); resp.StatusCode != 200 {
			t.Fatalf("sync = %d", resp.StatusCode)
		}
	})
	if !reflect.DeepEqual(synced, want) {
		t.Fatalf("sync commit order = %v, want %v", synced, want)
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
			"sync": func() int { return post("POST", dst.URL+"/functions/"+fn+"/sync", syncBody) },
			"put":  func() int { return post("PUT", dst.URL+"/functions/"+fn, nil) },
		}
		if round%2 == 0 {
			post("DELETE", dst.URL+"/functions/"+fn, nil)
		} else {
			ops["record"] = func() int {
				return post("POST", dst.URL+"/functions/"+fn+"/record", map[string]string{"input": "B"})
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
	if _, n, _ := d.life.observeDeficit(fn); n != 0 {
		t.Fatalf("%d chunks of the final chunk map are missing from the store", n)
	}
}
