package daemon

// Tests for the durable manifest integration: registrations (snapshot
// or spec-only) survive restarts, journaled deletes never resurrect,
// orphan snapfiles are quarantined, and the recovering readyz state
// holds off traffic until replay completes.

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"faasnap/internal/snapfile"
	"faasnap/internal/workload"
)

func TestSpecOnlyRegistrationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})

	// Catalog function, registered but never recorded: no snapfile on
	// disk, so only the manifest can carry it across the restart.
	if resp := doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	// Custom function with a spec body: the spec JSON must be journaled
	// too, or recovery cannot rebuild it.
	custom := workload.SpecConfig{
		Name: "pr-custom", Description: "manifest round-trip",
		BootMB: 100, StablePages: 2000, ChunkMean: 4,
		RetainFrac: 0.2, BaseMs: 20, PerPageUs: 1,
		InputA: workload.InputConfig{Bytes: 1 << 10, DataPages: 100},
		InputB: workload.InputConfig{Bytes: 2 << 10, DataPages: 200},
	}
	if resp := doJSON(t, "PUT", srv.URL+"/functions/pr-custom", custom, nil); resp.StatusCode != 200 {
		t.Fatalf("create custom = %d", resp.StatusCode)
	}

	_, srv2 := newTestDaemon(t, Config{StateDir: dir})
	var info FunctionInfo
	if resp := doJSON(t, "GET", srv2.URL+"/functions/hello-world", nil, &info); resp.StatusCode != 200 {
		t.Fatalf("hello-world lost across restart: %d", resp.StatusCode)
	}
	if info.HasSnapshot {
		t.Fatal("snapshot appeared from nowhere")
	}
	if resp := doJSON(t, "GET", srv2.URL+"/functions/pr-custom", nil, &info); resp.StatusCode != 200 {
		t.Fatalf("custom registration lost across restart: %d", resp.StatusCode)
	}
	if info.Description != "manifest round-trip" {
		t.Fatalf("custom spec not recovered: %+v", info)
	}
}

func TestJournaledDeleteNeverResurrects(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})
	recordedFn(t, srv.URL)
	if resp := doJSON(t, "DELETE", srv.URL+"/functions/hello-world", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}

	_, srv2 := newTestDaemon(t, Config{StateDir: dir})
	if resp := doJSON(t, "GET", srv2.URL+"/functions/hello-world", nil, nil); resp.StatusCode != 404 {
		t.Fatalf("deleted function resurrected after restart: %d", resp.StatusCode)
	}
	// The tombstone itself must survive, with the generation history.
	var mr StatusResponse
	if resp := doJSON(t, "GET", srv2.URL+"/status", nil, &mr); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var found bool
	for _, e := range mr.Functions {
		if e.Name == "hello-world" {
			found = true
			if !e.Deleted || e.Generation < 3 {
				t.Fatalf("tombstone = %+v", e)
			}
		}
	}
	if !found {
		t.Fatalf("tombstone missing from manifest: %+v", mr.Functions)
	}
}

func TestOrphanSnapfileQuarantinedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})
	recordedFn(t, srv.URL)

	// Fabricate the crash-between-commit-and-journal state: a valid
	// snapfile on disk for a function the manifest has never heard of.
	spec, err := workload.ByName("read-list")
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "hello-world.snap")
	orphan := filepath.Join(dir, "read-list.snap")
	arts, chunks, err := snapfile.LoadChunked(src)
	if err != nil {
		t.Fatal(err)
	}
	arts.Fn = spec
	if err := snapfile.SaveChunked(orphan, arts, chunks); err != nil {
		t.Fatal(err)
	}
	// And a stray temp file, the other mid-write leftover.
	tmp := filepath.Join(dir, "mmap.snap.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, srv2 := newTestDaemon(t, Config{StateDir: dir})
	if resp := doJSON(t, "GET", srv2.URL+"/functions/read-list", nil, nil); resp.StatusCode != 404 {
		t.Fatalf("unacknowledged snapshot served: %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "read-list.snap")); err != nil {
		t.Fatalf("orphan not quarantined: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan still in state dir: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived recovery: %v", err)
	}
	// The acknowledged function is untouched.
	var info FunctionInfo
	if resp := doJSON(t, "GET", srv2.URL+"/functions/hello-world", nil, &info); resp.StatusCode != 200 || !info.HasSnapshot {
		t.Fatalf("acknowledged snapshot lost: %d %+v", resp.StatusCode, info)
	}
}

func TestReadyzRecoveringState(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})
	recordedFn(t, srv.URL)

	d2, err := New(Config{StateDir: dir, Logger: log.New(io.Discard, "", 0), AsyncRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)
	// Async recovery may already have finished — both orders are legal;
	// what is fixed is the contract: recovering ⇒ 503 + Retry-After,
	// recovered ⇒ 200 with the registry fully rebuilt.
	srv2 := httptest.NewServer(d2.Handler())
	t.Cleanup(srv2.Close)
	resp := doJSON(t, "GET", srv2.URL+"/readyz", nil, nil)
	if d2.recovering.Load() && resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
		t.Fatal("recovering readyz missing Retry-After")
	}
	d2.WaitRecovered()
	if resp := doJSON(t, "GET", srv2.URL+"/readyz", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("readyz after recovery = %d", resp.StatusCode)
	}
	var info FunctionInfo
	if resp := doJSON(t, "GET", srv2.URL+"/functions/hello-world", nil, &info); resp.StatusCode != 200 || !info.HasSnapshot {
		t.Fatalf("registry incomplete after recovery: %d %+v", resp.StatusCode, info)
	}
}

func TestStatusEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir, Resilience: ResilienceConfig{MaxInFlight: 7}})
	recordedFn(t, srv.URL)

	var mr StatusResponse
	if resp := doJSON(t, "GET", srv.URL+"/status", nil, &mr); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !mr.Ready || len(mr.Reasons) != 0 || mr.Digest == "" || mr.Recovering {
		t.Fatalf("status response = %+v", mr)
	}
	// The load section is read straight from the limiter.
	if mr.AdmissionUsed != 0 || mr.AdmissionMax != 7 {
		t.Fatalf("idle load = admission %d/%d; want 0/7", mr.AdmissionUsed, mr.AdmissionMax)
	}
	if len(mr.Functions) != 1 {
		t.Fatalf("functions = %+v", mr.Functions)
	}
	e := mr.Functions[0]
	if e.Name != "hello-world" || !e.HasSnapshot || e.Generation != 2 || e.RecordInput == "" {
		t.Fatalf("entry = %+v", e)
	}

	// Stateless daemons answer too, with the manifest section omitted.
	_, srv2 := newTestDaemon(t, Config{})
	var raw map[string]json.RawMessage
	if resp := doJSON(t, "GET", srv2.URL+"/status", nil, &raw); resp.StatusCode != 200 {
		t.Fatalf("stateless status = %d, want 200", resp.StatusCode)
	}
	if string(raw["ready"]) != "true" {
		t.Fatalf("stateless daemon not ready: %s", raw["ready"])
	}
	for _, k := range []string{"digest", "functions"} {
		if _, ok := raw[k]; ok {
			t.Fatalf("stateless status carries a %q section: %s", k, raw[k])
		}
	}
}
