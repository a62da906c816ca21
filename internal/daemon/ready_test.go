package daemon

// Tests for GET /readyz (readiness distinct from /healthz liveness)
// and for trace-id adoption from an upstream traceparent — the two
// daemon-side contracts the gateway tier depends on.

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"faasnap/internal/kvstore"
)

func TestReadyzOK(t *testing.T) {
	kv := kvstore.NewServer()
	addr, err := kv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir(), KVAddr: addr})
	var out map[string]bool
	resp := doJSON(t, "GET", srv.URL+"/readyz", nil, &out)
	if resp.StatusCode != 200 || !out["ready"] {
		t.Fatalf("readyz = %d %v", resp.StatusCode, out)
	}
}

// A daemon whose kvstore is gone stays alive (/healthz 200) but is not
// ready (/readyz 503), so a gateway drains instead of black-holing.
func TestReadyzDrainsOnKvstoreOutageAndRecovers(t *testing.T) {
	kv := kvstore.NewServer()
	addr, err := kv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newTestDaemon(t, Config{KVAddr: addr})

	kv.Close()
	resp := doJSON(t, "GET", srv.URL+"/readyz", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with kvstore down = %d, want 503", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", srv.URL+"/healthz", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("healthz = %d, want 200 (liveness unaffected)", resp.StatusCode)
	}

	// Bring a kvstore back on the same address: the daemon's client
	// reconnects on the next PING and readiness recovers without a
	// daemon restart.
	var back *kvstore.Server
	waitFor(t, "rebind kvstore "+addr, func() bool {
		back = kvstore.NewServer()
		_, err = back.Listen(addr)
		return err == nil
	})
	defer back.Close()
	resp = doJSON(t, "GET", srv.URL+"/readyz", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("readyz after kvstore restart = %d, want 200", resp.StatusCode)
	}
}

func TestReadyzFailsWhenStateDirVanishes(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestDaemon(t, Config{StateDir: dir})
	if resp := doJSON(t, "GET", srv.URL+"/readyz", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp := doJSON(t, "GET", srv.URL+"/readyz", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with missing state dir = %d, want 503", resp.StatusCode)
	}
}

// An invoke arriving with a traceparent keeps the upstream trace id,
// so the gateway (which minted it) can address the stitched trace.
func TestInvokeAdoptsUpstreamTraceID(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	recordedFn(t, srv.URL)

	req, err := http.NewRequest("POST", srv.URL+"/functions/hello-world/invoke", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-gw00000000cafe-0000000000000001-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("invoke = %d", resp.StatusCode)
	}
	var inv InvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	if inv.TraceID != "gw00000000cafe" {
		t.Fatalf("trace_id = %q, want the upstream id gw00000000cafe", inv.TraceID)
	}
	if r := doJSON(t, "GET", srv.URL+"/traces/gw00000000cafe", nil, nil); r.StatusCode != 200 {
		t.Fatalf("GET /traces/{upstream id} = %d, want 200", r.StatusCode)
	}
}
