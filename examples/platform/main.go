// Platform: the full control plane end to end. This example runs the
// FaaSnap daemon and the Redis-like kvstore in-process, then drives
// them exactly as a load balancer would — register a function over
// REST, record a snapshot (persisted as a snapfile), plant a custom
// input descriptor in the kvstore, and invoke under two modes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"faasnap/internal/daemon"
	"faasnap/internal/kvstore"
)

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func call(method, url string, body interface{}) map[string]interface{} {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		must(err)
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	must(err)
	resp, err := http.DefaultClient.Do(req)
	must(err)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	must(err)
	if resp.StatusCode/100 != 2 {
		log.Fatalf("%s %s: %d: %s", method, url, resp.StatusCode, raw)
	}
	out := map[string]interface{}{}
	if len(raw) > 0 {
		_ = json.Unmarshal(raw, &out)
	}
	return out
}

func main() {
	// External storage for inputs/outputs (the paper runs Redis on the
	// host; this is the bundled RESP-compatible store).
	kv := kvstore.NewServer()
	kvAddr, err := kv.Listen("127.0.0.1:0")
	must(err)
	defer kv.Close()

	stateDir, err := os.MkdirTemp("", "faasnap-state-*")
	must(err)
	defer os.RemoveAll(stateDir)

	d, err := daemon.New(daemon.Config{StateDir: stateDir, KVAddr: kvAddr})
	must(err)
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	fmt.Printf("daemon at %s, kvstore at %s, state in %s\n\n", srv.URL, kvAddr, stateDir)

	// Register and boot a function VM (drives the Firecracker-style
	// VMM API underneath).
	info := call("PUT", srv.URL+"/functions/pyaes", nil)
	fmt.Printf("registered %v (vm %v)\n", info["name"], info["vm_state"])

	// Record phase.
	rec := call("POST", srv.URL+"/functions/pyaes/record", map[string]string{"input": "A"})
	res := rec["result"].(map[string]interface{})
	fmt.Printf("recorded: %v working-set pages, loading set %v pages in %v regions\n",
		res["WSPages"], res["LSPages"], res["LSRegions"])

	// Plant a custom input in the kvstore: a 4x payload the function
	// has never seen.
	kvc, err := kvstore.Dial(kvAddr)
	must(err)
	defer kvc.Close()
	desc, _ := json.Marshal(map[string]interface{}{
		"name": "spike", "bytes": 80 << 10, "seed": 99, "data_pages": 600,
	})
	must(kvc.Set("input:pyaes:spike", desc))
	fmt.Println("planted input descriptor input:pyaes:spike in the kvstore")

	// Invoke under vanilla Firecracker and FaaSnap with that input.
	for _, mode := range []string{"firecracker", "faasnap"} {
		out := call("POST", srv.URL+"/functions/pyaes/invoke",
			map[string]string{"mode": mode, "input": "spike"})
		fmt.Printf("  %-12s total %.1f ms (setup %.1f, invoke %.1f; %v faults, %v major)\n",
			mode, out["total_ms"], out["setup_ms"], out["invoke_ms"], out["faults"], out["major_faults"])
	}

	// The snapshot survives daemon restarts via its snapfile.
	entries, err := os.ReadDir(stateDir)
	must(err)
	for _, e := range entries {
		st, _ := e.Info()
		fmt.Printf("\npersisted artifact: %s (%d bytes)\n", e.Name(), st.Size())
	}
	// The daemon's counters live in its telemetry registry.
	resp, err := http.Get(srv.URL + "/metrics")
	must(err)
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if line := sc.Text(); strings.HasPrefix(line, "faasnap_invocations_total") || strings.HasPrefix(line, "faasnap_records_total") {
			fmt.Println("daemon metrics:", line)
		}
	}
}
