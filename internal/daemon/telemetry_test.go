package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRequestLoggingMiddleware(t *testing.T) {
	var buf bytes.Buffer
	d, err := New(Config{Logger: log.New(&buf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Scrape and liveness probes are noise, never access-logged.
	for _, probe := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/functions/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	logged := buf.String()
	if strings.Contains(logged, "/healthz") || strings.Contains(logged, "/metrics") {
		t.Fatalf("probe noise access-logged:\n%s", logged)
	}
	if !strings.Contains(logged, "GET /functions/nope -> 404") {
		t.Fatalf("404 status not logged:\n%s", logged)
	}
}

// TestStitchedTrace drives one invocation end to end and asserts the
// resulting trace carries spans from all three layers — daemon, VMM,
// and guest agent — under one trace id with consistent parent links
// and monotone timestamps.
func TestStitchedTrace(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	var inv InvokeResponse
	doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, &inv)
	if inv.TraceID == "" {
		t.Fatal("no trace id")
	}

	var spans []map[string]interface{}
	resp := doJSON(t, "GET", srv.URL+"/traces/"+inv.TraceID, nil, &spans)
	if resp.StatusCode != 200 {
		t.Fatalf("trace get = %d", resp.StatusCode)
	}

	byID := map[string]map[string]interface{}{}
	service := func(s map[string]interface{}) string {
		tags, _ := s["tags"].(map[string]interface{})
		if tags == nil {
			return ""
		}
		svc, _ := tags["service"].(string)
		return svc
	}
	var root map[string]interface{}
	for _, s := range spans {
		if s["traceId"].(string) != inv.TraceID {
			t.Fatalf("span %v under wrong trace", s["id"])
		}
		byID[s["id"].(string)] = s
		if s["name"] == "invocation" {
			root = s
		}
	}
	if root == nil {
		t.Fatalf("no root invocation span in %v", spans)
	}

	// All three layers contributed spans.
	var vmmSpan, agentSpan, execSpan map[string]interface{}
	for _, s := range spans {
		switch service(s) {
		case "vmm":
			if s["name"] == "PUT /snapshot/load" {
				vmmSpan = s
			}
		case "guest-agent":
			switch s["name"] {
			case "POST /invoke":
				agentSpan = s
			case "guest-execute":
				execSpan = s
			}
		}
	}
	if vmmSpan == nil {
		t.Fatalf("no VMM snapshot-load span in %v", spans)
	}
	if agentSpan == nil || execSpan == nil {
		t.Fatalf("missing guest-agent spans in %v", spans)
	}

	// Parent links: VMM restore under the daemon root, agent request
	// under the VMM restore, guest execution under the agent request.
	if vmmSpan["parentId"] != root["id"] {
		t.Fatalf("vmm span parent = %v, want root %v", vmmSpan["parentId"], root["id"])
	}
	if agentSpan["parentId"] != vmmSpan["id"] {
		t.Fatalf("agent span parent = %v, want vmm span %v", agentSpan["parentId"], vmmSpan["id"])
	}
	if execSpan["parentId"] != agentSpan["id"] {
		t.Fatalf("exec span parent = %v, want agent span %v", execSpan["parentId"], agentSpan["id"])
	}

	// Every child's timestamp is at or after its parent's.
	for _, s := range spans {
		pid, _ := s["parentId"].(string)
		if pid == "" {
			continue
		}
		parent, ok := byID[pid]
		if !ok {
			t.Fatalf("span %v has unknown parent %q", s["id"], pid)
		}
		if s["timestamp"].(float64) < parent["timestamp"].(float64) {
			t.Fatalf("span %v (ts %v) starts before its parent %v (ts %v)",
				s["id"], s["timestamp"], pid, parent["timestamp"])
		}
	}
}

func TestPrometheusMetricsEndpoint(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE faasnap_invocations_total counter",
		`faasnap_invocations_total{mode="faasnap"} 1`,
		"# TYPE faasnap_fault_latency_seconds histogram",
		`faasnap_fault_latency_seconds_bucket{kind="`,
		"# TYPE faasnap_http_request_seconds histogram",
		`faasnap_http_request_seconds_bucket{route="POST /functions/{name}/invoke",le="+Inf"} 1`,
		`faasnap_http_requests_total{class="2xx",route="POST /functions/{name}/invoke"} 1`,
		"faasnap_records_total",
		"faasnap_snapshot_bytes",
		"faasnap_vmm_boots_total 1",
		"faasnap_vmm_restores_total 1",
		`faasnap_guest_invocations_total{function="hello-world"} 1`,
		"faasnap_pagecache_",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}

	// With no traffic in between, a second scrape is byte-identical.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("scrapes differ with no traffic:\n--- first ---\n%s\n--- second ---\n%s", raw, raw2)
	}
}

func TestTraceListLimit(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	var ids []string
	for i := 0; i < 3; i++ {
		var inv InvokeResponse
		doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
			map[string]string{"mode": "faasnap", "input": "B"}, &inv)
		ids = append(ids, inv.TraceID)
	}

	var got []string
	doJSON(t, "GET", srv.URL+"/traces?limit=2", nil, &got)
	if len(got) != 2 || got[0] != ids[2] || got[1] != ids[1] {
		t.Fatalf("traces?limit=2 = %v, want newest-first %v", got, []string{ids[2], ids[1]})
	}
	got = nil
	doJSON(t, "GET", srv.URL+"/traces", nil, &got)
	if len(got) != 3 || got[0] != ids[2] {
		t.Fatalf("traces = %v, want 3 newest-first", got)
	}
	// A limit must be a positive count, as for /profiles: limit=0 does
	// not mean "everything".
	for _, limit := range []string{"bogus", "0"} {
		resp := doJSON(t, "GET", srv.URL+"/traces?limit="+limit, nil, nil)
		if resp.StatusCode != 400 {
			t.Fatalf("limit=%s = %d, want 400", limit, resp.StatusCode)
		}
	}
}

func TestFaultTimelineEndpoint(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil)

	// Non-watch GET dumps the last invocation's timeline.
	resp, err := http.Get(srv.URL + "/functions/hello-world/faults")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var ln map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ln["event"].(string))
	}
	if len(kinds) < 3 || kinds[0] != "invocation" || kinds[len(kinds)-1] != "end" {
		t.Fatalf("timeline events = %v, want invocation ... end with faults between", kinds)
	}
	foundFault := false
	for _, k := range kinds {
		if k == "fault" {
			foundFault = true
		}
	}
	if !foundFault {
		t.Fatal("no fault events in timeline")
	}

	// Unknown functions 404.
	resp404, err := http.Get(srv.URL + "/functions/nope/faults")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != 404 {
		t.Fatalf("unknown function faults = %d", resp404.StatusCode)
	}
}

func TestFaultTimelineWatch(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	doJSON(t, "PUT", srv.URL+"/functions/hello-world", nil, nil)
	doJSON(t, "POST", srv.URL+"/functions/hello-world/record", nil, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/functions/hello-world/faults?watch=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Stream events concurrently with the invoke that produces them.
	events := make(chan string, 4096)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var ln map[string]interface{}
			if json.Unmarshal(sc.Bytes(), &ln) == nil {
				events <- ln["event"].(string)
			}
		}
	}()

	doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
		map[string]string{"mode": "faasnap", "input": "B"}, nil)

	var got []string
	for ev := range events {
		got = append(got, ev)
		if ev == "end" {
			cancel() // disconnect the watcher; the scanner goroutine exits
		}
	}
	if len(got) < 3 || got[0] != "invocation" || got[len(got)-1] != "end" {
		t.Fatalf("streamed events = %v, want invocation ... end", got)
	}
}
