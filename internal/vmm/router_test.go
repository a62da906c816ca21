package vmm

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"faasnap/internal/pipenet"
	"faasnap/internal/telemetry"
)

// TestRouterParity pins what each (method, path) reaches on a fresh
// machine: the status and fault message of the six routes, of wrong
// methods on them, and of paths that only look like them. Routes are
// matched on the exact path, so a trailing slash or a sub-path is the
// root handler's 404. Valid requests carry "{}" (or nothing), which each
// handler rejects or accepts in its own words, so the row shows which
// handler answered.
func TestRouterParity(t *testing.T) {
	cases := []struct {
		method, path, body string
		status             int
		fault              string
	}{
		{"GET", "/", "", 200, ""},
		{"GET", "/?verbose=1", "", 200, ""},
		{"PUT", "/", "{}", 404, "unknown resource PUT /"},
		{"POST", "/", "", 404, "unknown resource POST /"},
		{"GET", "/machine-config", "", 200, ""},
		{"PUT", "/machine-config", "{}", 400, "machine config must have positive vcpu_count and mem_size_mib"},
		{"PATCH", "/machine-config", "{}", 405, "unsupported method PATCH"},
		{"DELETE", "/machine-config", "", 405, "unsupported method DELETE"},
		{"PUT", "/snapshot/load", "{}", 400, "snapshot_path and mem_backend.backend_path are required"},
		{"PUT", "/snapshot/load", `{"resume_vm":"yes"}`, 400, "bad snapshot load request: json: cannot unmarshal string into Go struct field SnapshotLoadRequest.resume_vm of type bool"},
		{"GET", "/snapshot/load", "", 405, "unsupported method GET"},
		{"POST", "/snapshot/load", "{}", 405, "unsupported method POST"},
		{"PUT", "/snapshot/create", "{}", 400, "snapshots can only be taken of paused VMs"},
		{"GET", "/snapshot/create", "", 405, "unsupported method GET"},
		{"PUT", "/actions", "{}", 400, `unknown action_type ""`},
		{"GET", "/actions", "", 405, "unsupported method GET"},
		{"PATCH", "/vm", "{}", 400, `unknown vm state ""`},
		{"GET", "/vm", "", 405, "unsupported method GET"},
		{"PUT", "/vm", "{}", 405, "unsupported method PUT"},
		{"GET", "/snapshot", "", 404, "unknown resource GET /snapshot"},
		{"PUT", "/snapshot/", "{}", 404, "unknown resource PUT /snapshot/"},
		{"PATCH", "/vm/", "{}", 404, "unknown resource PATCH /vm/"},
		{"PATCH", "/vm/x", "{}", 404, "unknown resource PATCH /vm/x"},
		{"GET", "/machine-config/", "", 404, "unknown resource GET /machine-config/"},
		{"PUT", "/actions/InstanceStart", "{}", 404, "unknown resource PUT /actions/InstanceStart"},
		{"GET", "/metrics", "", 404, "unknown resource GET /metrics"},
	}
	for _, tc := range cases {
		_, c := newMachine(t)
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, "http://vmm"+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var ae apiError
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			if err := json.Unmarshal(raw, &ae); err != nil {
				t.Errorf("%s %s: %d reply %q is not a fault: %v", tc.method, tc.path, resp.StatusCode, raw, err)
			}
		}
		if resp.StatusCode != tc.status || ae.FaultMessage != tc.fault {
			t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, resp.StatusCode, ae.FaultMessage, tc.status, tc.fault)
		}
	}
}

// captureBodies records every request body a Client puts on the wire.
type captureBodies struct {
	base   http.RoundTripper
	bodies [][]byte
}

func (c *captureBodies) RoundTrip(req *http.Request) (*http.Response, error) {
	raw, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	c.bodies = append(c.bodies, raw)
	req.Body = io.NopCloser(bytes.NewReader(raw))
	return c.base.RoundTrip(req)
}

// A request and its EncodedLoad put the same bytes on the wire, those
// of json.Marshal, and the VMM loads what they describe.
func TestEncodedLoadIsTheWireBody(t *testing.T) {
	req := SnapshotLoadRequest{
		SnapshotPath: "/s/fn.state",
		MemBackend:   MemBackend{BackendType: "File", BackendPath: "/s/fn.mem"},
		ResumeVM:     true,
		RegionMaps: []RegionMap{
			{StartPage: 0, Pages: 524288, Backing: "anonymous"},
			{StartPage: 30000, Pages: 128, Backing: "loading_set", Path: "/s/fn.ls", Offset: 7},
		},
	}
	want, _ := json.Marshal(req)
	enc, err := EncodeLoad(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []LoadBody{req, enc} {
		m := Launch("vm-wire")
		t.Cleanup(m.Close)
		capture := &captureBodies{base: pipenet.Transport(m.lis)}
		c := &Client{HopClient: telemetry.NewHopClient(capture)}
		if err := c.LoadSnapshot(body); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		loaded := m.loaded
		m.mu.Unlock()
		if len(capture.bodies) != 1 || !bytes.Equal(capture.bodies[0], want) {
			t.Fatalf("%T sent %q, want %q", body, capture.bodies, want)
		}
		if !reflect.DeepEqual(*loaded, req) {
			t.Fatalf("%T loaded %+v, want %+v", body, *loaded, req)
		}
	}
}

// A load body is read and validated alike whether it declares its
// length, declares none, or declares one past the sized-read cap: the
// same status and the same message for each body.
func TestSnapshotLoadBodyLengths(t *testing.T) {
	good := `{"snapshot_path":"/s/x","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,` +
		`"region_maps":[{"start_page":0,"pages":4,"backing":"memory_file","path":"/m"}]}`
	bad := `{"snapshot_path":"/s/x","mem_backend":{"backend_path":"/m"},"region_maps":[{"pages":4,"backing":"bogus"}]}`
	for _, tc := range []struct {
		body   string
		status int
	}{
		{good, http.StatusNoContent},
		{good + strings.Repeat(" ", maxSizedLoad), http.StatusNoContent},
		{bad, http.StatusBadRequest},
		{good + "x", http.StatusBadRequest},         // trailing bytes
		{good[:len(good)-3], http.StatusBadRequest}, // truncated
	} {
		var first string
		for _, length := range []int64{int64(len(tc.body)), -1} {
			m, c := newMachine(t)
			req, _ := http.NewRequest(http.MethodPut, "http://vmm/snapshot/load", io.NopCloser(strings.NewReader(tc.body)))
			req.ContentLength = length
			resp, err := c.HTTP.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("%d-byte body, length %d: %d %s, want %d", len(tc.body), length, resp.StatusCode, msg, tc.status)
			}
			if length < 0 && string(msg) != first {
				t.Errorf("%d-byte body: %q without a length, %q with one", len(tc.body), msg, first)
			}
			first = string(msg)
			if tc.status == http.StatusNoContent && m.State() != StateRunning {
				t.Errorf("%d-byte body, length %d: state %v", len(tc.body), length, m.State())
			}
		}
	}
}
