package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/kvstore"
	"faasnap/internal/obs"
)

// TestServeExits drives both serving routes through every exit of the
// shared pipeline and checks, for each, the status, the Retry-After
// header, the degraded fields of a 200 reply, and that exactly one
// flight-recorder profile with the matching route and status was
// appended.
func TestServeExits(t *testing.T) {
	d, srv := newTestDaemon(t, Config{Resilience: ResilienceConfig{MaxInFlight: 4}})
	recordedFn(t, srv.URL)
	if resp := doJSON(t, "PUT", srv.URL+"/functions/json", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("create json = %d", resp.StatusCode)
	}
	// A second daemon whose every restore hangs past a short deadline.
	hung, hungSrv := newTestDaemon(t, Config{
		Resilience: ResilienceConfig{InvokeTimeout: 50 * time.Millisecond},
		Chaos: &chaos.Config{Enabled: true, Rules: []chaos.Rule{
			{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindHang},
		}},
	})
	recordedFn(t, hungSrv.URL)

	saturate := func() func() {
		if !d.limiter.Acquire(4) {
			t.Fatal("could not saturate the limiter")
		}
		return func() { d.limiter.Release(4) }
	}
	cases := []struct {
		name     string
		d        *Daemon
		base     string
		fn       string
		body     map[string]interface{}
		parallel int           // burst width, default 2
		prep     func() func() // arms the exit, returns the undo
		status   int
		retry    map[string]string // want Retry-After, by route
		degraded bool
	}{
		{name: "unknown function", fn: "nope", status: 404},
		{name: "no snapshot", fn: "json", status: 404},
		{name: "bad mode", body: map[string]interface{}{"mode": "bogus"}, status: 400},
		{name: "bad input", body: map[string]interface{}{"input": "Z"}, status: 400},
		// Out of range for /burst, not a field of /invoke at all.
		{name: "parallel out of range", parallel: 9999, body: map[string]interface{}{"parallel": 9999}, status: 400},
		{
			name: "recovering", status: 503,
			prep: func() func() {
				d.recovering.Store(true)
				return func() { d.recovering.Store(false) }
			},
			retry: map[string]string{"invoke": "1", "burst": "1"},
		},
		{
			// A full window of 4 sheds an invoke and a burst as wide as
			// the window alike, with ShedRetryAfter.
			name: "shed", status: 429, parallel: 4, prep: saturate,
			retry: map[string]string{"invoke": "2", "burst": "2"},
		},
		// Validation comes before admission on both routes.
		{name: "invalid at saturation", fn: "nope", status: 404, prep: saturate},
		{name: "deadline", d: hung, base: hungSrv.URL, status: 504},
		{
			// Last on the shared daemon: it leaves the function's restore
			// breaker open.
			name: "restore fallback", status: 200, degraded: true,
			prep: func() func() {
				err := d.chaos.Configure(chaos.Config{Enabled: true, Rules: []chaos.Rule{
					{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindError},
				}})
				if err != nil {
					t.Fatal(err)
				}
				return func() { _ = d.chaos.Configure(chaos.Config{}) }
			},
		},
	}
	for _, tc := range cases {
		for _, route := range []string{"invoke", "burst"} {
			t.Run(tc.name+"/"+route, func(t *testing.T) {
				dm, base, fn := tc.d, tc.base, tc.fn
				if dm == nil {
					dm, base = d, srv.URL
				}
				if fn == "" {
					fn = "hello-world"
				}
				body := map[string]interface{}{"mode": "faasnap", "input": "B"}
				if route == "burst" {
					body["parallel"] = 2
					if tc.parallel != 0 {
						body["parallel"] = tc.parallel
					}
				}
				for k, v := range tc.body {
					body[k] = v
				}
				if tc.prep != nil {
					defer tc.prep()()
				}
				before := dm.profiles.Len()
				raw, _ := json.Marshal(body)
				resp, err := http.Post(base+"/functions/"+fn+"/"+route, "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				// The body ends only once the handler has returned, profile
				// appended.
				replyBody, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.status {
					t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
				}
				if got, want := resp.Header.Get("Retry-After"), tc.retry[route]; got != want {
					t.Fatalf("Retry-After = %q, want %q", got, want)
				}
				if tc.status == 200 {
					var reply struct {
						Mode           string `json:"mode"`
						Degraded       bool   `json:"degraded"`
						FallbackMode   string `json:"fallback_mode"`
						DegradedReason string `json:"degraded_reason"`
						Results        []InvokeResponse
					}
					if err := json.Unmarshal(replyBody, &reply); err != nil {
						t.Fatal(err)
					}
					if reply.Mode != "faasnap" || !reply.Degraded || reply.FallbackMode != "cold" || reply.DegradedReason == "" {
						t.Fatalf("reply = %+v, want a degraded cold fallback of a faasnap request", reply)
					}
					for i, r := range reply.Results {
						if r.Mode != "faasnap" || !r.Degraded || r.FallbackMode != "cold" || r.DegradedReason == "" {
							t.Fatalf("result %d = %+v, want the burst's fallback", i, r)
						}
					}
				}
				if n := dm.profiles.Len() - before; n != 1 {
					t.Fatalf("%d profiles appended, want exactly 1", n)
				}
				p := dm.profiles.Query(obs.Filter{}, 1)[0]
				if p.Function != fn || p.Route != route || p.Status != tc.status {
					t.Fatalf("profile = %s/%s status %d, want %s/%s status %d", p.Function, p.Route, p.Status, fn, route, tc.status)
				}
				if p.Degraded != tc.degraded || (tc.degraded && (p.FallbackMode != "cold" || p.DegradedReason == "")) {
					t.Fatalf("profile degraded fields = %v/%q/%q", p.Degraded, p.FallbackMode, p.DegradedReason)
				}
			})
		}
	}
}

// postInput posts {"input": name} to one of the three routes that take
// an input name and returns the status and the error body. A handler
// panic would drop the connection and fail here.
func postInput(t *testing.T, base, fn, route, name string) (int, string) {
	t.Helper()
	req := map[string]interface{}{"input": name}
	if route == "burst" {
		req["parallel"] = 2
	}
	raw, _ := json.Marshal(req)
	resp, err := http.Post(base+"/functions/"+fn+"/"+route, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s %q: %v", route, name, err)
	}
	defer resp.Body.Close()
	var body errorBody
	if resp.StatusCode/100 != 2 {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %q: status %d without the daemon's error body: %v", route, name, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, body.Error
}

// TestBadInputNameIs400 sends every input name one of the old resolvers
// let through by accident — non-finite, non-positive, trailing garbage,
// too large for the guest heap — to every route that takes one. Each is
// a 400 naming the input, and the function keeps serving.
func TestBadInputNameIs400(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	recordedFn(t, srv.URL)
	for _, name := range []string{
		"ratio:NaN", "ratio:Inf", "ratio:+Inf", "ratio:-1", "ratio:0",
		"ratio:2abc", "ratio:", "ratio:1e4", "C",
	} {
		for _, route := range []string{"invoke", "burst", "record"} {
			status, msg := postInput(t, srv.URL, "hello-world", route, name)
			if status != 400 || !strings.Contains(msg, strconv.Quote(name)) {
				t.Errorf("%s %q = %d %q, want 400 naming the input", route, name, status, msg)
			}
		}
		if status, msg := postInput(t, srv.URL, "hello-world", "invoke", "ratio:2"); status != 200 {
			t.Fatalf("valid invoke after %q = %d %q", name, status, msg)
		}
	}
	for _, route := range []string{"burst", "record"} {
		if status, msg := postInput(t, srv.URL, "hello-world", route, "B"); status != 200 {
			t.Fatalf("valid %s after the bad names = %d %q", route, status, msg)
		}
	}
}

// TestKVStoreDescriptorIsSizeChecked plants input descriptors in the
// kvstore, where anyone who can reach it can write: one the guest cannot
// hold is a 400, not an unchecked trip into the guest allocator.
func TestKVStoreDescriptorIsSizeChecked(t *testing.T) {
	kv := kvstore.NewServer()
	addr, err := kv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	_, srv := newTestDaemon(t, Config{KVAddr: addr})
	recordedFn(t, srv.URL)
	c, err := kvstore.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, tc := range map[string]struct {
		desc   string
		status int
	}{
		"huge":      {`{"name":"huge","data_pages":1000000000}`, 400},
		"maxpages":  {`{"name":"maxpages","data_pages":9223372036854775807}`, 400},
		"negpages":  {`{"name":"negpages","data_pages":-5}`, 400},
		"negbytes":  {`{"name":"negbytes","bytes":-1,"data_pages":10}`, 400},
		"hugebytes": {`{"name":"hugebytes","bytes":1099511627776,"data_pages":10}`, 400},
		// An in-range descriptor for a larger input.
		"spike": {`{"name":"spike","bytes":81920,"seed":99,"data_pages":600}`, 200},
	} {
		if err := c.Set("input:hello-world:"+name, []byte(tc.desc)); err != nil {
			t.Fatal(err)
		}
		for _, route := range []string{"invoke", "burst", "record"} {
			if status, msg := postInput(t, srv.URL, "hello-world", route, name); status != tc.status {
				t.Errorf("%s %s = %d %q, want %d", route, name, status, msg, tc.status)
			}
		}
	}
}
