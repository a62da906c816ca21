package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"faasnap/internal/chaos"
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
			// A full window of 4: ceil((4+1)/4) = 2 drain cycles for an
			// invoke, ceil((4+8)/4) = 3 for a burst of 8.
			name: "shed", status: 429, parallel: 8, prep: saturate,
			retry: map[string]string{"invoke": "2", "burst": "3"},
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
