// Command faasnapctl is a CLI client for the FaaSnap daemon.
//
//	faasnapctl -addr 127.0.0.1:8700 create hello-world
//	faasnapctl record hello-world A
//	faasnapctl invoke hello-world faasnap B
//	faasnapctl burst hello-world faasnap A 16 same
//	faasnapctl list
//	faasnapctl metrics
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"faasnap/internal/daemon"
	"faasnap/internal/resilience"
	"faasnap/internal/trace"
)

var (
	addr    = flag.String("addr", "127.0.0.1:8700", "daemon or gateway address")
	retries = flag.Int("retries", 4, "retries after a 429 shed (Retry-After honored, jittered backoff)")
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: faasnapctl [-addr host:port] [-retries n] <command> [args]

commands:
  list                                      list functions
  create <fn>                               register and boot a catalog function
  create-custom <spec.json>                 register a custom function from a spec file
  record <fn> [input]                       run the record phase (input: A, B, ratio:<x>)
  invoke <fn> [mode] [input]                invoke (mode: warm|firecracker|cached|reap|faasnap|...)
  burst <fn> <mode> <input> <parallel> [same|diff]
  delete <fn>                               remove a function
  manifest                                  daemon status: readiness, load, durable-state manifest (digest,
                                            per-function generations, chunks missing)
  cas                                       chunk-store occupancy and dedup accounting
  chunkmap <fn>                             snapshot chunk-map summary (count, bytes, loading set)
  sync <fn> <source host:port>              pull fn's snapshot from a peer, missing chunks only
  gc [demote]                               sweep unreferenced chunks (demote: compress cold chunks)
  traces [id]                               list invocation traces, or fetch one (Zipkin v2 JSON)
  waterfall <trace-id>                      render a trace as an ASCII waterfall (restore, gc, sweep, recovery)
  events [--follow] [--cluster]             event ledger; --follow streams NDJSON from a daemon,
                                            --cluster merges every backend's ledger via a gateway
  metrics                                   daemon metrics (Prometheus text)
  cluster [fn]                              gateway topology (and fn's placement preference)
  slo                                       SLO burn-rate report (/cluster/slo on a gateway, /slo on a daemon)
  profiles [fn]                             flight-recorder summary (/cluster/profiles or /profiles?summary=1)
  profiles slowest <n> [fn]                 slowest n invocations with trace-id exemplars (daemon only)

429 responses are retried up to -retries times, sleeping at least the
server's Retry-After hint with jittered exponential backoff.

gateway: point -addr at a faasnap-gw instance to use the multi-host
tier; every command above works unchanged, e.g.
  faasnapctl -addr 127.0.0.1:8800 invoke hello-world faasnap A
  faasnapctl -addr 127.0.0.1:8800 cluster hello-world
`)
	os.Exit(2)
}

// doOnce issues one request, returning the response and its body. A
// reply routed through a gateway says on stderr where it landed.
func doOnce(method, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+*addr+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, h := range []string{"X-Faasnap-Backend", "X-Faasnap-Placement", "X-Faasnap-Replicated-To"} {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(os.Stderr, "%s: %s\n", h, v)
		}
	}
	return resp, raw, nil
}

// mustOK exits with the server's error unless the response is a 2xx.
func mustOK(resp *http.Response, raw []byte) {
	if resp.StatusCode/100 != 2 {
		fmt.Fprintf(os.Stderr, "error (%d): %s\n", resp.StatusCode, bytes.TrimSpace(raw))
		os.Exit(1)
	}
}

// printBody prints a response body, indented when it is JSON.
func printBody(raw []byte) {
	var pretty bytes.Buffer
	switch {
	case len(raw) == 0:
		fmt.Println("ok")
	case json.Indent(&pretty, raw, "", "  ") == nil:
		fmt.Println(pretty.String())
	default:
		fmt.Println(string(bytes.TrimSpace(raw)))
	}
}

func call(method, path string, body interface{}) {
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			fatal(err)
		}
	}
	var resp *http.Response
	var raw []byte
	for attempt := 0; ; attempt++ {
		var err error
		resp, raw, err = doOnce(method, path, buf)
		if err != nil {
			fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= *retries {
			break
		}
		// Shed by admission control: honor the server's Retry-After as
		// the backoff floor, jittered and growing per attempt so
		// retrying clients spread out instead of re-converging.
		base := time.Second
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			base = time.Duration(ra) * time.Second
		}
		delay := resilience.BackoffDelay(attempt, base, 30*time.Second)
		fmt.Fprintf(os.Stderr, "saturated (429); retrying in %v (attempt %d/%d)\n",
			delay.Round(time.Millisecond), attempt+1, *retries)
		time.Sleep(delay)
	}
	mustOK(resp, raw)
	printBody(raw)
}

// callFallback GETs paths in order, printing the first non-404
// response — how one command works against both tiers (the gateway
// serves /cluster/slo, the daemon /slo).
func callFallback(paths ...string) {
	for i, p := range paths {
		resp, raw, err := doOnce("GET", p, nil)
		if err != nil {
			fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound && i < len(paths)-1 {
			continue
		}
		mustOK(resp, raw)
		printBody(raw)
		return
	}
}

// argc exits with the usage text unless a command got min..max
// arguments.
func argc(rest []string, min, max int) {
	if len(rest) < min || len(rest) > max {
		usage()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faasnapctl:", err)
	os.Exit(1)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// streamEvents follows a daemon's ledger as NDJSON (GET /events?watch=1),
// printing each event line as it arrives until interrupted or the
// daemon shuts the stream down.
func streamEvents() {
	resp, err := http.Get("http://" + *addr + "/events?watch=1")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		mustOK(resp, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			fmt.Println(string(line))
		}
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		call("GET", "/functions", nil)
	case "manifest":
		argc(rest, 0, 0)
		call("GET", "/status", nil)
	case "metrics":
		call("GET", "/metrics", nil)
	case "cluster":
		argc(rest, 0, 1)
		path := "/cluster"
		if len(rest) == 1 {
			path += "?fn=" + rest[0]
		}
		call("GET", path, nil)
	case "slo":
		argc(rest, 0, 0)
		callFallback("/cluster/slo", "/slo")
	case "profiles":
		if len(rest) > 0 && rest[0] == "slowest" {
			argc(rest, 2, 3)
			if _, err := strconv.Atoi(rest[1]); err != nil {
				fatal(fmt.Errorf("bad slowest count %q", rest[1]))
			}
			path := "/profiles?slowest=" + rest[1]
			if len(rest) == 3 {
				path += "&fn=" + rest[2]
			}
			call("GET", path, nil)
			break
		}
		argc(rest, 0, 1)
		if len(rest) == 1 {
			call("GET", "/profiles?summary=1&fn="+rest[0], nil)
			break
		}
		callFallback("/cluster/profiles", "/profiles?summary=1")
	case "traces":
		if len(rest) == 0 {
			call("GET", "/traces", nil)
		} else {
			call("GET", "/traces/"+rest[0], nil)
		}
	case "waterfall":
		argc(rest, 1, 1)
		resp, raw, err := doOnce("GET", "/traces/"+rest[0], nil)
		if err != nil {
			fatal(err)
		}
		mustOK(resp, raw)
		var spans []*trace.Span
		if err := json.Unmarshal(raw, &spans); err != nil {
			fatal(fmt.Errorf("bad trace body: %w", err))
		}
		fmt.Print(trace.RenderWaterfall(spans))
	case "events":
		follow, cluster := false, false
		for _, a := range rest {
			switch a {
			case "--follow", "follow":
				follow = true
			case "--cluster", "cluster":
				cluster = true
			default:
				usage()
			}
		}
		if cluster {
			call("GET", "/cluster/events", nil)
			break
		}
		if follow {
			streamEvents()
			break
		}
		// Unqualified `events` works against either tier: the gateway
		// serves the merged cluster view, a daemon its own ledger.
		callFallback("/cluster/events", "/events")
	case "create":
		argc(rest, 1, 1)
		call("PUT", "/functions/"+rest[0], nil)
	case "create-custom":
		argc(rest, 1, 1)
		raw, err := os.ReadFile(rest[0])
		if err != nil {
			fatal(err)
		}
		var spec map[string]interface{}
		if err := json.Unmarshal(raw, &spec); err != nil {
			fatal(fmt.Errorf("bad spec file: %w", err))
		}
		name, _ := spec["name"].(string)
		if name == "" {
			fatal(fmt.Errorf("spec file has no name"))
		}
		call("PUT", "/functions/"+name, spec)
	case "cas":
		argc(rest, 0, 0)
		call("GET", "/cas", nil)
	case "chunkmap":
		argc(rest, 1, 1)
		call("GET", "/functions/"+rest[0]+"/chunkmap?summary=1", nil)
	case "sync":
		argc(rest, 2, 2)
		call("POST", "/functions/"+rest[0]+"/sync", daemon.SyncRequest{Source: rest[1]})
	case "gc":
		argc(rest, 0, 1)
		demote := len(rest) == 1 && rest[0] == "demote"
		body, _ := json.Marshal(map[string]interface{}{"demote": demote})
		resp, raw, err := doOnce("POST", "/gc", body)
		if err != nil {
			fatal(err)
		}
		mustOK(resp, raw)
		printBody(raw)
		var gr daemon.GCResponse
		if json.Unmarshal(raw, &gr) == nil {
			fmt.Printf("gc: examined %d chunks, freed %d (%s reclaimed), demoted %d, in %.1fms\n",
				gr.ChunksExamined, gr.Removed, fmtBytes(gr.ReclaimedBytes), gr.Demoted, gr.WallMs)
		}
	case "delete":
		argc(rest, 1, 1)
		call("DELETE", "/functions/"+rest[0], nil)
	case "record":
		argc(rest, 1, 2)
		input := "A"
		if len(rest) == 2 {
			input = rest[1]
		}
		call("POST", "/functions/"+rest[0]+"/record", map[string]string{"input": input})
	case "invoke":
		argc(rest, 1, 3)
		mode, input := "faasnap", "A"
		if len(rest) >= 2 {
			mode = rest[1]
		}
		if len(rest) == 3 {
			input = rest[2]
		}
		call("POST", "/functions/"+rest[0]+"/invoke", map[string]string{"mode": mode, "input": input})
	case "burst":
		argc(rest, 4, 5)
		parallel, err := strconv.Atoi(rest[3])
		if err != nil {
			fatal(fmt.Errorf("bad parallel count %q", rest[3]))
		}
		same := true
		if len(rest) == 5 && rest[4] == "diff" {
			same = false
		}
		call("POST", "/functions/"+rest[0]+"/burst", map[string]interface{}{
			"mode": rest[1], "input": rest[2], "parallel": parallel, "same_snapshot": same,
		})
	default:
		usage()
	}
}
