// Command faasnap-trace records and analyzes the page-fault timeline
// of one invocation — the role bpftrace plays in the paper's Sections
// 3 and 6.5 measurements.
//
//	faasnap-trace -fn image -mode faasnap -input B
//	faasnap-trace -fn image -mode reap -input B -jsonl faults.jsonl
//
// With -daemon it analyzes a running faasnapd's fault stream instead
// of simulating locally: the most recent invocation's timeline by
// default, or every invocation as it completes with -watch.
//
//	faasnap-trace -daemon http://127.0.0.1:8700 -fn image
//	faasnap-trace -daemon http://127.0.0.1:8700 -fn image -watch
//
// The summary shows per-10ms buckets of fault kinds, the Figure 2
// style log₂ latency histogram, and the slowest individual faults.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/hostmm"
	"faasnap/internal/metrics"
	"faasnap/internal/workload"
)

func main() {
	var (
		fnName   = flag.String("fn", "image", "function to invoke")
		modeName = flag.String("mode", "faasnap", "restore mode")
		input    = flag.String("input", "B", "test input (A, B, ratio:<x>)")
		record   = flag.String("record", "A", "record-phase input (A, B, ratio:<x>)")
		jsonl    = flag.String("jsonl", "", "write per-fault events as JSON lines to this file")
		top      = flag.Int("top", 10, "show the N slowest faults")
		daemon   = flag.String("daemon", "", "analyze a running daemon's fault stream (base URL) instead of simulating")
		watch    = flag.Bool("watch", false, "with -daemon: keep analyzing invocations as they complete")
	)
	flag.Parse()

	if *daemon != "" {
		if err := analyzeDaemon(*daemon, *fnName, *watch, *top); err != nil {
			log.Fatal(err)
		}
		return
	}

	fn, err := workload.ByName(*fnName)
	if err != nil {
		log.Fatal(err)
	}
	mode, err := core.ParseMode(*modeName)
	if err != nil {
		log.Fatal(err)
	}
	recIn, err := fn.ResolveInput(*record)
	if err != nil {
		log.Fatal(err)
	}
	in, err := fn.ResolveInput(*input)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultHostConfig()
	fmt.Fprintf(os.Stderr, "recording %s with input %s...\n", fn.Name, recIn.Name)
	arts, _ := core.Record(cfg, fn, recIn)
	fmt.Fprintf(os.Stderr, "invoking %s under %s with input %s (traced)...\n", fn.Name, mode, in.Name)
	res := core.RunSingleTraced(cfg, arts, mode, in)

	fmt.Printf("%s / %s / input %s: total %v (setup %v, invoke %v)\n",
		fn.Name, mode, in.Name, res.Total.Round(100*time.Microsecond),
		res.Setup.Round(100*time.Microsecond), res.Invoke.Round(100*time.Microsecond))
	fmt.Printf("faults: %v\n\n", res.Faults)

	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		for _, ev := range res.FaultTrace {
			if err := enc.Encode(map[string]interface{}{
				"at_us":  ev.At.Microseconds(),
				"page":   ev.Page,
				"kind":   ev.Kind.String(),
				"dur_us": float64(ev.Duration) / float64(time.Microsecond),
				"write":  ev.Write,
			}); err != nil {
				log.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", len(res.FaultTrace), *jsonl)
	}

	analyze(res.FaultTrace, res.Faults, res.Setup, *top)
}

// analyze prints the timeline, latency distribution, and slowest
// faults for one invocation's events.
func analyze(events []hostmm.FaultEvent, stats *metrics.FaultStats, setup time.Duration, top int) {
	fmt.Println("timeline (10ms buckets of the invocation phase):")
	fmt.Printf("%8s %8s %8s %8s %8s %8s\n", "t (ms)", "anon", "minor", "major", "uffd", "pte-fix")
	for _, b := range hostmm.Timeline(events, setup, 10*time.Millisecond) {
		c := b.Counts
		fmt.Printf("%8d %8d %8d %8d %8d %8d\n", b.Start.Milliseconds(),
			c[metrics.FaultAnon], c[metrics.FaultMinor], c[metrics.FaultMajor],
			c[metrics.FaultUffd], c[metrics.FaultPTEFix])
	}

	fmt.Println("\nfault-time distribution (Figure 2 buckets):")
	fmt.Print(stats.Hist.String())

	if top > 0 && len(events) > 0 {
		sorted := append([]hostmm.FaultEvent(nil), events...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration > sorted[j].Duration })
		if len(sorted) > top {
			sorted = sorted[:top]
		}
		fmt.Printf("\nslowest %d faults:\n", len(sorted))
		for _, ev := range sorted {
			fmt.Printf("  t=%-10v page=%-8d kind=%-7s dur=%v\n",
				ev.At.Round(10*time.Microsecond), ev.Page, ev.Kind, ev.Duration.Round(100*time.Nanosecond))
		}
	}
}

// faultLine is one NDJSON line of the daemon's fault endpoint.
type faultLine struct {
	Event    string  `json:"event"`
	Function string  `json:"function"`
	Mode     string  `json:"mode"`
	Input    string  `json:"input"`
	TraceID  string  `json:"trace_id"`
	SetupUs  int64   `json:"setup_us"`
	TotalUs  int64   `json:"total_us"`
	AtUs     int64   `json:"at_us"`
	Page     int64   `json:"page"`
	Kind     string  `json:"kind"`
	DurUs    float64 `json:"dur_us"`
	Write    bool    `json:"write"`
}

// analyzeDaemon reads the daemon's fault timeline endpoint and runs
// the offline analysis on each completed invocation group.
func analyzeDaemon(base, fn string, watch bool, top int) error {
	url := base + "/functions/" + fn + "/faults"
	if watch {
		url += "?watch=1"
		fmt.Fprintf(os.Stderr, "watching %s (ctrl-c to stop)...\n", url)
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon returned status %d for %s", resp.StatusCode, url)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var (
		events []hostmm.FaultEvent
		stats  metrics.FaultStats
		setup  time.Duration
		meta   faultLine
		groups int
	)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ln faultLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			fmt.Fprintf(os.Stderr, "skipping bad line: %v\n", err)
			continue
		}
		switch ln.Event {
		case "invocation":
			meta = ln
			setup = time.Duration(ln.SetupUs) * time.Microsecond
			events = events[:0]
			stats = metrics.FaultStats{}
		case "fault":
			kind, err := metrics.ParseFaultKind(ln.Kind)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				continue
			}
			dur := time.Duration(ln.DurUs * float64(time.Microsecond))
			events = append(events, hostmm.FaultEvent{
				At:       time.Duration(ln.AtUs) * time.Microsecond,
				Page:     ln.Page,
				Kind:     kind,
				Duration: dur,
				Write:    ln.Write,
			})
			stats.Record(kind, dur)
		case "end":
			groups++
			fmt.Printf("%s / %s / input %s: total %v (setup %v) trace %s\n",
				meta.Function, meta.Mode, meta.Input,
				(time.Duration(meta.TotalUs) * time.Microsecond).Round(100*time.Microsecond),
				setup.Round(100*time.Microsecond), meta.TraceID)
			fmt.Printf("faults: %v\n\n", &stats)
			analyze(events, &stats, setup, top)
			fmt.Println()
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if groups == 0 {
		fmt.Fprintln(os.Stderr, "no fault timeline recorded yet; invoke the function first")
	}
	return nil
}
