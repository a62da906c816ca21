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
		// The same NDJSON GET /functions/{name}/faults serves.
		tl := &hostmm.FaultTimeline{
			Function: fn.Name,
			Mode:     res.Mode.String(),
			Input:    res.Input,
			Setup:    res.Setup,
			Total:    res.Total,
			Events:   res.FaultTrace,
		}
		if err := os.WriteFile(*jsonl, append(tl.Encode(), '\n'), 0o644); err != nil {
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

	groups := 0
	err = hostmm.DecodeFaultTimelines(resp.Body, func(tl *hostmm.FaultTimeline) error {
		groups++
		var stats metrics.FaultStats
		for _, ev := range tl.Events {
			stats.Record(ev.Kind, ev.Duration)
		}
		fmt.Printf("%s / %s / input %s: total %v (setup %v) trace %s\n",
			tl.Function, tl.Mode, tl.Input, tl.Total.Round(100*time.Microsecond),
			tl.Setup.Round(100*time.Microsecond), tl.TraceID)
		fmt.Printf("faults: %v\n\n", &stats)
		analyze(tl.Events, &stats, tl.Setup, top)
		fmt.Println()
		return nil
	})
	if err != nil {
		return err
	}
	if groups == 0 {
		fmt.Fprintln(os.Stderr, "no fault timeline recorded yet; invoke the function first")
	}
	return nil
}
