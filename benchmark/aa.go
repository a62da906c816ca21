package main

import (
	"context"
	"fmt"
	"os"
)

// runAA runs n complete sets of timed windows on the current tree and
// holds each (workload, end-to-end metric)'s run-to-run spread — the
// interquartile range as a share of the median, as the driver takes it
// — against that metric's bound. A metric whose spread exceeds its
// bound cannot tell "unchanged" from "unresolved" and fails the check.
// setup_s is printed but, as in the driver, not held to it: the driver
// compares its median between two series instead.
func runAA(ctx context.Context, o options, root string, gold *golden, names []string) int {
	if o.aa < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs at least 2 sets")
		return 2
	}
	o.trace = 0
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	failed := 0
	for set := 0; set < o.aa; set++ {
		for _, name := range names {
			wr, err := runWorkload(ctx, o, root, gold, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			failed += wr.Failed
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range wr.EndToEnd {
				values[name][m] = append(values[name][m], v)
			}
			fmt.Fprintf(os.Stderr, "benchmark: set %d/%d %s done\n", set+1, o.aa, name)
		}
	}
	bad := 0
	fmt.Printf("%-14s %-16s %12s %12s %12s %9s %9s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			v := sorted(values[name][d.Name])
			sp := spread(v)
			verdict := ""
			switch {
			case sp <= d.Bound:
			case d.Name == "setup_s":
				verdict = "  (exceeds; not held)"
			default:
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-14s %-16s %12.6g %12.6g %12.6g %8.2f%% %8.2f%%%s\n",
				name, d.Name, v[0], median(v), v[len(v)-1], 100*sp, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d ops failed or differed from the golden\n", failed)
		return 1
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d metrics spread wider than their bound\n", bad)
		return 1
	}
	return 0
}
