// Command benchmark is the repository's two-clock benchmark: it stands
// the serving stack up in-process, drives four closed-loop workloads
// against it, and reports end-to-end metrics from a tracing-off window
// and per-layer attribution from a separate traced run. README.md in
// this directory describes the workloads, the metrics and the output.
//
// The driver's form runs one workload and one kind of run:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and prints one JSON result object as the last line of stdout. With
// no --workload it runs all four, both kinds of run each.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// defaultSeconds is the timed-window length the bounds were set at
// (BENCHMARK.json's run_seconds).
const defaultSeconds = 20

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	tmp          string
	out          string
	traceOut     string
	updateGolden bool
	aa           int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op sequences")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed window")
	flag.IntVar(&o.trace, "trace", -1, "0: timed window only (end-to-end metrics); 1: traced run only (per-layer metrics); default both")
	flag.StringVar(&o.tmp, "tmp", ".bench_build", "directory under which the run keeps its state dirs (one root, removed on exit)")
	flag.StringVar(&o.out, "out", "", "also write every metric, with the environment, as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans as JSON to this file")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite benchmark/golden.json from this run's replies instead of checking them")
	flag.IntVar(&o.aa, "aa", 0, "run N complete sets of timed windows and compare their spread with each metric's bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}

	// The state-dir root lives inside the checkout and goes away however
	// the run ends.
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fatal(err)
	}
	root, err := os.MkdirTemp(o.tmp, "run-")
	if err != nil {
		fatal(err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, o, root)
	cancel()
	os.RemoveAll(root)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func run(ctx context.Context, o options, root string) int {
	env := captureEnv(o, root)
	env.warn(os.Stderr)
	gold, err := loadGolden(o.updateGolden)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	if o.aa > 0 {
		return runAA(ctx, o, root, gold, names)
	}

	report := report{Env: env, Workloads: map[string]*workloadReport{}}
	correct := true
	var last *workloadReport
	for _, name := range names {
		wr, err := runWorkload(ctx, o, root, gold, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		wr.print(os.Stdout, name)
		report.Workloads[name] = wr
		correct = correct && wr.Failed == 0
		last = wr
	}
	if o.updateGolden {
		if err := gold.write(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "benchmark: "+goldenPath+" rewritten; rebuild before the next run")
	}
	if o.out != "" {
		if err := report.write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if o.workload != "" && o.trace >= 0 {
		// The driver's form: one result object, last line of stdout.
		fmt.Println(last.resultLine(o.trace))
		return 0
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "benchmark: replies differ from benchmark/golden.json (or failed); see fail counts above")
		return 1
	}
	return 0
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  measured `json:"end_to_end,omitempty"`
	PerLayer  measured `json:"per_layer,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

// runWorkload runs the timed window (tracing off) and/or the traced
// run of one workload, each on a freshly set-up stack.
func runWorkload(ctx context.Context, o options, root string, gold *golden, name string) (*workloadReport, error) {
	r, err := newRunner(name, o.seed, root, gold)
	if err != nil {
		return nil, err
	}
	defer r.close()
	wr := &workloadReport{}
	var total tally
	if o.trace != 1 {
		setups, err := r.repeatedSetup(ctx)
		if err != nil {
			return nil, err
		}
		w, err := r.timedWindow(ctx, o.seconds)
		if err != nil {
			return nil, err
		}
		if wr.EndToEnd, err = endToEndMetrics(&w, setups); err != nil {
			return nil, err
		}
		total.add(w.tally())
	}
	if o.trace != 0 {
		if _, err := r.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tr, err := r.tracedRun(ctx, o.seconds)
		if err != nil {
			return nil, err
		}
		wr.PerLayer, wr.Notes = tr.metrics, tr.notes
		total.add(tr.tally)
		if o.traceOut != "" {
			if err := tr.spans.write(o.traceOut); err != nil {
				return nil, err
			}
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	wr.Attempted, wr.Failed = total.attempted, total.failed
	return wr, nil
}

// print writes "workload metric unit value" lines, declared order.
func (wr *workloadReport) print(f *os.File, workload string) {
	for _, d := range endToEnd {
		if v, ok := wr.EndToEnd[d.Name]; ok {
			fmt.Fprintf(f, "%s %s %s %v\n", workload, d.Name, d.Unit, v)
		}
	}
	for _, d := range perLayer {
		if v, ok := wr.PerLayer[d.Name]; ok {
			fmt.Fprintf(f, "%s %s %s %v\n", workload, d.Name, d.Unit, v)
		}
	}
	fmt.Fprintf(f, "%s attempted count %d\n%s failed count %d\n", workload, wr.Attempted, workload, wr.Failed)
	for _, n := range wr.Notes {
		fmt.Fprintf(f, "%s note: %s\n", workload, n)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver's result object: every end-to-end metric
// of a --trace 0 run, every per-layer metric of a --trace 1 run.
func (wr *workloadReport) resultLine(trace int) string {
	defs, vals := endToEnd, wr.EndToEnd
	if trace == 1 {
		defs, vals = perLayer, wr.PerLayer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	raw, err := json.Marshal(map[string]interface{}{
		"correct":   wr.Failed == 0,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // a NaN metric: a bug in the benchmark
	}
	return string(raw)
}

// report is the -out file.
type report struct {
	Env       environment                `json:"environment"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
