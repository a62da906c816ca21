package experiments

import (
	"fmt"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/testconfig"
	"faasnap/internal/workload"
)

// Matrix runs a test.py-style record/test matrix (App. A.4) on the
// experiment runner: one record phase per function (cached), then one
// cell per trial — or one burst cell when the config asks for parallel
// VMs — for every (input, mode) pair. Rows come out in config order
// whatever the worker count. Functions run as successive waves, so
// progress lines, sent to report when it is non-nil, appear per
// function.
func Matrix(c *testconfig.Config, report func(string)) (*testconfig.Results, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	say := func(format string, args ...interface{}) {
		if report != nil {
			report(fmt.Sprintf(format, args...))
		}
	}
	host := c.HostConfig()
	run := newRunner(Options{})
	res := &testconfig.Results{Name: c.Name, Started: time.Now()}
	for _, fnName := range c.Functions {
		fn, err := workload.ByName(fnName)
		if err != nil {
			return nil, err
		}
		recIn, err := fn.ResolveInput(c.RecordInput)
		if err != nil {
			return nil, err
		}
		say("record %s (input %s)", fnName, recIn.Name)
		arts := recorded(host, fn, recIn)
		for _, inName := range c.TestInputs {
			in, err := fn.ResolveInput(inName)
			if err != nil {
				return nil, err
			}
			for _, modeName := range c.Modes {
				mode, err := core.ParseMode(modeName)
				if err != nil {
					return nil, err
				}
				row := testconfig.Row{Function: fnName, Mode: modeName, Input: in.Name, Parallel: 1}
				// fill completes the row from the cell's first (burst)
				// or last (trials) invocation once the wave is done.
				fill := func(mean, std time.Duration, r *core.InvokeResult) {
					row.MeanMs, row.StdMs = msf(mean), msf(std)
					row.SetupMs, row.InvokeMs = msf(r.Setup), msf(r.Invoke)
					row.Majors, row.Faults = r.Faults.Majors(), r.Faults.Total()
					say("  %s %s input %s: %.1f ms", fnName, modeName, in.Name, row.MeanMs)
					res.Rows = append(res.Rows, row)
				}
				if c.Parallel > 1 {
					row.Parallel = c.Parallel
					same := c.SameSnapshot == nil || *c.SameSnapshot
					b := run.burst(host, arts, mode, in, c.Parallel, same)
					run.then(func() { fill(b.res.Mean, b.res.Std, b.res.Results[0]) })
				} else {
					t := run.trials(host, arts, mode, in, c.Trials)
					run.then(func() {
						s := t.totals()
						fill(s.mean(), s.std(), t.results[c.Trials-1])
					})
				}
			}
		}
		run.wait()
	}
	res.Elapsed = time.Since(res.Started)
	return res, nil
}
