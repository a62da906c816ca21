package experiments

import (
	"fmt"

	"faasnap/internal/core"
	"faasnap/internal/plot"
	"faasnap/internal/workload"
)

// evalModes are the four snapshot systems compared in §6.2–6.3.
var evalModes = []core.Mode{core.ModeFirecracker, core.ModeREAP, core.ModeFaaSnap, core.ModeCached}

// Fig6 reproduces Figure 6: execution time of the nine variable-input
// benchmark functions, with record-phase input A / test-phase input B
// and vice versa.
func Fig6(opt Options) *Report {
	host := opt.host()
	trials := opt.trials(5)
	specs := workload.Benchmarks()
	if opt.Quick {
		specs = specs[:3]
	}
	rep := &Report{
		Name:   "fig6",
		Title:  "Benchmark function execution time (ms, mean±std)",
		Header: []string{"function", "record→test"},
	}
	for _, m := range evalModes {
		rep.Header = append(rep.Header, m.String())
	}
	type dir struct {
		label    string
		rec, tst func(*workload.Spec) workload.Input
	}
	dirs := []dir{
		{"A→B", func(s *workload.Spec) workload.Input { return s.A }, func(s *workload.Spec) workload.Input { return s.B }},
		{"B→A", func(s *workload.Spec) workload.Input { return s.B }, func(s *workload.Spec) workload.Input { return s.A }},
	}
	run := newRunner(opt)
	for _, d := range dirs {
		for _, fn := range specs {
			arts := recorded(host, fn, d.rec(fn))
			row := make([]string, 2+len(evalModes))
			row[0], row[1] = fn.Name, d.label
			rep.Rows = append(rep.Rows, row)
			for mi, mode := range evalModes {
				mi := mi
				t := run.trials(host, arts, mode, d.tst(fn), trials)
				run.then(func() { row[2+mi] = msPair(t.totals()) })
			}
		}
	}
	run.wait()
	rep.Notes = append(rep.Notes,
		"paper claim C1: FaaSnap ≈2.0x faster than Firecracker and ≈1.4x faster than REAP on average, within a few % of Cached")
	return rep
}

// Fig7 reproduces Figure 7: the three synthetic functions with
// identical inputs in both phases.
func Fig7(opt Options) *Report {
	host := opt.host()
	trials := opt.trials(5)
	rep := &Report{
		Name:   "fig7",
		Title:  "Synthetic function execution time (ms, mean±std)",
		Header: []string{"function"},
	}
	for _, m := range evalModes {
		rep.Header = append(rep.Header, m.String())
	}
	bar := plot.BarChart{Title: "Figure 7: synthetic functions", YLabel: "execution time (ms)"}
	seriesY := make([][]float64, len(evalModes))
	run := newRunner(opt)
	for _, fn := range workload.Synthetic() {
		arts := recorded(host, fn, fn.A)
		row := make([]string, 1+len(evalModes))
		row[0] = fn.Name
		rep.Rows = append(rep.Rows, row)
		bar.Groups = append(bar.Groups, fn.Name)
		for mi, mode := range evalModes {
			mi := mi
			t := run.trials(host, arts, mode, fn.B, trials)
			run.then(func() {
				s := t.totals()
				row[1+mi] = msPair(s)
				seriesY[mi] = append(seriesY[mi], msf(s.mean()))
			})
		}
	}
	run.wait()
	for mi, mode := range evalModes {
		bar.Series = append(bar.Series, plot.Series{Name: mode.String(), Y: seriesY[mi]})
	}
	rep.Charts = append(rep.Charts, NamedSVG{Name: "fig7", SVG: bar.SVG()})
	rep.Notes = append(rep.Notes,
		"paper reference (ms): hello-world 189/70/70/67, mmap 1108/1040/733(faasnap)/935, read-list ~600/650/610/470 for fc/reap/faasnap/cached",
		"expected shape: FaaSnap beats Cached on mmap (anonymous-region mapping); Cached beats FaaSnap on read-list")
	return rep
}

// fig8Ratios is the Figure 8 x axis.
var fig8Ratios = []float64{0.25, 0.5, 1, 2, 4}

// Fig8 reproduces Figure 8: execution time with test-phase inputs from
// ¼× to 4× the record-phase input size (contents always differ).
func Fig8(opt Options) *Report {
	host := opt.host()
	trials := opt.trials(3)
	specs := workload.Benchmarks()
	ratios := fig8Ratios
	if opt.Quick {
		specs = specs[:2]
		ratios = []float64{0.25, 1, 4}
	}
	rep := &Report{
		Name:   "fig8",
		Title:  "Execution time under varying input-size ratios (ms, mean)",
		Header: []string{"function", "ratio"},
	}
	for _, m := range evalModes {
		rep.Header = append(rep.Header, m.String())
	}
	run := newRunner(opt)
	for _, fn := range specs {
		fn := fn
		arts := recorded(host, fn, fn.A)
		chart := &plot.Chart{
			Title:  fmt.Sprintf("Figure 8: %s", fn.Name),
			XLabel: "input size ratio",
			YLabel: "execution time (ms)",
			LogX:   true,
		}
		series := make([]plot.Series, len(evalModes))
		for mi, mode := range evalModes {
			series[mi].Name = mode.String()
		}
		for _, ratio := range ratios {
			ratio := ratio
			in := fn.InputForRatio(ratio)
			row := make([]string, 2+len(evalModes))
			row[0], row[1] = fn.Name, fmt.Sprintf("%g", ratio)
			rep.Rows = append(rep.Rows, row)
			for mi, mode := range evalModes {
				mi := mi
				t := run.trials(host, arts, mode, in, trials)
				run.then(func() {
					mean := t.totals().mean()
					row[2+mi] = ms(mean)
					series[mi].X = append(series[mi].X, ratio)
					series[mi].Y = append(series[mi].Y, msf(mean))
				})
			}
		}
		// Chart assembly runs after every then above it (submission
		// order), once this function's series are complete.
		run.then(func() {
			chart.Series = series
			rep.Charts = append(rep.Charts, NamedSVG{Name: "fig8-" + fn.Name, SVG: chart.SVG()})
		})
	}
	run.wait()
	rep.Notes = append(rep.Notes,
		"paper claim C2: REAP degrades steeply for ratios > 1 (worse than Firecracker for several functions at 4x); FaaSnap tracks Cached across the range")
	return rep
}

// Table3 reproduces Table 3: the execution breakdown of ffmpeg and
// image under REAP and FaaSnap.
func Table3(opt Options) *Report {
	host := opt.host()
	rep := &Report{
		Name:  "table3",
		Title: "Performance analysis (record A → test B)",
		Header: []string{"system, function", "total", "fetch time", "fetch size",
			"guest pagefault size", "fault waiting time"},
	}
	fns := []string{"ffmpeg", "image"}
	if opt.Quick {
		fns = []string{"image"}
	}
	run := newRunner(opt)
	for _, name := range fns {
		name := name
		fn, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		arts := recorded(host, fn, fn.A)
		for _, mode := range []core.Mode{core.ModeREAP, core.ModeFaaSnap} {
			mode := mode
			c := run.single(host, arts, mode, fn.B)
			run.then(func() {
				r := c.res
				rep.Rows = append(rep.Rows, []string{
					fmt.Sprintf("%s, %s", mode, name),
					ms(r.Total) + " ms",
					ms(r.Fetch) + " ms",
					fmt.Sprintf("%.0f MB", float64(r.FetchBytes)/(1<<20)),
					fmt.Sprintf("%.1f MB", r.GuestFaultMB),
					ms(r.Faults.WaitingTime()) + " ms",
				})
			})
		}
	}
	run.wait()
	rep.Notes = append(rep.Notes,
		"paper reference: REAP/ffmpeg 1408ms total, 257ms fetch; FaaSnap/ffmpeg 1070ms, 107ms fetch (concurrent); REAP/image 480ms vs FaaSnap/image 136ms (3.5x)",
		"FaaSnap's fetch overlaps execution; REAP's is a blocking prefix")
	return rep
}

// fig9Steps are the Figure 9 optimization steps.
var fig9Steps = []core.Mode{core.ModeFirecracker, core.ModeConcurrentPaging, core.ModePerRegion, core.ModeFaaSnap}

// Fig9 reproduces Figure 9: the incremental effect of concurrent
// paging, per-region mapping, and the loading-set file on image.
func Fig9(opt Options) *Report {
	host := opt.host()
	fn, err := workload.ByName("image")
	if err != nil {
		panic(err)
	}
	arts := recorded(host, fn, fn.A)
	rep := &Report{
		Name:  "fig9",
		Title: "Optimization steps and their effects (image, record A → test B)",
		Header: []string{"step", "invocation time (ms)", "major page faults",
			"page fault time (ms)", "block requests"},
	}
	run := newRunner(opt)
	for _, mode := range fig9Steps {
		mode := mode
		c := run.single(host, arts, mode, fn.B)
		run.then(func() {
			r := c.res
			rep.Rows = append(rep.Rows, []string{
				mode.String(),
				ms(r.Invoke),
				fmt.Sprintf("%d", r.Faults.Majors()),
				ms(r.Faults.TotalTime()),
				fmt.Sprintf("%d", r.BlockRequests),
			})
		})
	}
	run.wait()
	rep.Notes = append(rep.Notes,
		"expected shape: each step reduces invocation time; full FaaSnap has the fewest majors, shortest fault time, fewest block requests")
	return rep
}

// Footprint reports the §7.3 memory-footprint comparison: guest RSS
// plus page-cache bytes after one invocation, per mode.
func Footprint(opt Options) *Report {
	host := opt.host()
	specs := workload.Catalog()
	if opt.Quick {
		specs = specs[:4]
	}
	rep := &Report{
		Name:   "footprint",
		Title:  "Memory footprint after one invocation (MB: RSS + page cache)",
		Header: []string{"function", "firecracker", "reap", "faasnap", "faasnap/firecracker"},
	}
	var ratioSum float64
	run := newRunner(opt)
	foot := func(r *core.InvokeResult) float64 {
		return float64(r.RSSPages*4096+r.CacheBytes) / (1 << 20)
	}
	for _, fn := range specs {
		fn := fn
		arts := recorded(host, fn, fn.A)
		cFC := run.single(host, arts, core.ModeFirecracker, fn.B)
		cReap := run.single(host, arts, core.ModeREAP, fn.B)
		cFS := run.single(host, arts, core.ModeFaaSnap, fn.B)
		run.then(func() {
			fc, reap, fs := foot(cFC.res), foot(cReap.res), foot(cFS.res)
			ratio := fs / fc
			ratioSum += ratio
			rep.Rows = append(rep.Rows, []string{
				fn.Name,
				fmt.Sprintf("%.0f", fc), fmt.Sprintf("%.0f", reap), fmt.Sprintf("%.0f", fs),
				fmt.Sprintf("%.2f", ratio),
			})
		})
	}
	run.wait()
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("mean faasnap/firecracker footprint ratio: %.2f (paper: ≈1.06 on average)", ratioSum/float64(len(specs))))
	return rep
}
