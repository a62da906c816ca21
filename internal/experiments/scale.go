package experiments

import (
	"fmt"

	"faasnap/internal/blockdev"
	"faasnap/internal/core"
	"faasnap/internal/plot"
	"faasnap/internal/workload"
)

// burstModes are the systems compared under bursts (§6.6).
var burstModes = []core.Mode{core.ModeFirecracker, core.ModeREAP, core.ModeFaaSnap}

// Fig10 reproduces Figure 10: bursts of 1–64 simultaneous invocations
// of hello-world and json, from the same snapshot and from different
// snapshots.
func Fig10(opt Options) *Report {
	host := opt.host()
	fns := []string{"hello-world", "json"}
	parallels := []int{1, 4, 16, 64}
	if opt.Quick {
		fns = []string{"hello-world"}
		parallels = []int{1, 4, 16}
	}
	rep := &Report{
		Name:   "fig10",
		Title:  "Bursty workloads: mean execution time (ms, mean±std across VMs)",
		Header: []string{"function", "snapshots", "parallel"},
	}
	for _, m := range burstModes {
		rep.Header = append(rep.Header, m.String())
	}
	run := newRunner(opt)
	for _, name := range fns {
		name := name
		fn, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		arts := recorded(host, fn, fn.A)
		for _, same := range []bool{true, false} {
			label := "same"
			if !same {
				label = "different"
			}
			chart := &plot.Chart{
				Title:  fmt.Sprintf("Figure 10: %s, %s snapshots", name, label),
				XLabel: "parallel invocations",
				YLabel: "mean execution time (ms)",
				LogX:   true,
			}
			series := make([]plot.Series, len(burstModes))
			for mi, mode := range burstModes {
				series[mi].Name = mode.String()
			}
			for _, par := range parallels {
				par := par
				row := make([]string, 3+len(burstModes))
				row[0], row[1], row[2] = name, label, fmt.Sprintf("%d", par)
				rep.Rows = append(rep.Rows, row)
				for mi, mode := range burstModes {
					mi := mi
					cfg := host
					cfg.Seed = int64(par)
					b := run.burst(cfg, arts, mode, fn.A, par, same)
					run.then(func() {
						br := b.res
						row[3+mi] = fmt.Sprintf("%s±%s", ms(br.Mean), ms(br.Std))
						series[mi].X = append(series[mi].X, float64(par))
						series[mi].Y = append(series[mi].Y, msf(br.Mean))
					})
				}
			}
			run.then(func() {
				chart.Series = series
				rep.Charts = append(rep.Charts, NamedSVG{Name: fmt.Sprintf("fig10-%s-%s", name, label), SVG: chart.SVG()})
			})
		}
	}
	run.wait()
	rep.Notes = append(rep.Notes,
		"paper claim C3: FaaSnap ≤ REAP everywhere (REAP bypasses the page cache); Firecracker degrades fastest with different snapshots; all rise at 64 as CPU bottlenecks")
	return rep
}

// Fig11 reproduces Figure 11: all functions with snapshots on remote
// block storage (EBS io2), record A → test B.
func Fig11(opt Options) *Report {
	host := opt.host()
	host.Disk = blockdev.EBSRemote()
	trials := opt.trials(3)
	specs := workload.Catalog()
	if opt.Quick {
		specs = specs[:4]
	}
	rep := &Report{
		Name:   "fig11",
		Title:  "Execution time with snapshots on remote storage (EBS, ms, mean±std)",
		Header: []string{"function"},
	}
	for _, m := range burstModes {
		rep.Header = append(rep.Header, m.String())
	}
	bar := plot.BarChart{Title: "Figure 11: remote storage (EBS)", YLabel: "execution time (ms)"}
	seriesY := make([][]float64, len(burstModes))
	run := newRunner(opt)
	for _, fn := range specs {
		arts := recorded(host, fn, fn.A)
		row := make([]string, 1+len(burstModes))
		row[0] = fn.Name
		rep.Rows = append(rep.Rows, row)
		bar.Groups = append(bar.Groups, fn.Name)
		for mi, mode := range burstModes {
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
	for mi, mode := range burstModes {
		bar.Series = append(bar.Series, plot.Series{Name: mode.String(), Y: seriesY[mi]})
	}
	rep.Charts = append(rep.Charts, NamedSVG{Name: "fig11", SVG: bar.SVG()})
	rep.Notes = append(rep.Notes,
		"paper claim C4: on EBS, FaaSnap ≈2.06x faster than Firecracker and ≈1.20x faster than REAP on average; REAP wins on recognition, read-list and hello-world (very stable working sets)")
	return rep
}

// Tiered evaluates the paper's §7.2 proposal: small loading-set files
// on local NVMe while the large memory files stay on remote EBS,
// compared against all-local and all-remote placements (FaaSnap mode).
func Tiered(opt Options) *Report {
	trials := opt.trials(3)
	specs := workload.Catalog()
	if opt.Quick {
		specs = specs[:4]
	}
	local := opt.host()
	local.Disk = blockdev.NVMeLocal()
	remote := local
	remote.Disk = blockdev.EBSRemote()
	tiered := remote
	tiered.LSDisk = blockdev.NVMeLocal()

	rep := &Report{
		Name:   "tiered",
		Title:  "FaaSnap with tiered snapshot storage (ms, mean±std)",
		Header: []string{"function", "all local NVMe", "all remote EBS", "LS local + mem remote"},
	}
	placements := []core.HostConfig{local, remote, tiered}
	run := newRunner(opt)
	for _, fn := range specs {
		// The record phase always runs against the local profile; the
		// same artifacts serve all three placements.
		arts := recorded(local, fn, fn.A)
		row := make([]string, 1+len(placements))
		row[0] = fn.Name
		rep.Rows = append(rep.Rows, row)
		for hi, host := range placements {
			hi := hi
			t := run.trials(host, arts, core.ModeFaaSnap, fn.B, trials)
			run.then(func() { row[1+hi] = msPair(t.totals()) })
		}
	}
	run.wait()
	rep.Notes = append(rep.Notes,
		"tiered placement keeps most of the loading-set benefit while storing the bulk of snapshot bytes remotely (§7.2)")
	return rep
}

// ColdStart quantifies the cold-start problem the paper motivates
// with (§2.1): a full boot-and-initialize start against warm VMs and
// FaaSnap restore, per function.
func ColdStart(opt Options) *Report {
	host := opt.host()
	specs := workload.Catalog()
	if opt.Quick {
		specs = specs[:4]
	}
	rep := &Report{
		Name:   "coldstart",
		Title:  "Cold starts vs snapshots vs warm starts (ms)",
		Header: []string{"function", "cold", "faasnap", "warm", "cold/faasnap", "faasnap/warm"},
	}
	run := newRunner(opt)
	for _, fn := range specs {
		fn := fn
		arts := recorded(host, fn, fn.A)
		cCold := run.single(host, arts, core.ModeCold, fn.B)
		cFS := run.single(host, arts, core.ModeFaaSnap, fn.B)
		cWarm := run.single(host, arts, core.ModeWarm, fn.B)
		run.then(func() {
			cold, fs, warm := cCold.res.Total, cFS.res.Total, cWarm.res.Total
			rep.Rows = append(rep.Rows, []string{
				fn.Name, ms(cold), ms(fs), ms(warm),
				ratio(cold, fs), ratio(fs, warm),
			})
		})
	}
	run.wait()
	rep.Notes = append(rep.Notes,
		"cold start = VMM start + kernel boot (~125ms) + runtime/library initialization from the rootfs (§2.1: 'from several seconds up to minutes')",
		"snapshots replace cold starts for functions invoked too rarely to keep warm (§7.1)")
	return rep
}

func ratio(a, b interface{ Nanoseconds() int64 }) string {
	if b.Nanoseconds() == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", float64(a.Nanoseconds())/float64(b.Nanoseconds()))
}
