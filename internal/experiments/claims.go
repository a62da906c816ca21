package experiments

import (
	"fmt"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/core"
	"faasnap/internal/workload"
)

// Claims verifies the artifact appendix's four major claims (A.4.1)
// numerically against this reproduction and prints a verdict per
// claim. It is the automated counterpart of EXPERIMENTS.md. All
// measurement cells across the four claims are submitted up front and
// fan out together; the verdict arithmetic runs after the barrier.
func Claims(opt Options) *Report {
	host := opt.host()
	rep := &Report{
		Name:   "claims",
		Title:  "Artifact-appendix claims, verified numerically",
		Header: []string{"claim", "measurement", "verdict"},
	}
	verdict := func(ok bool) string {
		if ok {
			return "SUPPORTED"
		}
		return "CHECK"
	}
	run := newRunner(opt)

	// C1: FaaSnap ≈2x over Firecracker and ≈1.4x over REAP on average
	// (Figures 6 and 7).
	specs := workload.Benchmarks()
	if opt.Quick {
		specs = specs[:3]
	}
	type c1Cells struct {
		fsAB, fcAB, reapAB *invocation
		fsBA, fcBA, reapBA *invocation
	}
	c1cells := make([]c1Cells, len(specs))
	for i, fn := range specs {
		artsA := recorded(host, fn, fn.A)
		artsB := recorded(host, fn, fn.B)
		c1cells[i] = c1Cells{
			fsAB:   run.single(host, artsA, core.ModeFaaSnap, fn.B),
			fcAB:   run.single(host, artsA, core.ModeFirecracker, fn.B),
			reapAB: run.single(host, artsA, core.ModeREAP, fn.B),
			fsBA:   run.single(host, artsB, core.ModeFaaSnap, fn.A),
			fcBA:   run.single(host, artsB, core.ModeFirecracker, fn.A),
			reapBA: run.single(host, artsB, core.ModeREAP, fn.A),
		}
	}

	// C2: resilient to input-size variation — REAP's slowdown from
	// ratio ¼ to 4 far exceeds FaaSnap's, and FaaSnap stays under FC.
	fn, err := workload.ByName("image")
	if err != nil {
		panic(err)
	}
	arts := recorded(host, fn, fn.A)
	lo := fn.InputForRatio(0.25)
	hi := fn.InputForRatio(4)
	c2ReapHi := run.single(host, arts, core.ModeREAP, hi)
	c2ReapLo := run.single(host, arts, core.ModeREAP, lo)
	c2FsHi := run.single(host, arts, core.ModeFaaSnap, hi)
	c2FsLo := run.single(host, arts, core.ModeFaaSnap, lo)
	c2FcHi := run.single(host, arts, core.ModeFirecracker, hi)

	// C3: bursty workloads — FaaSnap ≤ REAP on same-snapshot bursts.
	burstFn, err := workload.ByName("hello-world")
	if err != nil {
		panic(err)
	}
	burstArts := recorded(host, burstFn, burstFn.A)
	par := 16
	c3Fs := run.burst(host, burstArts, core.ModeFaaSnap, burstFn.A, par, true)
	c3Reap := run.burst(host, burstArts, core.ModeREAP, burstFn.A, par, true)
	c3FcSame := run.burst(host, burstArts, core.ModeFirecracker, burstFn.A, par, true)
	c3FcDiff := run.burst(host, burstArts, core.ModeFirecracker, burstFn.A, par, false)

	// C4: remote storage — FaaSnap beats FC and REAP on EBS.
	remote := host
	remote.Disk = blockdev.EBSRemote()
	remoteFns := []string{"json", "image", "ffmpeg"}
	if opt.Quick {
		remoteFns = remoteFns[:1]
	}
	type c4Cells struct {
		fs, fc, reap *invocation
	}
	c4cells := make([]c4Cells, len(remoteFns))
	for i, name := range remoteFns {
		f, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		a := recorded(remote, f, f.A)
		c4cells[i] = c4Cells{
			fs:   run.single(remote, a, core.ModeFaaSnap, f.B),
			fc:   run.single(remote, a, core.ModeFirecracker, f.B),
			reap: run.single(remote, a, core.ModeREAP, f.B),
		}
	}

	run.wait()

	var fcRatio, reapAB, reapBA float64
	var nAB, nBA int
	for _, c := range c1cells {
		fcRatio += float64(c.fcAB.res.Total) / float64(c.fsAB.res.Total)
		reapAB += float64(c.reapAB.res.Total) / float64(c.fsAB.res.Total)
		nAB++
		fcRatio += float64(c.fcBA.res.Total) / float64(c.fsBA.res.Total)
		reapBA += float64(c.reapBA.res.Total) / float64(c.fsBA.res.Total)
		nBA++
	}
	fcAvg := fcRatio / float64(nAB+nBA)
	reapABAvg := reapAB / float64(nAB)
	reapBAAvg := reapBA / float64(nBA)
	c1 := fcAvg >= 1.5 && reapABAvg > reapBAAvg && reapABAvg >= 1.2
	rep.Rows = append(rep.Rows, []string{
		"C1: ≈2.0x over FC, ≈1.4x over REAP",
		fmt.Sprintf("FC/FS %.2fx (paper 2.0); REAP/FS %.2fx A→B, %.2fx B→A (paper 1.55/1.16)", fcAvg, reapABAvg, reapBAAvg),
		verdict(c1),
	})

	reapGrowth := float64(c2ReapHi.res.Total) / float64(c2ReapLo.res.Total)
	fsGrowth := float64(c2FsHi.res.Total) / float64(c2FsLo.res.Total)
	fcAt4 := c2FcHi.res.Total
	reapAt4 := c2ReapHi.res.Total
	c2 := reapGrowth > 2*fsGrowth && reapAt4 > fcAt4
	rep.Rows = append(rep.Rows, []string{
		"C2: resilient to input-size changes",
		fmt.Sprintf("image ¼x→4x growth: REAP %.1fx vs FaaSnap %.1fx; REAP at 4x %s vs FC %s",
			reapGrowth, fsGrowth, msd(reapAt4), msd(fcAt4)),
		verdict(c2),
	})

	fsBurst := c3Fs.res.Mean
	reapBurst := c3Reap.res.Mean
	fcSame := c3FcSame.res.Mean
	fcDiff := c3FcDiff.res.Mean
	c3 := fsBurst <= reapBurst && fcDiff > fcSame
	rep.Rows = append(rep.Rows, []string{
		"C3: handles bursty workloads",
		fmt.Sprintf("16-way same-snapshot: FaaSnap %s ≤ REAP %s; FC degrades with different snapshots (%s → %s)",
			msd(fsBurst), msd(reapBurst), msd(fcSame), msd(fcDiff)),
		verdict(c3),
	})

	var fcEBS, reapEBS float64
	for _, c := range c4cells {
		fs := c.fs.res.Total
		fcEBS += float64(c.fc.res.Total) / float64(fs)
		reapEBS += float64(c.reap.res.Total) / float64(fs)
	}
	fcEBS /= float64(len(remoteFns))
	reapEBS /= float64(len(remoteFns))
	c4 := fcEBS >= 1.5 && reapEBS >= 1.0
	rep.Rows = append(rep.Rows, []string{
		"C4: faster on remote snapshots",
		fmt.Sprintf("EBS: FC/FS %.2fx (paper 2.06), REAP/FS %.2fx (paper 1.20)", fcEBS, reapEBS),
		verdict(c4),
	})

	rep.Notes = append(rep.Notes,
		"SUPPORTED = the claim's direction and rough magnitude hold in this reproduction; CHECK = inspect EXPERIMENTS.md for the deviation discussion")
	return rep
}

func msd(d time.Duration) string { return ms(d) + "ms" }
