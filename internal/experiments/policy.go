package experiments

import (
	"fmt"
	"math"
	"time"

	"faasnap/internal/cluster"
	"faasnap/internal/core"
	"faasnap/internal/policy"
	"faasnap/internal/workload"
)

// PolicyReport runs the §7.1 serving-policy analysis: invocation
// arrival traces at several frequencies served under keep-alive-only,
// keep-alive + vanilla-Firecracker snapshots, and keep-alive + FaaSnap
// policies, with per-mode start costs measured from the data-plane
// simulator. Each row is the warm-pool simulator (internal/cluster) in
// its smallest form: one function on one host whose memory never runs
// out, so keep-alive is the only reason a warm VM goes away.
func PolicyReport(opt Options) *Report {
	host := opt.host()
	fns := []string{"json", "recognition"}
	rates := []time.Duration{time.Minute, 30 * time.Minute}
	if opt.Quick {
		fns = fns[:1]
	}
	const horizon = 24 * time.Hour
	const keepAlive = 15 * time.Minute

	rep := &Report{
		Name:  "policy",
		Title: "Serving policies over 24h Poisson traces (keep-alive 15min)",
		Header: []string{"function", "mean gap", "policy", "warm", "snapshot", "cold",
			"p95 start (ms)", "warm GBh", "snap GBh"},
	}
	// Measure the per-mode start costs through the runner; the pool
	// simulations themselves are cheap and run after the barrier.
	run := newRunner(opt)
	type measured struct {
		name                       string
		arts                       artsSource
		warm, cold, fsnap, vanilla *invocation
	}
	var cells []measured
	for _, name := range fns {
		fn, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		arts := recorded(host, fn, fn.A)
		cells = append(cells, measured{
			name:    name,
			arts:    arts,
			warm:    run.single(host, arts, core.ModeWarm, fn.B),
			cold:    run.single(host, arts, core.ModeCold, fn.B),
			fsnap:   run.single(host, arts, core.ModeFaaSnap, fn.B),
			vanilla: run.single(host, arts, core.ModeFirecracker, fn.B),
		})
	}
	run.wait()
	for _, c := range cells {
		name := c.name
		arts := c.arts()
		warm, cold, fsnap, vanilla := c.warm.res, c.cold.res, c.fsnap.res, c.vanilla.res

		baseCosts := policy.Costs{
			WarmStart:     0,
			ColdStart:     cold.Total - warm.Total,
			Exec:          warm.Total,
			WarmRSSBytes:  warm.RSSPages * 4096,
			SnapshotBytes: arts.Mem.SparseBytes() + arts.LS.Bytes(),
		}
		policies := []struct {
			name      string
			snapshots cluster.SnapshotPolicy
			start     time.Duration
		}{
			{"keep-alive only", cluster.NoSnapshots, 0},
			{"ka + firecracker", cluster.ProactiveSnapshots, vanilla.Total - warm.Total},
			{"ka + faasnap", cluster.ProactiveSnapshots, fsnap.Total - warm.Total},
		}
		for _, rate := range rates {
			trace := policy.TraceSpec{
				MeanInterarrival: rate, Horizon: horizon, Seed: 11,
				BurstProb: 0.05, BurstSize: 8,
			}
			for _, pc := range policies {
				costs := baseCosts
				costs.SnapshotStart = pc.start
				res := cluster.Simulate(cluster.Config{
					Hosts: 1, HostMem: math.MaxInt64,
					KeepAlive: keepAlive, Snapshots: pc.snapshots, Horizon: horizon,
				}, []cluster.Function{{Name: name, Costs: costs, Trace: trace}})
				rep.Rows = append(rep.Rows, []string{
					name, rate.String(), pc.name,
					fmt.Sprintf("%d", res.Starts[policy.WarmStart]),
					fmt.Sprintf("%d", res.Starts[policy.SnapshotStart]),
					fmt.Sprintf("%d", res.Starts[policy.ColdStart]),
					ms(res.P95Start),
					fmt.Sprintf("%.2f", res.WarmGBHours),
					fmt.Sprintf("%.2f", res.SnapshotGBHours),
				})
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"frequent functions stay warm regardless of snapshot policy (§7.1: 'for the most frequent functions, warm starts are the best choice')",
		"for rarer functions, snapshots absorb would-be cold starts; FaaSnap's lower restore latency shows up directly in the p95 start latency")
	return rep
}
