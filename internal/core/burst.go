package core

import (
	"fmt"
	"math"
	"time"

	"faasnap/internal/sim"
	"faasnap/internal/workload"
)

// BurstResult aggregates a parallel-invocation experiment.
type BurstResult struct {
	Mode     Mode
	Parallel int
	Same     bool // all VMs restored from the same snapshot
	Results  []*InvokeResult
	Mean     time.Duration
	Std      time.Duration
}

// RunBurst launches parallel simultaneous invocations of arts under
// mode on one host with cold caches (§6.6). With sameSnapshot the VMs
// share one deployment (one set of on-disk files, shared page cache,
// single-flight FaaSnap loading); otherwise each VM gets its own copy
// of the snapshot files, as bursts of different applications would.
func RunBurst(cfg HostConfig, arts *Artifacts, mode Mode, in workload.Input, parallel int, sameSnapshot bool) BurstResult {
	br, env := runBurst(cfg, arts, mode, in, parallel, sameSnapshot)
	env.Release()
	return br
}

// runBurst is RunBurst, also returning the environment it ran in.
func runBurst(cfg HostConfig, arts *Artifacts, mode Mode, in workload.Input, parallel int, sameSnapshot bool) (BurstResult, *sim.Env) {
	h := NewHost(cfg)
	deps := make([]*Deployment, parallel)
	if sameSnapshot {
		shared := h.Deploy(arts, "")
		for i := range deps {
			deps[i] = shared
		}
	} else {
		for i := range deps {
			deps[i] = h.Deploy(arts, string(rune('a'+i%26))+string(rune('0'+i/26)))
		}
	}
	results := make([]*InvokeResult, parallel)
	for i := 0; i < parallel; i++ {
		i := i
		h.Env.Go("burst-driver", func(p *sim.Proc) {
			results[i] = deps[i].Invoke(p, mode, in)
		})
	}
	h.Env.Run()

	br := BurstResult{Mode: mode, Parallel: parallel, Same: sameSnapshot, Results: results}
	br.Mean, br.Std = meanStd(results)
	return br, h.Env
}

// RunMixedBurst launches parallel simultaneous invocations drawn
// round-robin from several different functions' artifacts — bursts
// "from different applications" in the strictest sense. Every function
// gets its own snapshot files on the shared host.
func RunMixedBurst(cfg HostConfig, arts []*Artifacts, mode Mode, parallel int) BurstResult {
	if len(arts) == 0 {
		panic("core: mixed burst needs artifacts")
	}
	h := NewHost(cfg)
	deps := make([]*Deployment, len(arts))
	for i, a := range arts {
		deps[i] = h.Deploy(a, fmt.Sprintf("-m%d", i))
	}
	results := make([]*InvokeResult, parallel)
	for i := 0; i < parallel; i++ {
		i := i
		d := deps[i%len(deps)]
		in := d.Arts.Fn.A
		h.Env.Go("mixed-burst-driver", func(p *sim.Proc) {
			results[i] = d.Invoke(p, mode, in)
		})
	}
	h.Env.Run()
	br := BurstResult{Mode: mode, Parallel: parallel, Same: false, Results: results}
	br.Mean, br.Std = meanStd(results)
	return br
}

// meanStd returns the mean and standard deviation of total times.
func meanStd(results []*InvokeResult) (time.Duration, time.Duration) {
	if len(results) == 0 {
		return 0, 0
	}
	var sum float64
	for _, r := range results {
		sum += float64(r.Total)
	}
	mean := sum / float64(len(results))
	var varsum float64
	for _, r := range results {
		d := float64(r.Total) - mean
		varsum += d * d
	}
	return time.Duration(mean), time.Duration(math.Sqrt(varsum / float64(len(results))))
}
