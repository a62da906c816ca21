// Package cluster is the warm-pool simulator behind the §7.1 policy and
// §7.2 cluster reports: hosts with finite memory run warm VM pools, a
// placement policy routes invocations, keep-alive expiry and memory
// pressure evict idle VMs, and — following the paper's §7.2 proposal
// that "warm VMs can be evicted from memory via snapshot to local
// disk" — evictions can create the snapshots that later absorb
// would-be cold starts. One function on one host with HostMem
// math.MaxInt64 is the single-host keep-alive model of §7.1.
package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"faasnap/internal/policy"
)

// Function is one deployed function with its serving costs and
// arrival process.
type Function struct {
	Name  string
	Costs policy.Costs
	Trace policy.TraceSpec
}

// SnapshotPolicy controls when a function gains a snapshot.
type SnapshotPolicy int

const (
	// NoSnapshots serves non-warm starts cold.
	NoSnapshots SnapshotPolicy = iota
	// ProactiveSnapshots records a snapshot right after a function's
	// first completed invocation.
	ProactiveSnapshots
	// SnapshotOnEviction creates the snapshot only when a warm VM is
	// evicted (keep-alive expiry or memory pressure), per §7.2.
	SnapshotOnEviction
)

// String returns the policy name.
func (p SnapshotPolicy) String() string {
	switch p {
	case NoSnapshots:
		return "no-snapshots"
	case ProactiveSnapshots:
		return "proactive"
	case SnapshotOnEviction:
		return "evict-to-snapshot"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config describes the cluster and its serving policy.
type Config struct {
	Hosts     int
	HostMem   int64 // bytes of guest memory per host
	KeepAlive time.Duration
	Snapshots SnapshotPolicy
	Horizon   time.Duration
}

// Result summarizes a cluster simulation.
type Result struct {
	Invocations int
	Starts      [3]int // indexed by policy.StartKind

	MeanStart time.Duration
	P95Start  time.Duration
	P99Start  time.Duration

	KeepAliveEvictions int
	PressureEvictions  int
	QueueStalls        int           // invocations that waited for capacity
	QueueWait          time.Duration // total capacity wait

	WarmGBHours     float64
	SnapshotGBHours float64
	PeakHostVMs     int
}

// StartFraction returns the fraction of invocations served by kind k.
func (r Result) StartFraction(k policy.StartKind) float64 {
	if r.Invocations == 0 {
		return 0
	}
	return float64(r.Starts[k]) / float64(r.Invocations)
}

// vm is a pooled VM on some host.
type vm struct {
	fn      int
	freeAt  time.Duration
	expires time.Duration
	started time.Duration
}

// host tracks one machine's pool.
type host struct {
	vms      []*vm
	usedMem  int64
	capacity int64
}

func (h *host) memFor(rss int64) bool { return h.usedMem+rss <= h.capacity }

// arrival is one tagged invocation.
type arrival struct {
	at time.Duration
	fn int
}

type arrivalHeap []arrival

func (h arrivalHeap) Len() int            { return len(h) }
func (h arrivalHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h arrivalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x interface{}) { *h = append(*h, x.(arrival)) }
func (h *arrivalHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Simulate runs the cluster over the functions' merged arrival traces.
func Simulate(cfg Config, fns []Function) Result {
	if cfg.Hosts <= 0 || cfg.HostMem <= 0 {
		panic("cluster: need hosts with memory")
	}
	hosts := make([]*host, cfg.Hosts)
	for i := range hosts {
		hosts[i] = &host{capacity: cfg.HostMem}
	}

	var arrivals arrivalHeap
	for fi, fn := range fns {
		for _, at := range policy.Generate(fn.Trace) {
			arrivals = append(arrivals, arrival{at: at, fn: fi})
		}
	}
	heap.Init(&arrivals)

	var res Result
	var latencies []time.Duration
	warmByteSeconds := make([]float64, len(fns))
	snapshotAt := make([]time.Duration, len(fns))
	for i := range snapshotAt {
		snapshotAt[i] = -1
	}

	retire := func(h *host, v *vm, at time.Duration, pressure bool) {
		end := at
		if v.expires < end {
			end = v.expires
		}
		if end > v.started {
			warmByteSeconds[v.fn] += float64(fns[v.fn].Costs.WarmRSSBytes) * (end - v.started).Seconds()
		}
		h.usedMem -= fns[v.fn].Costs.WarmRSSBytes
		if pressure {
			res.PressureEvictions++
		} else {
			res.KeepAliveEvictions++
		}
		if cfg.Snapshots == SnapshotOnEviction && snapshotAt[v.fn] < 0 {
			snapshotAt[v.fn] = end
		}
	}

	// expire removes keep-alive-lapsed idle VMs on h as of time t.
	expire := func(h *host, t time.Duration) {
		live := h.vms[:0]
		for _, v := range h.vms {
			if v.freeAt <= t && v.expires <= t {
				retire(h, v, t, false)
				continue
			}
			live = append(live, v)
		}
		h.vms = live
	}

	for arrivals.Len() > 0 {
		a := heap.Pop(&arrivals).(arrival)
		res.Invocations++
		fn := &fns[a.fn]
		for _, h := range hosts {
			expire(h, a.at)
		}

		// Prefer an idle warm VM of this function anywhere.
		var pick *vm
		var pickHost *host
		for _, h := range hosts {
			for _, v := range h.vms {
				if v.fn == a.fn && v.freeAt <= a.at {
					if pick == nil || v.freeAt < pick.freeAt {
						pick, pickHost = v, h
					}
				}
			}
		}

		var startLat time.Duration
		var kind policy.StartKind
		t := a.at
		if pick != nil {
			kind = policy.WarmStart
			startLat = fn.Costs.WarmStart
		} else {
			// Need a new VM: place on the host with the most free
			// memory, evicting idle VMs (LRU) under pressure.
			sort.SliceStable(hosts, func(i, j int) bool {
				return hosts[i].capacity-hosts[i].usedMem > hosts[j].capacity-hosts[j].usedMem
			})
			pickHost = hosts[0]
			for !pickHost.memFor(fn.Costs.WarmRSSBytes) {
				// Evict the longest-idle VM; if none is idle, stall
				// until the soonest VM frees.
				var victim *vm
				for _, v := range pickHost.vms {
					if v.freeAt <= t && (victim == nil || v.freeAt < victim.freeAt) {
						victim = v
					}
				}
				if victim == nil {
					soonest := time.Duration(math.MaxInt64)
					for _, v := range pickHost.vms {
						if v.freeAt < soonest {
							soonest = v.freeAt
						}
					}
					if soonest == time.Duration(math.MaxInt64) {
						panic("cluster: host has no VMs yet no memory")
					}
					res.QueueStalls++
					res.QueueWait += soonest - t
					t = soonest
					expire(pickHost, t)
					continue
				}
				retire(pickHost, victim, t, true)
				out := pickHost.vms[:0]
				for _, v := range pickHost.vms {
					if v != victim {
						out = append(out, v)
					}
				}
				pickHost.vms = out
			}
			hasSnapshot := snapshotAt[a.fn] >= 0 && snapshotAt[a.fn] <= t
			if hasSnapshot {
				kind = policy.SnapshotStart
				startLat = fn.Costs.SnapshotStart
			} else {
				kind = policy.ColdStart
				startLat = fn.Costs.ColdStart
			}
			pick = &vm{fn: a.fn, started: t}
			pickHost.vms = append(pickHost.vms, pick)
			pickHost.usedMem += fn.Costs.WarmRSSBytes
		}
		res.Starts[kind]++
		// Queue wait counts toward the observed start latency.
		startLat += t - a.at
		latencies = append(latencies, startLat)

		pick.freeAt = t + startLat + fn.Costs.Exec
		pick.expires = pick.freeAt + cfg.KeepAlive
		// Proactive policy records the snapshot as soon as the first
		// invocation completes.
		if cfg.Snapshots == ProactiveSnapshots && snapshotAt[a.fn] < 0 {
			snapshotAt[a.fn] = pick.freeAt
		}
		for _, h := range hosts {
			if len(h.vms) > res.PeakHostVMs {
				res.PeakHostVMs = len(h.vms)
			}
		}
	}

	// Residual accounting at the horizon.
	for _, h := range hosts {
		for _, v := range h.vms {
			end := v.expires
			if end > cfg.Horizon {
				end = cfg.Horizon
			}
			if end > v.started {
				warmByteSeconds[v.fn] += float64(fns[v.fn].Costs.WarmRSSBytes) * (end - v.started).Seconds()
			}
		}
	}
	for fi := range fns {
		res.WarmGBHours += warmByteSeconds[fi] / (1 << 30) / 3600
		if snapshotAt[fi] >= 0 && cfg.Horizon > snapshotAt[fi] {
			res.SnapshotGBHours += float64(fns[fi].Costs.SnapshotBytes) * (cfg.Horizon - snapshotAt[fi]).Seconds() / (1 << 30) / 3600
		}
	}

	if len(latencies) > 0 {
		sorted := append([]time.Duration(nil), latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum time.Duration
		for _, l := range sorted {
			sum += l
		}
		res.MeanStart = sum / time.Duration(len(sorted))
		res.P95Start = sorted[pctIdx(len(sorted), 0.95)]
		res.P99Start = sorted[pctIdx(len(sorted), 0.99)]
	}
	return res
}

func pctIdx(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
