// Package core implements the paper's primary contribution: FaaSnap
// snapshot restore — per-region memory mapping over hierarchical
// overlapping mmaps, concurrent paging by a daemon loader that reads
// the compact loading-set file in working-set-group order, and host
// page recording — together with the comparison systems it is
// evaluated against (warm VMs, vanilla Firecracker lazy restore,
// page-cache-resident Cached snapshots, and REAP), plus the Figure 9
// ablation modes.
package core

import (
	"fmt"
	"sync"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/chaos"
	"faasnap/internal/cpu"
	"faasnap/internal/guest"
	"faasnap/internal/hostmm"
	"faasnap/internal/metrics"
	"faasnap/internal/pagebits"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
	"faasnap/internal/snapshot"
	"faasnap/internal/workingset"
	"faasnap/internal/workload"
)

// Mode selects the snapshot-restore system for an invocation.
type Mode int

const (
	// ModeWarm serves the invocation from a warm VM kept in memory.
	ModeWarm Mode = iota
	// ModeFirecracker is vanilla Firecracker snapshot restore: the
	// whole memory file is mapped and paged on demand.
	ModeFirecracker
	// ModeCached is Firecracker restore with the memory file already
	// resident in the host page cache (the paper's reference point).
	ModeCached
	// ModeREAP prefetches the REAP working-set file with a blocking
	// fetch and handles out-of-set faults with userfaultfd.
	ModeREAP
	// ModeFaaSnap is the full system: per-region mapping, loading-set
	// file, concurrent group-ordered loader.
	ModeFaaSnap
	// ModeConcurrentPaging is the Figure 9 ablation: full-file mapping
	// plus a concurrent loader reading working-set pages from the
	// memory file in address order.
	ModeConcurrentPaging
	// ModePerRegion is the Figure 9 ablation: per-region mapping and a
	// group-ordered loader, but reading scattered regions from the
	// memory file instead of a compact loading-set file.
	ModePerRegion
	// ModeCold is a full cold start: boot the guest kernel, then
	// initialize the runtime and libraries from the root filesystem
	// before serving the invocation (§2.1) — the seconds-long baseline
	// snapshots exist to replace.
	ModeCold
	numModes
)

// String returns the mode name as used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeWarm:
		return "warm"
	case ModeFirecracker:
		return "firecracker"
	case ModeCached:
		return "cached"
	case ModeREAP:
		return "reap"
	case ModeFaaSnap:
		return "faasnap"
	case ModeConcurrentPaging:
		return "concurrent-paging"
	case ModePerRegion:
		return "per-region"
	case ModeCold:
		return "cold"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode resolves a mode name.
func ParseMode(s string) (Mode, error) {
	for m := Mode(0); m < numModes; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q", s)
}

// Modes lists all comparison modes (excluding ablations).
func Modes() []Mode {
	return []Mode{ModeWarm, ModeFirecracker, ModeCached, ModeREAP, ModeFaaSnap}
}

// HostConfig describes the measurement host.
type HostConfig struct {
	Seed  int64
	Cores int
	Disk  blockdev.Profile
	// LSDisk optionally places loading-set files on a different device
	// than memory files — the paper's §7.2 proposal of keeping the
	// small loading-set files on local SSD while large memory files
	// live on remote storage. Zero value uses Disk for both.
	LSDisk blockdev.Profile
	Costs  hostmm.CostModel
	// KernelBoot is the guest kernel boot time for cold starts
	// (Firecracker boots an unmodified Linux kernel in ~125 ms [1]).
	KernelBoot time.Duration
	// VMMSetup is the CPU time to start the VMM process, restore
	// virtual devices and vCPU state — the gray bars of Figure 1,
	// excluding working-set work. It executes on the shared CPU pool,
	// so bursts contend on it.
	VMMSetup time.Duration
	// NetSetupSerial is the portion of VM setup serialized host-wide
	// (virtual network device and namespace creation hold global
	// kernel locks), the main super-linear term under bursts.
	NetSetupSerial time.Duration
	// BackgroundDuty is the fraction of one core each guest's second
	// vCPU (kernel threads, the in-guest HTTP server) burns while an
	// invocation runs; it drives CPU contention in burst workloads.
	BackgroundDuty float64
	// Chaos optionally arms the host's data plane with fault injection:
	// block-device reads consult it (point "blockdev.read", op = request
	// class, plus the "loading-set" op the FaaSnap restore path checks
	// before trusting the loading-set file). Nil disables injection.
	Chaos *chaos.Injector
}

// DefaultHostConfig matches the evaluation platform: an AWS c5d.metal
// (96 vCPUs) with a local NVMe SSD.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		Seed:  1,
		Cores: 64, // c5d.metal: 96 hyperthreads ≈ 64 physical-core equivalents
		Disk:  blockdev.NVMeLocal(),
		Costs: hostmm.DefaultCosts(),

		KernelBoot:     125 * time.Millisecond,
		VMMSetup:       42 * time.Millisecond,
		NetSetupSerial: 3 * time.Millisecond,
		BackgroundDuty: 1.0,
	}
}

// WithDefaults fills every zero field of c from DefaultHostConfig,
// preserving whatever the caller did specify — a partially-specified
// host (custom costs, core count, seed) must not be clobbered whole.
// LSDisk's zero value is meaningful ("use Disk") and is left alone.
func (c HostConfig) WithDefaults() HostConfig {
	def := DefaultHostConfig()
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.Cores == 0 {
		c.Cores = def.Cores
	}
	if c.Disk.Bandwidth == 0 {
		c.Disk = def.Disk
	}
	if c.Costs == (hostmm.CostModel{}) {
		c.Costs = def.Costs
	}
	if c.KernelBoot == 0 {
		c.KernelBoot = def.KernelBoot
	}
	if c.VMMSetup == 0 {
		c.VMMSetup = def.VMMSetup
	}
	if c.NetSetupSerial == 0 {
		c.NetSetupSerial = def.NetSetupSerial
	}
	if c.BackgroundDuty == 0 {
		c.BackgroundDuty = def.BackgroundDuty
	}
	return c
}

// Host bundles the simulated machine an experiment runs on.
type Host struct {
	Env   *sim.Env
	CPU   *cpu.PS
	Cache *pagecache.Cache
	Dev   *blockdev.Device
	// LSDev backs loading-set files; identical to Dev unless the
	// tiered-storage option is configured.
	LSDev   *blockdev.Device
	Cfg     HostConfig
	netLock *sim.Mutex // serializes virtual-network setup host-wide
}

// NewHost builds a host for one simulation run.
func NewHost(cfg HostConfig) *Host {
	if cfg.Cores == 0 {
		cfg.Cores = 64
	}
	env := sim.NewEnv(cfg.Seed)
	h := &Host{
		Env:     env,
		CPU:     cpu.New(env, cfg.Cores),
		Cache:   pagecache.New(env),
		Dev:     blockdev.New(env, cfg.Disk),
		Cfg:     cfg,
		netLock: sim.NewMutex(env),
	}
	if cfg.LSDisk.Bandwidth != 0 && cfg.LSDisk.Name != cfg.Disk.Name {
		h.LSDev = blockdev.New(env, cfg.LSDisk)
	} else {
		h.LSDev = h.Dev
	}
	if cfg.Chaos != nil {
		fault := func(class blockdev.Class, bytes int64) (float64, bool) {
			d := cfg.Chaos.Eval(chaos.PointBlockdev, class.String())
			switch {
			case d.Is(chaos.KindSlow):
				return d.Factor, false
			case d.Is(chaos.KindError):
				return 1, true
			}
			return 1, false
		}
		h.Dev.SetFault(fault)
		if h.LSDev != h.Dev {
			h.LSDev.SetFault(fault)
		}
	}
	return h
}

// Artifacts are the environment-independent products of a record phase
// for one function: everything the daemon persists and later deploys.
// After Record returns, an Artifacts value is immutable: experiments
// share one instance across concurrent simulations, and the invoke
// path only ever clones the mutable guest state (Mem, Alloc) it needs.
// Build variants through Clone rather than mutating fields in place.
type Artifacts struct {
	Fn          *workload.Spec
	RecordInput workload.Input
	Mem         *snapshot.MemoryFile // post-invocation memory file
	Alloc       guest.AllocState
	WS          *workingset.WorkingSet // FaaSnap host page record
	LS          *workingset.LoadingSet
	LSUnmerged  *workingset.LoadingSet // gap-0 regions, for the per-region ablation
	ReapWS      *workingset.WSFile     // REAP fault-order working set

	derived derived
}

// derived holds what the fields above determine and every restore
// needs: the scan of the memory file into non-zero regions (§4.5), the
// mapping plans built on it (§4.8) and each mode's prefetch bitmap.
// The paper's daemon computes these once, after the record phase; here
// each is filled on first use and then shared, read-only, by every
// invocation of the snapshot. The zero value is an empty holder.
type derived struct {
	mu       sync.Mutex
	nonZero  []snapshot.Region       // nil until scanned
	plans    [2][]MapRegion          // without, with the loading-set layer
	prefetch [numModes]*pagebits.Set // by the mode whose plan it is
}

// Clone returns a shallow copy whose derived-set fields (WS, LS, ...)
// may be replaced without affecting the original — the designated
// mutation point for ablation variants of shared, cached artifacts.
// The referenced files and sets themselves stay shared and must still
// be treated as read-only. The copy starts with nothing derived: what
// the original computed from its LS or WS says nothing about the
// copy's.
func (a *Artifacts) Clone() *Artifacts {
	return &Artifacts{
		Fn:          a.Fn,
		RecordInput: a.RecordInput,
		Mem:         a.Mem,
		Alloc:       a.Alloc,
		WS:          a.WS,
		LS:          a.LS,
		LSUnmerged:  a.LSUnmerged,
		ReapWS:      a.ReapWS,
	}
}

// NonZeroRegions returns the memory file's non-zero regions (cold set
// plus loading-set pages), computed lazily: the file is scanned on the
// first call and the result shared by all later ones. Callers must not
// modify it.
func (a *Artifacts) NonZeroRegions() []snapshot.Region {
	a.derived.mu.Lock()
	defer a.derived.mu.Unlock()
	return a.nonZeroLocked()
}

func (a *Artifacts) nonZeroLocked() []snapshot.Region {
	if a.derived.nonZero == nil {
		a.derived.nonZero = a.Mem.NonZeroRegions()
	}
	return a.derived.nonZero
}

// MapBacking identifies what a mapping-plan region is backed by.
type MapBacking int

const (
	// MapAnon is anonymous memory (the base layer / zero regions).
	MapAnon MapBacking = iota
	// MapMemoryFile maps the snapshot memory file at the same offset.
	MapMemoryFile
	// MapLoadingSet maps the compact loading-set file at a recorded
	// offset.
	MapLoadingSet
)

// MapRegion is one mmap call of the hierarchical overlapping plan.
type MapRegion struct {
	Start   int64 // guest page
	Pages   int64
	Backing MapBacking
	FileOff int64 // file page offset for file-backed layers
}

// MappingPlan returns the §4.8 hierarchical mapping plan, in mmap
// order: the anonymous base layer, the non-zero regions over the
// memory file, and (when withLoadingSet) the loading-set regions over
// the loading-set file. The daemon passes exactly this plan to the
// extended VMM snapshot-load API. The plan is built once per variant
// and shared: callers must not modify it.
func (a *Artifacts) MappingPlan(withLoadingSet bool) []MapRegion {
	a.derived.mu.Lock()
	defer a.derived.mu.Unlock()
	variant := 0
	if withLoadingSet {
		variant = 1
	}
	if plan := a.derived.plans[variant]; plan != nil {
		return plan
	}
	nonZero := a.nonZeroLocked()
	plan := make([]MapRegion, 0, 1+len(nonZero)+variant*len(a.LS.Regions))
	plan = append(plan, MapRegion{Start: 0, Pages: a.Fn.GuestConfig().Pages, Backing: MapAnon})
	for _, reg := range nonZero {
		plan = append(plan, MapRegion{Start: reg.Start, Pages: reg.Len, Backing: MapMemoryFile, FileOff: reg.Start})
	}
	if withLoadingSet {
		for i, reg := range a.LS.Regions {
			plan = append(plan, MapRegion{Start: reg.Start, Pages: reg.Len, Backing: MapLoadingSet, FileOff: a.LS.Offsets[i]})
		}
	}
	a.derived.plans[variant] = plan
	return plan
}

// InvokeResult reports one invocation's timing and paging behaviour.
type InvokeResult struct {
	Mode  Mode
	Fn    string
	Input string

	Setup  time.Duration // VM setup: VMM start, restore, mappings, REAP fetch
	Invoke time.Duration // function execution
	Total  time.Duration

	// Fetch is the working-set fetch: blocking for REAP (inside
	// Setup), concurrent for FaaSnap-family loaders (overlaps Invoke).
	Fetch      time.Duration
	FetchBytes int64

	Faults        *metrics.FaultStats // invocation-phase fault statistics
	MmapCalls     int
	BlockRequests int64   // device read requests from the VM fault path
	GuestFaultMB  float64 // MB of guest memory faulted in during invoke

	RSSPages   int64 // guest RSS after the invocation
	CacheBytes int64 // host page cache footprint after the invocation

	// CacheStats is the page cache activity attributable to this
	// invocation (delta of the host cache counters across the measured
	// run; hosts are shared under bursts, so absolute counters would
	// double count).
	CacheStats pagecache.Stats

	// FaultTrace holds the invocation-phase fault timeline when the
	// deployment has fault tracing enabled (the bpftrace-style
	// instrumentation used for Figures 2 and 9); nil otherwise.
	FaultTrace []hostmm.FaultEvent

	// LSDegraded marks a FaaSnap restore that could not read the
	// loading-set file (I/O error): the VM still restores, but from the
	// memory file alone with the per-region load plan — correct, just
	// slower, the graceful-degradation half of the §4.7 design.
	LSDegraded bool

	// Prefetch measures how well the mode's prefetch plan matched the
	// invocation's page demand (precision/recall); set only on traced
	// runs of prefetching modes — see ComputePrefetch.
	Prefetch *PrefetchStats
}
