package core

import (
	"fmt"
	"sort"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/chaos"
	"faasnap/internal/guest"
	"faasnap/internal/hostmm"
	"faasnap/internal/metrics"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
	"faasnap/internal/snapshot"
	"faasnap/internal/workload"
)

// Deployment is a function's snapshot artifacts placed on a host: the
// memory file, loading-set file, and REAP working-set file registered
// on the storage device, ready to serve invocations.
type Deployment struct {
	H    *Host
	Arts *Artifacts

	memFile  *pagecache.File
	lsFile   *pagecache.File
	reapFile *pagecache.File

	// Single-flight state for the FaaSnap loader: under bursts, the
	// loading set is read from disk exactly once and later VMs are
	// served from the page cache (§6.6).
	loading bool
	loaded  bool

	// TraceFaults records per-fault timeline events into each
	// InvokeResult (costs nothing in virtual time).
	TraceFaults bool
}

// Deploy registers the artifacts' files on the host. Memory files are
// stored at full guest-memory length (Firecracker's default,
// non-sparse); the loading-set and working-set files are compact.
func (h *Host) Deploy(arts *Artifacts, suffix string) *Deployment {
	gcfg := arts.Fn.GuestConfig()
	d := &Deployment{
		H:       h,
		Arts:    arts,
		memFile: h.Cache.Register(arts.Fn.Name+suffix+".mem", h.Dev, gcfg.Pages),
	}
	if arts.LS.Total > 0 {
		d.lsFile = h.Cache.Register(arts.Fn.Name+suffix+".ls", h.LSDev, arts.LS.Total)
	}
	if n := arts.ReapWS.PageCount(); n > 0 {
		d.reapFile = h.Cache.Register(arts.Fn.Name+suffix+".reapws", h.Dev, n)
	}
	return d
}

// reapHandler serves out-of-working-set faults at user level by
// reading the original memory file through the page cache, as REAP's
// userfaultfd handler does.
type reapHandler struct {
	cache *pagecache.Cache
	mem   *pagecache.File
}

func (r *reapHandler) HandleFault(p *sim.Proc, page int64) {
	r.cache.FaultRead(p, r.mem, page, blockdev.FaultRead)
}

// Invoke executes one invocation under the given mode on the calling
// simulation process. The returned result is complete when the
// simulation run finishes (the concurrent loader may still be filling
// in Fetch when Invoke returns).
func (d *Deployment) Invoke(p *sim.Proc, mode Mode, in workload.Input) *InvokeResult {
	r := &InvokeResult{Mode: mode, Fn: d.Arts.Fn.Name, Input: in.Name}
	if mode == ModeWarm {
		d.invokeWarm(p, in, r)
		return r
	}
	if mode == ModeCold {
		d.invokeCold(p, in, r)
		return r
	}
	h := d.H
	cfg := h.Cfg
	gcfg := d.Arts.Fn.GuestConfig()

	if mode == ModeCached {
		// The Cached reference preloads the memory file into the page
		// cache before the measured run (§6.2); the preload itself is
		// outside the measurement.
		h.Cache.Populate(d.memFile)
	}

	t0 := p.Now()
	// VMM startup burns CPU on the shared pool, and virtual-network
	// creation serializes host-wide.
	h.CPU.Exec(p, cfg.VMMSetup)
	if cfg.NetSetupSerial > 0 {
		h.netLock.Lock(p)
		p.Sleep(cfg.NetSetupSerial)
		h.netLock.Unlock()
	}
	as := hostmm.New(h.Env, h.Cache, cfg.Costs, gcfg.Pages)

	// A FaaSnap restore depends on the loading-set file being readable.
	// When the chaos layer declares it failed (an I/O error opening or
	// validating it), the restore degrades rather than dies: map from
	// the memory file alone and fall back to the per-region load plan,
	// trading the compact sequential read for scattered ones.
	withLS := true
	if mode == ModeFaaSnap && cfg.Chaos != nil {
		if dec := cfg.Chaos.Eval(chaos.PointBlockdev, "loading-set"); dec.Is(chaos.KindError) {
			withLS = false
			r.LSDegraded = true
		}
	}

	switch mode {
	case ModeFirecracker, ModeCached, ModeConcurrentPaging:
		as.Mmap(p, 0, gcfg.Pages, hostmm.BackFile, d.memFile, 0)
	case ModeREAP:
		as.Mmap(p, 0, gcfg.Pages, hostmm.BackFile, d.memFile, 0)
		as.RegisterUffd(0, gcfg.Pages, &reapHandler{cache: h.Cache, mem: d.memFile})
		d.reapFetch(p, as, r)
	case ModeFaaSnap, ModePerRegion:
		d.mmapPerRegion(p, as, mode == ModeFaaSnap && withLS)
	default:
		panic(fmt.Sprintf("core: unhandled mode %v", mode))
	}
	r.Setup = p.Now() - t0
	r.MmapCalls = as.MmapCalls()

	// Start the concurrent loader after setup, exactly when the daemon
	// receives the invocation request (§4.2).
	switch mode {
	case ModeFaaSnap:
		if withLS {
			d.startLoader(r, d.faasnapLoadPlan())
		} else {
			d.startLoader(r, d.perRegionLoadPlan())
		}
	case ModePerRegion:
		d.startLoader(r, d.perRegionLoadPlan())
	case ModeConcurrentPaging:
		d.startLoader(r, d.addressOrderLoadPlan())
	}

	vm := guest.NewVM(h.Env, h.CPU, as, d.Arts.Mem.Clone(), d.Arts.Alloc.Clone(), gcfg)
	d.runMeasured(p, vm, in, r)
	return r
}

// reapFetch performs REAP's blocking working-set fetch: a direct
// (cache-bypassing) sequential read of the compact working-set file
// followed by UFFDIO_COPY installation of every page.
func (d *Deployment) reapFetch(p *sim.Proc, as *hostmm.AddrSpace, r *InvokeResult) {
	n := d.Arts.ReapWS.PageCount()
	if n == 0 {
		return
	}
	start := p.Now()
	d.H.Cache.ReadRangeDirect(p, d.reapFile, 0, n, blockdev.FetchRead)
	for _, page := range d.Arts.ReapWS.Pages {
		as.InstallPage(page)
	}
	p.Sleep(time.Duration(n) * d.H.Cfg.Costs.UffdCopy)
	r.Fetch = p.Now() - start
	r.FetchBytes = d.Arts.ReapWS.Bytes()
}

// mmapPerRegion builds the hierarchical overlapping mapping of
// Figure 4: an anonymous base layer, the non-zero regions on the
// memory file, and (for full FaaSnap) the loading-set regions on the
// loading-set file.
func (d *Deployment) mmapPerRegion(p *sim.Proc, as *hostmm.AddrSpace, withLSFile bool) {
	plan := d.Arts.MappingPlan(withLSFile && d.lsFile != nil)
	as.Grow(2 * len(plan))
	for _, m := range plan {
		switch m.Backing {
		case MapAnon:
			as.Mmap(p, m.Start, m.Pages, hostmm.BackAnon, nil, 0)
		case MapMemoryFile:
			as.Mmap(p, m.Start, m.Pages, hostmm.BackFile, d.memFile, m.FileOff)
		case MapLoadingSet:
			as.Mmap(p, m.Start, m.Pages, hostmm.BackFile, d.lsFile, m.FileOff)
		}
	}
}

// loadChunk is one prefetch read the loader issues.
type loadChunk struct {
	file  *pagecache.File
	start int64 // file page
	n     int64
}

// faasnapLoadPlan reads the compact loading-set file start to end:
// regions are laid out by (group, address), so one sequential stream
// over the file follows the guest's expected access order while
// issuing large sequential disk reads (§4.7).
func (d *Deployment) faasnapLoadPlan() []loadChunk {
	if d.lsFile == nil {
		return nil
	}
	return []loadChunk{{file: d.lsFile, start: 0, n: d.Arts.LS.Total}}
}

// perRegionLoadPlan prefetches the (unmerged) working-set regions from
// the memory file in group order: the right order, but scattered small
// reads on disk (the Figure 9 per-region ablation, before the loading
// set and loading-set-file optimizations).
func (d *Deployment) perRegionLoadPlan() []loadChunk {
	var plan []loadChunk
	for _, reg := range d.Arts.LSUnmerged.Regions {
		plan = append(plan, loadChunk{file: d.memFile, start: reg.Start, n: reg.Len})
	}
	return plan
}

// addressOrderLoadPlan prefetches all working-set pages from the
// memory file in ascending address order, ignoring groups (the
// concurrent-paging-only ablation: "the FaaSnap loader reads the
// working set pages in the address space order", §6.5).
func (d *Deployment) addressOrderLoadPlan() []loadChunk {
	pages := make([]int64, 0, d.Arts.WS.Pages())
	for _, g := range d.Arts.WS.Groups {
		pages = append(pages, g...)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var plan []loadChunk
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] <= pages[j-1]+4 {
			j++
		}
		plan = append(plan, loadChunk{file: d.memFile, start: pages[i], n: pages[j-1] - pages[i] + 1})
		i = j
	}
	return plan
}

// startLoader launches the daemon loader thread. The loading set is
// read exactly once per deployment: concurrent invocations from the
// same snapshot skip the load and ride the page cache (§6.6).
func (d *Deployment) startLoader(r *InvokeResult, plan []loadChunk) {
	if len(plan) == 0 || d.loaded || d.loading {
		return
	}
	d.loading = true
	d.H.Env.Go("faasnap-loader", func(lp *sim.Proc) {
		start := lp.Now()
		var bytes int64
		for _, c := range plan {
			bytes += d.H.Cache.ReadRange(lp, c.file, c.start, c.n, blockdev.PrefetchRead) * snapshot.PageSize
		}
		d.loaded = true
		d.loading = false
		r.Fetch = lp.Now() - start
		r.FetchBytes = bytes
	})
}

// invokeCold performs a full cold start: VMM start, guest kernel
// boot, then runtime initialization that reads the language runtime
// and libraries from the root filesystem image before the invocation
// proper runs. Setup covers everything before the function executes.
func (d *Deployment) invokeCold(p *sim.Proc, in workload.Input, r *InvokeResult) {
	h := d.H
	cfg := h.Cfg
	fn := d.Arts.Fn
	gcfg := fn.GuestConfig()
	t0 := p.Now()
	h.CPU.Exec(p, cfg.VMMSetup)
	if cfg.NetSetupSerial > 0 {
		h.netLock.Lock(p)
		p.Sleep(cfg.NetSetupSerial)
		h.netLock.Unlock()
	}
	p.Sleep(cfg.KernelBoot)

	// The boot image and the runtime/library files live in the rootfs;
	// imports during init read them through the page cache.
	rootSpan := fn.BootPages
	for _, reg := range fn.CleanMemory().NonZeroRegions() {
		if reg.End() > rootSpan {
			rootSpan = reg.End()
		}
	}
	rootfs := h.Cache.Register(fn.Name+".rootfs", h.Dev, rootSpan)
	as := hostmm.New(h.Env, h.Cache, cfg.Costs, gcfg.Pages)
	as.Mmap(p, 0, gcfg.Pages, hostmm.BackAnon, nil, 0)
	as.Mmap(p, 0, rootSpan, hostmm.BackFile, rootfs, 0)

	vm := guest.NewVM(h.Env, h.CPU, as, snapshot.NewMemoryFile(gcfg.Pages), guest.AllocState{}, gcfg)
	vm.Exec(p, fn.InitProgram())
	r.Setup = p.Now() - t0

	d.runMeasured(p, vm, in, r)
}

// invokeWarm serves the invocation from a warm VM: the record-phase
// invocation's pages are already in host memory (anonymous, since warm
// VMs boot from images rather than snapshots), so only never-touched
// pages fault, and those are fast anonymous faults (§3.3).
func (d *Deployment) invokeWarm(p *sim.Proc, in workload.Input, r *InvokeResult) {
	h := d.H
	gcfg := d.Arts.Fn.GuestConfig()
	as := hostmm.New(h.Env, h.Cache, h.Cfg.Costs, gcfg.Pages)
	as.Mmap(nil, 0, gcfg.Pages, hostmm.BackAnon, nil, 0)
	// Pages the record invocation touched are resident.
	as.Prewarm(d.Arts.ReapWS.Pages)
	vm := guest.NewVM(h.Env, h.CPU, as, d.Arts.Mem.Clone(), d.Arts.Alloc.Clone(), gcfg)
	d.runMeasured(p, vm, in, r)
}

// runMeasured executes the test program, tracking invocation-phase
// fault statistics, device traffic from the fault path, and the
// resulting memory footprint.
func (d *Deployment) runMeasured(p *sim.Proc, vm *guest.VM, in workload.Input, r *InvokeResult) {
	h := d.H
	as := vm.AddrSpace()
	as.ResetStats()
	prog := d.Arts.Fn.Program(in)
	if d.TraceFaults {
		// A page faults at most once per invocation, so the program's
		// page count bounds the trace: size it once instead of doubling.
		r.FaultTrace = make([]hostmm.FaultEvent, 0, prog.TouchedPages())
		as.SetFaultHook(func(ev hostmm.FaultEvent) {
			r.FaultTrace = append(r.FaultTrace, ev)
		})
	}
	faultReads0 := h.Dev.Stats().Class(blockdev.FaultRead).Requests
	cacheStats0 := h.Cache.Stats()
	start := p.Now()

	// The guest's second vCPU (kernel threads, in-guest HTTP server)
	// burns CPU while the invocation runs, which matters under bursts.
	stopBG := sim.NewEvent(h.Env)
	if h.Cfg.BackgroundDuty > 0 {
		duty := h.Cfg.BackgroundDuty
		h.Env.Go("guest-bg-vcpu", func(bp *sim.Proc) {
			const quantum = time.Millisecond
			for !stopBG.Fired() {
				h.CPU.Exec(bp, time.Duration(float64(quantum)*duty))
				if stopBG.Fired() {
					return
				}
				bp.Sleep(time.Duration(float64(quantum) * (1 - duty)))
			}
		})
	}

	vm.Exec(p, prog)
	stopBG.Fire()

	r.Invoke = p.Now() - start
	r.Total = r.Setup + r.Invoke
	stats := *as.Stats()
	r.Faults = &stats
	r.BlockRequests = h.Dev.Stats().Class(blockdev.FaultRead).Requests - faultReads0
	// "Guest page fault size" counts faults whose pages the host had
	// to fetch or install from files (minor, major, uffd), matching
	// Table 3's accounting; anonymous zero-fills and PTE fixups move
	// no file data.
	faulted := stats.Count[metrics.FaultMinor] + stats.Count[metrics.FaultMajor] + stats.Count[metrics.FaultUffd]
	r.GuestFaultMB = float64(faulted) * snapshot.PageSize / (1 << 20)
	r.RSSPages = as.RSS()
	r.CacheBytes = h.Cache.ResidentBytes()
	r.CacheStats = h.Cache.Stats().Sub(cacheStats0)
}

// RunSingle records nothing and serves one invocation of arts under
// mode on a fresh host with cold caches, returning the result after
// the simulation completes.
func RunSingle(cfg HostConfig, arts *Artifacts, mode Mode, in workload.Input) *InvokeResult {
	h := NewHost(cfg)
	d := h.Deploy(arts, "")
	var r *InvokeResult
	h.Env.Go("invoke-driver", func(p *sim.Proc) {
		r = d.Invoke(p, mode, in)
	})
	h.Env.Run()
	h.Env.Release()
	return r
}

// RunSingleTraced is RunSingle with the per-fault timeline recorded
// and the prefetch-effectiveness join computed from it.
func RunSingleTraced(cfg HostConfig, arts *Artifacts, mode Mode, in workload.Input) *InvokeResult {
	h := NewHost(cfg)
	d := h.Deploy(arts, "")
	d.TraceFaults = true
	var r *InvokeResult
	h.Env.Go("invoke-driver", func(p *sim.Proc) {
		r = d.Invoke(p, mode, in)
	})
	h.Env.Run()
	h.Env.Release()
	r.Prefetch = ComputePrefetch(arts, r)
	return r
}
