// Package guest models the guest VM: guest-physical memory content, the
// guest kernel's page allocator (with freed-page reuse), the modified
// free_pages_prepare sanitizing behaviour (§5), and a vCPU that
// executes function access programs against the host memory manager.
//
// The guest-side behaviours matter because they create the host/guest
// semantic gap the paper closes: anonymous allocations in the guest
// fault against whatever the host mapped at that guest-physical
// address, and freed pages keep stale content unless the patched guest
// kernel zeroes them, which is what lets FaaSnap classify them as zero
// regions in the next snapshot.
package guest

import (
	"fmt"
	"slices"
	"time"

	"faasnap/internal/cpu"
	"faasnap/internal/hostmm"
	"faasnap/internal/sim"
	"faasnap/internal/snapshot"
)

// OpKind discriminates program operations.
type OpKind int

const (
	// OpCompute is pure computation for Op.Compute.
	OpCompute OpKind = iota
	// OpTouch accesses Op.Pages in order, optionally writing.
	OpTouch
	// OpAllocWrite allocates Op.Count fresh pages from the guest page
	// allocator and writes each one (the mmap-function pattern, and the
	// fate of every input-derived buffer).
	OpAllocWrite
	// OpFree returns a fraction of a previous allocation's pages to the
	// guest allocator; with sanitizing enabled they are zeroed.
	OpFree
)

// Op is one step of a function's access program.
type Op struct {
	Kind    OpKind
	Compute time.Duration // OpCompute: amount of pure compute
	Pages   []int64       // OpTouch: guest-physical pages in access order
	Write   bool          // OpTouch: whether the access writes
	NonZero bool          // whether written data is non-zero
	PerPage time.Duration // OpTouch/OpAllocWrite: compute per page accessed
	Count   int64         // OpAllocWrite: pages to allocate
	Tag     string        // OpAllocWrite/OpFree: allocation identity
	Frac    float64       // OpFree: fraction of the tagged pages to free [0,1]
}

// Program is a function's page-access program for one invocation.
// Exec only reads it, so one Program may be shared by any number of
// VMs, concurrently; nothing may modify it once built.
type Program struct {
	Ops []Op
}

// TouchedPages returns the number of page accesses the program makes
// (first accesses; OpAllocWrite counts every allocated page).
func (pr *Program) TouchedPages() int64 {
	var n int64
	for _, op := range pr.Ops {
		switch op.Kind {
		case OpTouch:
			n += int64(len(op.Pages))
		case OpAllocWrite:
			n += op.Count
		}
	}
	return n
}

// AllocState is the guest page allocator's persistent state. It is part
// of the guest kernel state captured in a snapshot: a VM restored from
// a snapshot reuses the freed pages of the invocation that preceded the
// snapshot, which is why REAP's working set covers re-allocations with
// identical inputs.
type AllocState struct {
	Free []int64 // FIFO free list of previously freed pages
	Next int64   // bump pointer for never-used heap pages
}

// Clone returns a copy that shares the free list's array: allocPage
// only reslices the list from the front, and capping the copy at its
// length makes its first append reallocate, so neither side ever writes
// an element the other can read.
func (s AllocState) Clone() AllocState {
	return AllocState{Free: s.Free[:len(s.Free):len(s.Free)], Next: s.Next}
}

// Config describes the guest memory layout.
type Config struct {
	Pages     int64 // guest-physical size in pages
	HeapStart int64 // first page of the allocator-managed heap
	HeapEnd   int64 // one past the last heap page
	// SanitizePerPage is the guest CPU cost of zeroing one freed page
	// when sanitizing is enabled ("around 10% of execution time", §5).
	SanitizePerPage time.Duration
	// ComputeBatchPages controls how many per-page compute slices are
	// coalesced into one CPU burst; it trades event count for fidelity.
	ComputeBatchPages int64
}

// DefaultConfig returns the evaluation configuration: a 2 GB guest.
func DefaultConfig() Config {
	return Config{
		Pages:             2 << 30 / snapshot.PageSize,
		HeapStart:         (2 << 30 / snapshot.PageSize) / 2,
		HeapEnd:           2 << 30 / snapshot.PageSize,
		SanitizePerPage:   300 * time.Nanosecond,
		ComputeBatchPages: 256,
	}
}

// VM is a running guest.
type VM struct {
	env      *sim.Env
	cpu      *cpu.PS
	as       *hostmm.AddrSpace
	mem      *snapshot.MemoryFile // current guest memory content
	alloc    AllocState
	cfg      Config
	sanitize bool
	allocs   map[string][]int64

	// Dilation stretches compute, for modelling the record phase's
	// sanitizing overhead on unrelated kernel work.
	dilation float64
}

// NewVM returns a guest over the given address space whose memory
// content starts as mem (typically a clone of the restored snapshot's
// memory file) and whose allocator starts in state alloc.
func NewVM(env *sim.Env, ps *cpu.PS, as *hostmm.AddrSpace, mem *snapshot.MemoryFile, alloc AllocState, cfg Config) *VM {
	if cfg.ComputeBatchPages <= 0 {
		cfg.ComputeBatchPages = 256
	}
	if alloc.Next == 0 {
		alloc.Next = cfg.HeapStart
	}
	return &VM{
		env:      env,
		cpu:      ps,
		as:       as,
		mem:      mem,
		alloc:    alloc,
		cfg:      cfg,
		allocs:   make(map[string][]int64),
		dilation: 1,
	}
}

// AddrSpace returns the host address space backing the guest.
func (vm *VM) AddrSpace() *hostmm.AddrSpace { return vm.as }

// Memory returns the live guest memory content map.
func (vm *VM) Memory() *snapshot.MemoryFile { return vm.mem }

// AllocState returns a deep copy of the allocator state for
// snapshotting: the snapshot's free list is its own array.
func (vm *VM) AllocState() AllocState {
	return AllocState{Free: slices.Clone(vm.alloc.Free), Next: vm.alloc.Next}
}

// SetSanitize toggles freed-page sanitizing, the procfs knob the
// daemon flips between record and test phases (§5).
func (vm *VM) SetSanitize(on bool) {
	vm.sanitize = on
	if on {
		vm.dilation = 1.1 // sanitizing costs ~10% of guest execution
	} else {
		vm.dilation = 1
	}
}

// allocPage hands out one heap page: freed pages first (FIFO), then
// never-used pages.
func (vm *VM) allocPage() int64 {
	if len(vm.alloc.Free) > 0 {
		p := vm.alloc.Free[0]
		vm.alloc.Free = vm.alloc.Free[1:]
		return p
	}
	if vm.alloc.Next >= vm.cfg.HeapEnd {
		panic("guest: heap exhausted")
	}
	p := vm.alloc.Next
	vm.alloc.Next++
	return p
}

func (vm *VM) compute(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	// Guest compute jitters ±2% (scheduling, cache effects),
	// deterministically per environment seed.
	jitter := 1 + (vm.env.Rand().Float64()*2-1)*0.02
	vm.cpu.Exec(p, time.Duration(float64(d)*vm.dilation*jitter))
}

// Exec runs the program to completion on the calling process (the
// vCPU). Page accesses go through the host address space; compute goes
// through the processor-sharing CPU.
func (vm *VM) Exec(p *sim.Proc, prog *Program) {
	for _, op := range prog.Ops {
		switch op.Kind {
		case OpCompute:
			vm.compute(p, op.Compute)
		case OpTouch:
			vm.touch(p, op.Pages, op.Write, op.NonZero, op.PerPage)
		case OpAllocWrite:
			held := slices.Grow(vm.allocs[op.Tag], int(op.Count))
			n := len(held)
			for i := int64(0); i < op.Count; i++ {
				held = append(held, vm.allocPage())
			}
			vm.allocs[op.Tag] = held
			vm.touch(p, held[n:], true, op.NonZero, op.PerPage)
		case OpFree:
			vm.free(p, op.Tag, op.Frac)
		default:
			panic(fmt.Sprintf("guest: unknown op kind %d", op.Kind))
		}
	}
}

func (vm *VM) touch(p *sim.Proc, pages []int64, write, nonZero bool, perPage time.Duration) {
	var pending time.Duration
	batch := vm.cfg.ComputeBatchPages
	for i, page := range pages {
		vm.as.TouchW(p, page, write)
		if write {
			vm.mem.SetZero(page, !nonZero)
		}
		pending += perPage
		if int64(i+1)%batch == 0 {
			vm.compute(p, pending)
			pending = 0
		}
	}
	vm.compute(p, pending)
}

// free returns frac of the tagged allocation to the allocator, oldest
// pages first; with sanitizing on, each freed page is zeroed (both in
// content and in guest CPU cost).
func (vm *VM) free(p *sim.Proc, tag string, frac float64) {
	pages := vm.allocs[tag]
	if len(pages) == 0 {
		return
	}
	n := int(float64(len(pages)) * frac)
	if n > len(pages) {
		n = len(pages)
	}
	freed := pages[:n]
	vm.allocs[tag] = pages[n:]
	var sanitizeCost time.Duration
	if vm.sanitize {
		for _, page := range freed {
			vm.mem.SetZero(page, true)
			sanitizeCost += vm.cfg.SanitizePerPage
		}
	}
	vm.alloc.Free = append(vm.alloc.Free, freed...)
	vm.compute(p, sanitizeCost)
}

// LiveAlloc returns the pages currently held under tag (retained,
// i.e. not freed).
func (vm *VM) LiveAlloc(tag string) []int64 {
	return append([]int64(nil), vm.allocs[tag]...)
}
