// Package faasnap is a Go reproduction of FaaSnap (EuroSys '22):
// snapshot-based VM restore for Function-as-a-Service made fast with
// per-region memory mapping, compact loading-set files, host page
// recording, and concurrent paging — evaluated against warm VMs,
// vanilla Firecracker lazy restore, page-cache-resident snapshots, and
// REAP working-set prefetching, on a deterministic simulation of the
// host memory/paging/storage stack.
//
// Quick start:
//
//	p := faasnap.New()
//	fn, _ := p.Register("image")
//	rec, _ := fn.Record("A")                       // record phase with input A
//	res, _ := fn.Invoke(faasnap.ModeFaaSnap, "B")  // test phase with input B
//	fmt.Println(res.Total, rec.LSPages)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package faasnap

import (
	"fmt"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/core"
	"faasnap/internal/metrics"
	"faasnap/internal/workload"
)

// Mode selects the snapshot-restore system for an invocation.
type Mode = core.Mode

// Restore modes. The ablation modes correspond to the optimization
// steps of the paper's Figure 9.
const (
	ModeWarm             = core.ModeWarm
	ModeFirecracker      = core.ModeFirecracker
	ModeCached           = core.ModeCached
	ModeREAP             = core.ModeREAP
	ModeFaaSnap          = core.ModeFaaSnap
	ModeConcurrentPaging = core.ModeConcurrentPaging
	ModePerRegion        = core.ModePerRegion
)

// ParseMode resolves a mode name ("faasnap", "reap", ...).
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Modes lists the comparison modes of the paper's evaluation.
func Modes() []Mode { return core.Modes() }

// Result reports one invocation's timing and paging behaviour.
type Result = core.InvokeResult

// RecordInfo reports record-phase products.
type RecordInfo = core.RecordResult

// BurstResult aggregates a parallel-invocation run.
type BurstResult = core.BurstResult

// FaultStats is the per-invocation page-fault breakdown.
type FaultStats = metrics.FaultStats

// FaultKind classifies how a guest page access was resolved.
type FaultKind = metrics.FaultKind

// Fault kinds, for indexing FaultStats.Count and FaultStats.Time.
const (
	FaultAnon   = metrics.FaultAnon
	FaultMinor  = metrics.FaultMinor
	FaultMajor  = metrics.FaultMajor
	FaultUffd   = metrics.FaultUffd
	FaultPTEFix = metrics.FaultPTEFix
)

// Input identifies an invocation input.
type Input = workload.Input

// HostConfig exposes the simulated-host knobs.
type HostConfig = core.HostConfig

// Config configures a Platform.
type Config struct {
	// Host is the measurement host; zero value means the paper's
	// c5d.metal with a local NVMe SSD.
	Host HostConfig
	// RemoteStorage switches the snapshot device to the EBS profile of
	// the paper's Figure 11.
	RemoteStorage bool
}

// DefaultConfig returns the evaluation-platform configuration.
func DefaultConfig() Config {
	return Config{Host: core.DefaultHostConfig()}
}

// Platform manages functions and their snapshot artifacts, like the
// FaaSnap daemon does for a single host.
type Platform struct {
	cfg Config
	fns map[string]*Function
}

// New returns a platform. With no arguments it uses DefaultConfig.
func New(cfgs ...Config) *Platform {
	cfg := DefaultConfig()
	if len(cfgs) > 0 {
		cfg = cfgs[0]
		if cfg.Host.Cores == 0 {
			cfg.Host = core.DefaultHostConfig()
		}
	}
	if cfg.RemoteStorage {
		cfg.Host.Disk = blockdev.EBSRemote()
	}
	return &Platform{cfg: cfg, fns: make(map[string]*Function)}
}

// Catalog lists the available function names (the paper's Table 2).
func Catalog() []string { return workload.Names() }

// Function is a registered function, optionally with a recorded
// snapshot.
type Function struct {
	p    *Platform
	spec *workload.Spec
	arts *core.Artifacts
}

// Register adds a catalog function to the platform.
func (p *Platform) Register(name string) (*Function, error) {
	if f, ok := p.fns[name]; ok {
		return f, nil
	}
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	f := &Function{p: p, spec: spec}
	p.fns[name] = f
	return f, nil
}

// CustomSpec defines a function beyond the built-in Table 2 catalog;
// see workload.SpecConfig for field documentation.
type CustomSpec = workload.SpecConfig

// CustomInput is an input definition within a CustomSpec.
type CustomInput = workload.InputConfig

// RegisterCustom adds a user-defined function model to the platform.
func (p *Platform) RegisterCustom(cfg CustomSpec) (*Function, error) {
	spec, err := cfg.Spec()
	if err != nil {
		return nil, err
	}
	if _, ok := p.fns[spec.Name]; ok {
		return nil, fmt.Errorf("faasnap: function %q already registered", spec.Name)
	}
	f := &Function{p: p, spec: spec}
	p.fns[spec.Name] = f
	return f, nil
}

// Name returns the function name.
func (f *Function) Name() string { return f.spec.Name }

// Description returns the function description.
func (f *Function) Description() string { return f.spec.Description }

// Spec returns the underlying workload model.
func (f *Function) Spec() *workload.Spec { return f.spec }

// ResolveInput maps an input name — A (also the empty name), B, or
// ratio:<x> — to an input definition; see workload.Spec.ResolveInput
// for the syntax and the size bound.
func (f *Function) ResolveInput(name string) (Input, error) {
	return f.spec.ResolveInput(name)
}

// Record runs the record phase with the named input, producing the
// snapshot and working-set artifacts used by later invocations.
func (f *Function) Record(input string) (RecordInfo, error) {
	in, err := f.ResolveInput(input)
	if err != nil {
		return RecordInfo{}, err
	}
	arts, res := core.Record(f.p.cfg.Host, f.spec, in)
	f.arts = arts
	return res, nil
}

// Recorded reports whether a snapshot exists.
func (f *Function) Recorded() bool { return f.arts != nil }

// Artifacts exposes the recorded artifacts (nil before Record).
func (f *Function) Artifacts() *core.Artifacts { return f.arts }

// SetArtifacts installs previously persisted artifacts (see the
// snapfile format used by the daemon).
func (f *Function) SetArtifacts(arts *core.Artifacts) { f.arts = arts }

// Invoke serves one invocation under the given mode with cold host
// caches, returning its timing and fault breakdown.
func (f *Function) Invoke(mode Mode, input string) (*Result, error) {
	in, err := f.ResolveInput(input)
	if err != nil {
		return nil, err
	}
	if f.arts == nil {
		return nil, fmt.Errorf("faasnap: function %s has no snapshot; call Record first", f.spec.Name)
	}
	return core.RunSingle(f.p.cfg.Host, f.arts, mode, in), nil
}

// InvokeInput is Invoke with an explicit input definition.
func (f *Function) InvokeInput(mode Mode, in Input) (*Result, error) {
	if f.arts == nil {
		return nil, fmt.Errorf("faasnap: function %s has no snapshot; call Record first", f.spec.Name)
	}
	return core.RunSingle(f.p.cfg.Host, f.arts, mode, in), nil
}

// Burst serves parallel simultaneous invocations (the paper's §6.6),
// either all from the same snapshot or from per-VM copies.
func (f *Function) Burst(mode Mode, input string, parallel int, sameSnapshot bool) (BurstResult, error) {
	in, err := f.ResolveInput(input)
	if err != nil {
		return BurstResult{}, err
	}
	if f.arts == nil {
		return BurstResult{}, fmt.Errorf("faasnap: function %s has no snapshot; call Record first", f.spec.Name)
	}
	if parallel <= 0 {
		return BurstResult{}, fmt.Errorf("faasnap: parallel must be positive")
	}
	return core.RunBurst(f.p.cfg.Host, f.arts, mode, in, parallel, sameSnapshot), nil
}

// MixedBurst serves parallel simultaneous invocations drawn
// round-robin from several recorded functions — a burst of different
// applications sharing one host (§6.6). Every function uses its own
// input A.
func (p *Platform) MixedBurst(names []string, mode Mode, parallel int) (BurstResult, error) {
	if parallel <= 0 {
		return BurstResult{}, fmt.Errorf("faasnap: parallel must be positive")
	}
	arts := make([]*core.Artifacts, 0, len(names))
	for _, name := range names {
		f, ok := p.fns[name]
		if !ok {
			return BurstResult{}, fmt.Errorf("faasnap: function %q not registered", name)
		}
		if f.arts == nil {
			return BurstResult{}, fmt.Errorf("faasnap: function %q has no snapshot; call Record first", name)
		}
		arts = append(arts, f.arts)
	}
	if len(arts) == 0 {
		return BurstResult{}, fmt.Errorf("faasnap: mixed burst needs functions")
	}
	return core.RunMixedBurst(p.cfg.Host, arts, mode, parallel), nil
}

// WarmEstimate returns the function's approximate warm execution time
// for an input.
func (f *Function) WarmEstimate(input string) (time.Duration, error) {
	in, err := f.ResolveInput(input)
	if err != nil {
		return 0, err
	}
	return f.spec.WarmEstimate(in, f.p.cfg.Host.Costs.AnonFault), nil
}
