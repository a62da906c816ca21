package main

// The golden: the virtual-clock results of every cell the workloads
// run. The simulated data plane is deterministic, so any reply that
// differs is either a change to the modelled design (then the golden
// is regenerated with -update-golden and the diff reviewed) or a bug
// in a change that was only meant to make the simulator cheaper.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"faasnap/internal/daemon"
)

//go:embed golden.json
var goldenRaw []byte

// virtuals is what the golden pins per cell. A burst cell holds the
// per-VM means of the three timings (total_ms is the reply's mean_ms)
// and the sums of the counts.
type virtuals struct {
	SetupMs       float64 `json:"setup_ms"`
	InvokeMs      float64 `json:"invoke_ms"`
	TotalMs       float64 `json:"total_ms"`
	Faults        int64   `json:"faults"`
	MajorFaults   int64   `json:"major_faults"`
	BlockRequests int64   `json:"block_requests"`
	MmapCalls     int64   `json:"mmap_calls"`
}

const goldenRelTol = 1e-9

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= goldenRelTol*math.Max(math.Abs(a), math.Abs(b))
}

func (v virtuals) equal(o virtuals) bool {
	return closeEnough(v.SetupMs, o.SetupMs) && closeEnough(v.InvokeMs, o.InvokeMs) && closeEnough(v.TotalMs, o.TotalMs) &&
		v.Faults == o.Faults && v.MajorFaults == o.MajorFaults && v.BlockRequests == o.BlockRequests && v.MmapCalls == o.MmapCalls
}

// outcome is one reply reduced to what the benchmark keeps.
type outcome struct {
	virt        virtuals
	degraded    bool
	faultTimeMs float64 // virtual
	fetchMB     float64
	vms         int // simulated VMs the reply covers
}

func fromInvoke(r *daemon.InvokeResponse) outcome {
	return outcome{
		virt: virtuals{
			SetupMs: r.SetupMs, InvokeMs: r.InvokeMs, TotalMs: r.TotalMs,
			Faults: r.Faults, MajorFaults: r.MajorFaults, BlockRequests: r.BlockRequests, MmapCalls: int64(r.MmapCalls),
		},
		degraded:    r.Degraded,
		faultTimeMs: r.FaultTimeMs,
		fetchMB:     r.FetchMB,
		vms:         1,
	}
}

// parseReply decodes a 200 body of the cell's endpoint.
func parseReply(c cell, body []byte) (outcome, error) {
	if c.Parallel == 0 {
		var r daemon.InvokeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return outcome{}, err
		}
		return fromInvoke(&r), nil
	}
	var br daemon.BurstResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return outcome{}, err
	}
	if len(br.Results) != c.Parallel {
		return outcome{}, fmt.Errorf("burst of %d returned %d results", c.Parallel, len(br.Results))
	}
	out := outcome{degraded: br.Degraded, vms: len(br.Results)}
	for i := range br.Results {
		o := fromInvoke(&br.Results[i])
		out.virt.SetupMs += o.virt.SetupMs
		out.virt.InvokeMs += o.virt.InvokeMs
		out.virt.Faults += o.virt.Faults
		out.virt.MajorFaults += o.virt.MajorFaults
		out.virt.BlockRequests += o.virt.BlockRequests
		out.virt.MmapCalls += o.virt.MmapCalls
		out.faultTimeMs += o.faultTimeMs
		out.fetchMB += o.fetchMB
		out.degraded = out.degraded || o.degraded
	}
	n := float64(len(br.Results))
	out.virt.SetupMs /= n
	out.virt.InvokeMs /= n
	out.virt.TotalMs = br.MeanMs
	return out, nil
}

// golden checks replies against the committed file, or — when
// updating — collects what the replies say instead.
type golden struct {
	mu       sync.Mutex
	cells    map[string]virtuals
	updating bool
	fresh    map[string]bool // cells rewritten by this update run
}

// goldenPath is where -update-golden writes, relative to the
// repository root the benchmark runs from.
const goldenPath = "benchmark/golden.json"

// loadGolden reads the golden built into the binary; an update starts
// from the file on disk instead, so updating one workload keeps the
// cells of the others.
func loadGolden(updating bool) (*golden, error) {
	g := &golden{cells: map[string]virtuals{}, updating: updating, fresh: map[string]bool{}}
	raw := goldenRaw
	if updating {
		if disk, err := os.ReadFile(goldenPath); err == nil {
			raw = disk
		}
	}
	if err := json.Unmarshal(raw, &g.cells); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// check reports whether v is the golden value of the cell. A cell the
// golden does not hold is a failure, not a skip. When updating, a
// cell's first reply becomes its golden value and later replies must
// repeat it: a cell that cannot repeat itself cannot be pinned.
func (g *golden) check(key string, v virtuals) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.updating && !g.fresh[key] {
		g.cells[key], g.fresh[key] = v, true
		return true
	}
	want, ok := g.cells[key]
	return ok && want.equal(v)
}

func (g *golden) write() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]string, 0, len(g.cells))
	for k := range g.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One cell per line, keys sorted: a changed paper number is a
	// one-line diff.
	out := []byte("{\n")
	for i, k := range keys {
		cellJSON, err := json.Marshal(g.cells[k])
		if err != nil {
			return err
		}
		keyJSON, _ := json.Marshal(k)
		out = append(out, "  "...)
		out = append(out, keyJSON...)
		out = append(out, ": "...)
		out = append(out, cellJSON...)
		if i < len(keys)-1 {
			out = append(out, ',')
		}
		out = append(out, '\n')
	}
	out = append(out, "}\n"...)
	return os.WriteFile(goldenPath, out, 0o644)
}
