package main

// The benchmark owns its inputs: function specs and op sequences are
// generated here from the seed, so an edit to internal/loadgen (whose
// SynthSpec shape the small functions copy, frozen) cannot move a
// number. The seed decides the order of ops, never the mix: every
// block holds the same multiset of cells for every seed, so two seeds
// measure the same work in a different order.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// cell is one distinct request shape; the golden holds one entry per
// cell and latency is summarised per cell.
type cell struct {
	Fn       string
	Mode     string
	Input    string
	Parallel int // > 0 makes it a POST /burst
	Same     bool
}

func (c cell) key() string {
	if c.Parallel > 0 {
		same := "distinct"
		if c.Same {
			same = "same"
		}
		return fmt.Sprintf("%s/burst/%s/%s/p%d/%s", c.Fn, c.Mode, c.Input, c.Parallel, same)
	}
	return fmt.Sprintf("%s/%s/%s", c.Fn, c.Mode, c.Input)
}

// fnSpec is one function to register: a catalog name, or a custom
// spec body for PUT /functions/{name}.
type fnSpec struct {
	Name string
	Body []byte // nil: catalog function
}

type op struct {
	Cell   int
	Tenant int
}

// inputs is everything a workload sends, as a pure function of the
// seed: an endless sequence of blocks of blockLen ops each.
type inputs struct {
	fns      []fnSpec
	cells    []cell
	blockLen int
	// groups are one block's cells; the seeded shuffle keeps each
	// group's internal order (a record-sync image group must record
	// its first member first on every seed).
	groups [][]int
	seed   int64
}

const tenants = 8

// block returns the ops of block b: the groups shuffled by a generator
// seeded from (seed, b), flattened. Tenants cost nothing to serve and
// are drawn Zipf(1.2) from the same generator.
func (in *inputs) block(b int) []op {
	rng := rand.New(rand.NewSource(in.seed ^ int64(uint64(b+1)*0x9e3779b97f4a7c15)))
	order := rng.Perm(len(in.groups))
	tenantZipf := rand.NewZipf(rng, 1.2, 1, tenants-1)
	out := make([]op, 0, in.blockLen)
	for _, g := range order {
		for _, c := range in.groups[g] {
			out = append(out, op{Cell: c, Tenant: int(tenantZipf.Uint64())})
		}
	}
	return out
}

func singles(n int) [][]int {
	g := make([][]int, n)
	for i := range g {
		g[i] = []int{i}
	}
	return g
}

func finish(in *inputs, seed int64) *inputs {
	in.seed = seed
	in.blockLen = 0
	for _, g := range in.groups {
		in.blockLen += len(g)
	}
	return in
}

// customSpec is the PUT body of a synthetic function.
func customSpec(name string, bootMB, stablePages, chunkMean, baseMs, initMs int) []byte {
	raw, err := json.Marshal(map[string]interface{}{
		"name":         name,
		"description":  "benchmark synthetic function",
		"boot_mb":      bootMB,
		"stable_pages": stablePages,
		"chunk_mean":   chunkMean,
		"retain_frac":  0.5,
		"base_ms":      baseMs,
		"per_kb_us":    2,
		"init_ms":      initMs,
		"input_a":      map[string]int64{"bytes": 4096, "data_pages": 8},
		"input_b":      map[string]int64{"bytes": 16384, "data_pages": 24},
	})
	if err != nil {
		panic(err) // static shape
	}
	return raw
}

// smallFn is the i-th small function: the loadgen.SynthSpec shape
// (4-10 MB boot image, 96-320 stable pages), frozen.
func smallFn(i int) fnSpec {
	name := fmt.Sprintf("bm-small-%02d", i)
	return fnSpec{Name: name, Body: customSpec(name, 4+(i%4)*2, 96+(i%8)*32, 3+i%5, 1+i%3, 5+(i%4)*5)}
}

const (
	smallFns       = 24
	smallBlockOps  = 240
	smallZipfSkew  = 1.2
	smallRankStep  = 7 // rank r is function r*7 mod 24: popularity uncorrelated with size
	paperInput     = "B"
	burstInput     = "B"
	recordInput    = "A"
	syncSharedPer  = 4
	syncStablePage = 256
)

// smallGatewayInputs: each block is 240-odd invokes whose per-function
// counts follow Zipf(1.2) over 24 functions, every function at least
// once, in seeded order.
func smallGatewayInputs(seed int64) *inputs {
	in := &inputs{}
	for i := 0; i < smallFns; i++ {
		f := smallFn(i)
		in.fns = append(in.fns, f)
		in.cells = append(in.cells, cell{Fn: f.Name, Mode: "faasnap", Input: "A"})
	}
	var norm float64
	for r := 0; r < smallFns; r++ {
		norm += math.Pow(float64(r+1), -smallZipfSkew)
	}
	for r := 0; r < smallFns; r++ {
		n := int(math.Round(smallBlockOps * math.Pow(float64(r+1), -smallZipfSkew) / norm))
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			in.groups = append(in.groups, []int{r * smallRankStep % smallFns})
		}
	}
	return finish(in, seed)
}

var (
	paperFns   = []string{"image", "json", "pyaes", "chameleon", "matmul", "ffmpeg", "compression", "recognition", "pagerank"}
	paperModes = []string{"faasnap", "firecracker", "reap", "cached"}
	burstFns   = []string{"hello-world", "json"}
	burstModes = []string{"faasnap", "firecracker"}
	burstSizes = []int{8, 16}
)

// paperDirectInputs: each block is the 36 (function, mode) cells of
// Figure 6 on input B, in seeded order.
func paperDirectInputs(seed int64) *inputs {
	in := &inputs{}
	for _, fn := range paperFns {
		in.fns = append(in.fns, fnSpec{Name: fn})
		for _, m := range paperModes {
			in.cells = append(in.cells, cell{Fn: fn, Mode: m, Input: paperInput})
		}
	}
	in.groups = singles(len(in.cells))
	return finish(in, seed)
}

// burstDirectInputs: each block is the 16 burst cells, in seeded order.
func burstDirectInputs(seed int64) *inputs {
	in := &inputs{}
	for _, fn := range burstFns {
		in.fns = append(in.fns, fnSpec{Name: fn})
		for _, p := range burstSizes {
			for _, m := range burstModes {
				for _, same := range []bool{true, false} {
					in.cells = append(in.cells, cell{Fn: fn, Mode: m, Input: burstInput, Parallel: p, Same: same})
				}
			}
		}
	}
	in.groups = singles(len(in.cells))
	return finish(in, seed)
}

// Record-sync functions. The chunk store derives boot-image pages
// from the image size alone, so functions with equal boot_mb share
// those chunks and functions with distinct boot_mb share nothing.
var (
	syncUnsharedMB = []int{20, 24, 28, 32}
	syncSharedMB   = []int{8, 12, 16}
)

// recordSyncInputs: each block is one pass over 4 functions that share
// no chunks and 3 groups of 4 that share a boot image; groups are
// shuffled by the seed, members keep their order.
func recordSyncInputs(seed int64) *inputs {
	in := &inputs{}
	add := func(name string, bootMB, i int) int {
		in.fns = append(in.fns, fnSpec{Name: name, Body: customSpec(name, bootMB, syncStablePage+(i%4)*64, 4, 2, 10)})
		in.cells = append(in.cells, cell{Fn: name, Mode: "faasnap", Input: recordInput})
		return len(in.cells) - 1
	}
	for i, mb := range syncUnsharedMB {
		in.groups = append(in.groups, []int{add(fmt.Sprintf("bm-own-%02dmb", mb), mb, i)})
	}
	for _, mb := range syncSharedMB {
		var g []int
		for k := 0; k < syncSharedPer; k++ {
			g = append(g, add(fmt.Sprintf("bm-shared-%02dmb-%d", mb, k), mb, k))
		}
		in.groups = append(in.groups, g)
	}
	return finish(in, seed)
}

func inputsFor(workload string, seed int64) (*inputs, error) {
	switch workload {
	case wlSmallGateway:
		return smallGatewayInputs(seed), nil
	case wlPaperDirect:
		return paperDirectInputs(seed), nil
	case wlBurstDirect:
		return burstDirectInputs(seed), nil
	case wlRecordSync:
		return recordSyncInputs(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
