package core

import (
	"fmt"
	"testing"

	"faasnap/internal/workload"
)

// smallArtifacts records the i-th of the 24 small functions the
// benchmark's small-gateway workload serves (bm-small-00..23: a 4-10 MB
// boot image, 96-320 stable pages), from the same spec fields.
func smallArtifacts(tb testing.TB, i int) *Artifacts {
	tb.Helper()
	name := fmt.Sprintf("bm-small-%02d", i)
	if a, ok := recCache[name]; ok {
		return a
	}
	c := workload.SpecConfig{
		Name: name, BootMB: int64(4 + i%4*2), StablePages: int64(96 + i%8*32), ChunkMean: 3 + i%5,
		RetainFrac: 0.5, BaseMs: int64(1 + i%3), PerKBUs: 2, InitMs: int64(5 + i%4*5),
		InputA: workload.InputConfig{Bytes: 4096, DataPages: 8},
		InputB: workload.InputConfig{Bytes: 16384, DataPages: 24},
	}
	fn, err := c.Spec()
	if err != nil {
		tb.Fatal(err)
	}
	arts, _ := Record(DefaultHostConfig(), fn, fn.A)
	recCache[name] = arts
	return arts
}

// BenchmarkSmallCells measures the simulator's wall cost and
// allocations of one small-gateway request's invoke: one op is a
// traced FaaSnap-mode, input-A invocation of each of the 24 small
// functions, the fixed per-invocation cost a small request pays. The
// artifacts are recorded once, before the timer starts.
func BenchmarkSmallCells(b *testing.B) {
	var arts []*Artifacts
	for i := 0; i < 24; i++ {
		arts = append(arts, smallArtifacts(b, i))
	}
	cfg := DefaultHostConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range arts {
			RunSingleTraced(cfg, a, ModeFaaSnap, a.Fn.A)
		}
	}
}

// BenchmarkPaperCells measures the simulator's wall cost of the paper's
// own grid: one op is a traced input-B invocation of each of the nine
// Figure-6 functions in each of the four restore modes, 36 cells. The
// artifacts are recorded once, before the timer starts.
func BenchmarkPaperCells(b *testing.B) {
	var arts []*Artifacts
	for _, s := range workload.Benchmarks() {
		arts = append(arts, artifactsFor(b, s.Name))
	}
	modes := []Mode{ModeFaaSnap, ModeFirecracker, ModeREAP, ModeCached}
	cfg := DefaultHostConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range arts {
			for _, mode := range modes {
				RunSingleTraced(cfg, a, mode, a.Fn.B)
			}
		}
	}
}

// BenchmarkBurstCells measures the simulator's wall cost of the
// burst-direct grid: one op is RunBurst of input B for hello-world and
// json, 8 and 16 VMs, FaaSnap and Firecracker mode, from one shared
// snapshot and from one snapshot per VM, 16 cells. The artifacts are
// recorded once, before the timer starts.
func BenchmarkBurstCells(b *testing.B) {
	var arts []*Artifacts
	for _, name := range []string{"hello-world", "json"} {
		arts = append(arts, artifactsFor(b, name))
	}
	cfg := DefaultHostConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range arts {
			for _, parallel := range []int{8, 16} {
				for _, mode := range []Mode{ModeFaaSnap, ModeFirecracker} {
					RunBurst(cfg, a, mode, a.Fn.B, parallel, true)
					RunBurst(cfg, a, mode, a.Fn.B, parallel, false)
				}
			}
		}
	}
}
