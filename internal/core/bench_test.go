package core

import (
	"testing"

	"faasnap/internal/workload"
)

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
