package experiments

import (
	"fmt"

	"faasnap/internal/core"
	"faasnap/internal/workingset"
	"faasnap/internal/workload"
)

// Ablations sweeps the region-merge distance, an empirically chosen
// constant of the design (32 pages, §4.6), and measures its effect on
// loading-set shape and FaaSnap invocation time for image (record A,
// test B). The other such constant, the working-set group size (1024
// pages, §4.3), sets the recorder's scan cadence, so it acts only while
// recording; regrouping a recorded set moves no cell, and it is not
// swept.
func Ablations(opt Options) *Report {
	host := opt.host()
	fn, err := workload.ByName("image")
	if err != nil {
		panic(err)
	}
	base := artifactsFor(host, fn, fn.A)
	rep := &Report{
		Name:  "ablations",
		Title: "Design-constant ablations (image, record A → test B, FaaSnap mode)",
		Header: []string{"variant", "LS regions", "LS MB", "mmap calls",
			"major faults", "total (ms)"},
	}

	// Each variant clones the shared base artifacts (the cache hands
	// out one immutable instance) and replaces only its loading set;
	// gap 0 means no merging at all.
	gaps := []int64{0, 8, 32, 128, 512}
	if opt.Quick {
		gaps = []int64{0, 32, 512}
	}
	run := newRunner(opt)
	for _, gap := range gaps {
		arts := base.Clone()
		arts.LS = workingset.BuildLoadingSet(base.WS, base.Mem, gap)
		c := run.single(host, fixed(arts), core.ModeFaaSnap, fn.B)
		run.then(func() {
			r := c.res
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("merge gap %d pages", gap),
				fmt.Sprintf("%d", len(arts.LS.Regions)),
				fmt.Sprintf("%.1f", float64(arts.LS.Bytes())/(1<<20)),
				fmt.Sprintf("%d", r.MmapCalls),
				fmt.Sprintf("%d", r.Faults.Majors()),
				ms(r.Total),
			})
		})
	}
	run.wait()

	rep.Notes = append(rep.Notes,
		"merge gap 0 maximizes mmap calls (one per fragment); larger gaps trade extra file bytes for fewer mappings — the paper picks 32; with this workload's clustered heap, gaps beyond ~8 pages change little until they start swallowing inter-cluster holes (512)")
	return rep
}
