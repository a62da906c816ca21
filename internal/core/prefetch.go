package core

import (
	"time"

	"faasnap/internal/metrics"
	"faasnap/internal/pagebits"
	"faasnap/internal/snapshot"
)

// PrefetchStats quantifies how well a restore's prefetch set matched
// the invocation's actual page demand — the first direct measurement
// of the FaaSnap mechanism itself. Joining the prefetch plan (the
// loading set, working set, or REAP file, depending on mode) against
// the pages the guest actually faulted gives:
//
//   - precision = hit / prefetched: the fraction of prefetched pages
//     the invocation used. Low precision is wasted disk bandwidth and
//     page cache — the loading set is too broad.
//   - recall = hit / used: the fraction of demanded pages the prefetch
//     covered. Low recall means the guest paid major faults the
//     loading set should have absorbed — the set is too narrow or
//     mis-ordered relative to this input.
//
// WastedBytes prices the precision gap (prefetched-but-unused bytes);
// MissedMajorTime prices the recall gap (time the guest spent blocked
// on major faults for pages outside the prefetch set).
type PrefetchStats struct {
	// PrefetchedPages is the size of the prefetch plan in guest pages.
	PrefetchedPages int64
	// UsedPages is the number of distinct guest pages the invocation
	// faulted with host-visible file work (minor/major/uffd; anonymous
	// zero-fills move no snapshot data and are excluded).
	UsedPages int64
	// HitPages is the intersection: prefetched pages that were used.
	HitPages int64

	Precision float64
	Recall    float64

	// WastedBytes is the prefetched-but-unused volume.
	WastedBytes int64
	// MissedMajorTime is the summed device-blocked time of major faults
	// on pages outside the prefetch set.
	MissedMajorTime time.Duration
}

// prefetchSet returns the guest pages the given restore mode
// prefetches for these artifacts, or nil when the mode has no prefetch
// plan (warm, plain Firecracker, Cached, cold). The bitmap is built
// once per mode and shared: callers only read it.
func (a *Artifacts) prefetchSet(mode Mode, lsDegraded bool) *pagebits.Set {
	if mode == ModeFaaSnap && lsDegraded {
		// Degraded restores fall back to the per-region plan over the
		// unmerged regions.
		mode = ModePerRegion
	}
	switch mode {
	case ModeFaaSnap, ModePerRegion, ModeConcurrentPaging, ModeREAP:
	default:
		return nil
	}
	a.derived.mu.Lock()
	defer a.derived.mu.Unlock()
	if set := a.derived.prefetch[mode]; set != nil {
		return set
	}
	set := pagebits.New(a.Fn.GuestConfig().Pages)
	addRegions := func(regions []snapshot.Region) {
		for _, reg := range regions {
			set.AddRange(reg.Start, reg.End())
		}
	}
	switch mode {
	case ModeFaaSnap:
		// The loading-set regions include merge-gap filler pages; those
		// are genuinely read from disk, so they count as prefetched.
		addRegions(a.LS.Regions)
	case ModePerRegion:
		addRegions(a.LSUnmerged.Regions)
	case ModeConcurrentPaging:
		for _, g := range a.WS.Groups {
			for _, p := range g {
				set.Add(p)
			}
		}
	case ModeREAP:
		for _, p := range a.ReapWS.Pages {
			set.Add(p)
		}
	}
	a.derived.prefetch[mode] = set
	return set
}

// ComputePrefetch joins the mode's prefetch plan against the result's
// fault trace and returns the effectiveness measurement, or nil when
// the mode prefetches nothing or the result carries no fault trace
// (tracing disabled). Call it on a completed result (after the
// simulation run has finished).
func ComputePrefetch(arts *Artifacts, r *InvokeResult) *PrefetchStats {
	if r == nil || r.FaultTrace == nil {
		return nil
	}
	pre := arts.prefetchSet(r.Mode, r.LSDegraded)
	if pre == nil {
		return nil
	}
	used := pagebits.New(arts.Fn.GuestConfig().Pages)
	ps := &PrefetchStats{PrefetchedPages: pre.Count()}
	for _, ev := range r.FaultTrace {
		switch ev.Kind {
		case metrics.FaultMinor, metrics.FaultMajor, metrics.FaultUffd:
		default: // anonymous zero-fill / PTE fixup: no snapshot data moved
			continue
		}
		prefetched := pre.Has(ev.Page)
		if used.Add(ev.Page) && prefetched {
			ps.HitPages++
		}
		if ev.Kind == metrics.FaultMajor && !prefetched {
			ps.MissedMajorTime += ev.Duration
		}
	}
	ps.UsedPages = used.Count()
	if ps.PrefetchedPages > 0 {
		ps.Precision = float64(ps.HitPages) / float64(ps.PrefetchedPages)
	}
	if ps.UsedPages > 0 {
		ps.Recall = float64(ps.HitPages) / float64(ps.UsedPages)
	}
	ps.WastedBytes = (ps.PrefetchedPages - ps.HitPages) * snapshot.PageSize
	return ps
}
