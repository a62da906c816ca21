// Package obs is the per-invocation flight recorder: every request the
// daemon serves appends one structured Profile — phase timings, fault
// counts, page-cache activity, prefetch effectiveness, degradation and
// retry outcomes, and the trace id linking to the stitched Zipkin
// trace — into a bounded ring. The ring answers GET /profiles queries:
// raw records filtered by function/mode, server-side aggregation
// (count + p50/p99 per function), and slowest-N top-K where each entry
// carries its trace id as an exemplar, so one hop from an aggregate
// regression lands in the specific slow invocation's trace.
//
// The recorder is the bridge between the metrics plane (aggregates:
// "p99 regressed") and the trace plane (one invocation: "this restore
// stalled 400ms in the loader") — it answers "which invocations, and
// why" without sampling decisions made up front.
package obs

import (
	"sort"
	"sync"

	"faasnap/internal/ring"
)

// DefaultRing is the capacity of the daemon's profile ring and of its
// trace store, which are sized together: one profile per trace keeps
// the two addressable together — if a profile still exists its
// exemplar trace usually does too.
const DefaultRing = 512

// CacheDelta is the page-cache activity attributable to one
// invocation (a compact projection of pagecache.Stats).
type CacheDelta struct {
	MinorHits      int64 `json:"minor_hits"`
	Misses         int64 `json:"misses"`
	ReadaheadPages int64 `json:"readahead_pages"`
	PopulatedPages int64 `json:"populated_pages"`
}

// PrefetchDelta is one invocation's prefetch-effectiveness measurement
// (see core.PrefetchStats for the definitions).
type PrefetchDelta struct {
	PrefetchedPages int64   `json:"prefetched_pages"`
	UsedPages       int64   `json:"used_pages"`
	HitPages        int64   `json:"hit_pages"`
	Precision       float64 `json:"precision"`
	Recall          float64 `json:"recall"`
	WastedBytes     int64   `json:"wasted_bytes"`
	MissedMajorMs   float64 `json:"missed_major_ms"`
}

// Profile is one invocation's flight record.
type Profile struct {
	// Seq is the ring-assigned sequence number (monotone per daemon).
	Seq uint64 `json:"seq"`
	// UnixMs is the wall-clock completion time in milliseconds.
	UnixMs int64 `json:"unix_ms"`

	Function string `json:"function"`
	Tenant   string `json:"tenant,omitempty"`
	// Mode is what the client asked for; ServedMode what actually ran
	// (they differ on fallback).
	Mode       string `json:"mode,omitempty"`
	ServedMode string `json:"served_mode,omitempty"`
	// Route is the serving endpoint: "invoke" or "burst".
	Route string `json:"route"`
	// TraceID is the exemplar: GET /traces/{id} resolves it to the
	// stitched daemon→VMM→guest trace of this exact invocation.
	TraceID string `json:"trace_id,omitempty"`
	Status  int    `json:"status"`

	// Phase timings in virtual (simulated) milliseconds, matching the
	// paper's measurement plane; WallMs is the real server wall time the
	// SLO engine judges.
	AdmissionMs float64 `json:"admission_ms"`
	SetupMs     float64 `json:"setup_ms"`
	FetchMs     float64 `json:"fetch_ms"`
	ExecMs      float64 `json:"exec_ms"`
	TotalMs     float64 `json:"total_ms"`
	WallMs      float64 `json:"wall_ms"`

	// FaultsByKind counts invocation-phase guest faults by resolution
	// kind (anon/minor/major/uffd/...).
	FaultsByKind map[string]int64 `json:"faults_by_kind,omitempty"`
	MajorFaultMs float64          `json:"major_fault_ms,omitempty"`

	Cache    *CacheDelta    `json:"cache,omitempty"`
	Prefetch *PrefetchDelta `json:"prefetch,omitempty"`

	Retries        int    `json:"retries,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	FallbackMode   string `json:"fallback_mode,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Ring is a bounded, concurrency-safe profile ring: appends past
// capacity overwrite the oldest record, so memory stays bounded no
// matter how long the daemon runs.
type Ring struct {
	mu  sync.RWMutex
	buf *ring.Ring[*Profile]
	seq uint64
}

// NewRing returns a ring retaining up to capacity profiles.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRing
	}
	return &Ring{buf: ring.New[*Profile](capacity)}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return r.buf.Cap() }

// Len returns the number of retained profiles.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.buf.Len()
}

// Append records p, assigning its sequence number. The ring keeps the
// pointer; callers must not mutate p afterwards.
func (r *Ring) Append(p *Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	p.Seq = r.seq
	r.buf.Push(p)
}

// Filter selects profiles; zero fields match everything.
type Filter struct {
	Function string
	Mode     string // matches the requested mode
}

func (f Filter) matches(p *Profile) bool {
	if f.Function != "" && p.Function != f.Function {
		return false
	}
	if f.Mode != "" && p.Mode != f.Mode {
		return false
	}
	return true
}

// Query returns matching profiles, newest first, up to limit
// (limit <= 0 returns all matches).
func (r *Ring) Query(f Filter, limit int) []*Profile {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Profile, 0, r.buf.Len())
	r.buf.Descend(func(p *Profile) bool {
		if f.matches(p) {
			out = append(out, p)
		}
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Slowest returns the n matching profiles with the largest wall time,
// slowest first — the "go from the aggregate to the culprit" query;
// each entry's TraceID is the exemplar hop into the trace store.
func (r *Ring) Slowest(f Filter, n int) []*Profile {
	matches := r.Query(f, 0)
	sort.SliceStable(matches, func(i, j int) bool { return matches[i].WallMs > matches[j].WallMs })
	if n > 0 && n < len(matches) {
		matches = matches[:n]
	}
	return matches
}

// FunctionSummary aggregates one function's profiles server-side.
type FunctionSummary struct {
	Function string `json:"function"`
	Count    int64  `json:"count"`
	Errors   int64  `json:"errors"` // non-2xx outcomes
	Degraded int64  `json:"degraded"`

	P50WallMs float64 `json:"p50_wall_ms"`
	P99WallMs float64 `json:"p99_wall_ms"`
	P50Ms     float64 `json:"p50_total_ms"` // virtual end-to-end
	P99Ms     float64 `json:"p99_total_ms"`

	// Prefetch effectiveness over the invocations that prefetched,
	// count-weighted means plus the summed waste.
	PrefetchCount    int64   `json:"prefetch_count,omitempty"`
	PrefetchPrec     float64 `json:"prefetch_precision,omitempty"`
	PrefetchRecall   float64 `json:"prefetch_recall,omitempty"`
	PrefetchWasteB   int64   `json:"prefetch_wasted_bytes,omitempty"`
	PrefetchMissedMs float64 `json:"prefetch_missed_major_ms,omitempty"`
}

// Summary is the GET /profiles?summary=1 payload: per-function
// aggregates plus totals, mergeable across daemons by the gateway.
type Summary struct {
	Count     int64             `json:"count"`
	Functions []FunctionSummary `json:"functions"`
}

// MergeSummaries combines per-daemon summaries into a cluster view.
// Counted fields sum exactly. Quantiles cannot be merged exactly from
// aggregates: the merged p50 is the count-weighted mean of the shard
// p50s (a central-tendency approximation) and the merged p99 is the
// max across shards (a conservative upper bound on the true cluster
// p99). Prefetch precision/recall merge as count-weighted means.
func MergeSummaries(sums []*Summary) *Summary {
	byFn := make(map[string]*FunctionSummary)
	var order []string
	out := &Summary{}
	for _, s := range sums {
		if s == nil {
			continue
		}
		out.Count += s.Count
		for i := range s.Functions {
			fs := &s.Functions[i]
			agg, ok := byFn[fs.Function]
			if !ok {
				agg = &FunctionSummary{Function: fs.Function}
				byFn[fs.Function] = agg
				order = append(order, fs.Function)
			}
			if fs.Count > 0 {
				total := agg.Count + fs.Count
				agg.P50WallMs = (agg.P50WallMs*float64(agg.Count) + fs.P50WallMs*float64(fs.Count)) / float64(total)
				agg.P50Ms = (agg.P50Ms*float64(agg.Count) + fs.P50Ms*float64(fs.Count)) / float64(total)
			}
			if fs.P99WallMs > agg.P99WallMs {
				agg.P99WallMs = fs.P99WallMs
			}
			if fs.P99Ms > agg.P99Ms {
				agg.P99Ms = fs.P99Ms
			}
			if fs.PrefetchCount > 0 {
				total := agg.PrefetchCount + fs.PrefetchCount
				agg.PrefetchPrec = (agg.PrefetchPrec*float64(agg.PrefetchCount) + fs.PrefetchPrec*float64(fs.PrefetchCount)) / float64(total)
				agg.PrefetchRecall = (agg.PrefetchRecall*float64(agg.PrefetchCount) + fs.PrefetchRecall*float64(fs.PrefetchCount)) / float64(total)
				agg.PrefetchCount = total
			}
			agg.Count += fs.Count
			agg.Errors += fs.Errors
			agg.Degraded += fs.Degraded
			agg.PrefetchWasteB += fs.PrefetchWasteB
			agg.PrefetchMissedMs += fs.PrefetchMissedMs
		}
	}
	sort.Strings(order)
	for _, name := range order {
		out.Functions = append(out.Functions, *byFn[name])
	}
	return out
}

// quantile returns the q-quantile (0..1) of sorted values (nearest
// rank); zero for empty input.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Summarize aggregates profiles per function.
func Summarize(profiles []*Profile) *Summary {
	byFn := make(map[string][]*Profile)
	for _, p := range profiles {
		byFn[p.Function] = append(byFn[p.Function], p)
	}
	names := make([]string, 0, len(byFn))
	for n := range byFn {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := &Summary{Count: int64(len(profiles))}
	for _, name := range names {
		ps := byFn[name]
		fs := FunctionSummary{Function: name, Count: int64(len(ps))}
		wall := make([]float64, 0, len(ps))
		total := make([]float64, 0, len(ps))
		var precSum, recSum float64
		for _, p := range ps {
			wall = append(wall, p.WallMs)
			total = append(total, p.TotalMs)
			if p.Status/100 != 2 {
				fs.Errors++
			}
			if p.Degraded {
				fs.Degraded++
			}
			if p.Prefetch != nil {
				fs.PrefetchCount++
				precSum += p.Prefetch.Precision
				recSum += p.Prefetch.Recall
				fs.PrefetchWasteB += p.Prefetch.WastedBytes
				fs.PrefetchMissedMs += p.Prefetch.MissedMajorMs
			}
		}
		sort.Float64s(wall)
		sort.Float64s(total)
		fs.P50WallMs = quantile(wall, 0.50)
		fs.P99WallMs = quantile(wall, 0.99)
		fs.P50Ms = quantile(total, 0.50)
		fs.P99Ms = quantile(total, 0.99)
		if fs.PrefetchCount > 0 {
			fs.PrefetchPrec = precSum / float64(fs.PrefetchCount)
			fs.PrefetchRecall = recSum / float64(fs.PrefetchCount)
		}
		sum.Functions = append(sum.Functions, fs)
	}
	return sum
}
