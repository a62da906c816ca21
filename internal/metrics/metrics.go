// Package metrics provides the measurement vocabulary of the paper's
// evaluation: a page-fault taxonomy (anonymous, minor, major,
// userfaultfd, PTE-present fixups), log₂ latency histograms matching
// Figure 2's bucketing, and aggregated fault statistics used in the
// time-breakdown and ablation experiments.
package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// FaultKind classifies how a guest page access was resolved on the host.
// It is one byte, so a traced fault (hostmm.FaultEvent) packs into 32;
// signed, so a negative kind can mean "no fault".
type FaultKind int8

const (
	// FaultAnon is a fault on an anonymous mapping served by zero-fill.
	FaultAnon FaultKind = iota
	// FaultMinor is a file-backed fault served from the page cache.
	FaultMinor
	// FaultMajor is a file-backed fault that blocked on device I/O
	// (including waits on another reader's in-flight I/O).
	FaultMajor
	// FaultUffd is a fault delivered to a userfaultfd handler.
	FaultUffd
	// FaultPTEFix is a fast fault where the host PTE already existed
	// (for example pages pre-installed via UFFDIO_COPY) and only the
	// second-dimension (EPT) mapping had to be fixed up.
	FaultPTEFix
	// NumFaultKinds is the number of fault kinds.
	NumFaultKinds
)

// ParseFaultKind resolves a kind name as produced by String.
func ParseFaultKind(s string) (FaultKind, error) {
	for k := FaultKind(0); k < NumFaultKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("metrics: unknown fault kind %q", s)
}

// String returns the kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultAnon:
		return "anon"
	case FaultMinor:
		return "minor"
	case FaultMajor:
		return "major"
	case FaultUffd:
		return "uffd"
	case FaultPTEFix:
		return "pte-fix"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// histBase is the lower bound of the first histogram bucket. Figure 2's
// x axis runs from 0.5 µs to 512 µs in powers of two; we extend above
// that to capture pathological stalls.
const histBase = 500 * time.Nanosecond

// HistBuckets is the number of log₂ buckets: 0.5µs, 1µs, ..., up to
// ~0.5s in the last bucket.
const HistBuckets = 21

// Histogram is a log₂ latency histogram.
type Histogram struct {
	Counts [HistBuckets + 1]int64 // +1: underflow bucket for < histBase
	N      int64
	Sum    time.Duration
	MaxVal time.Duration
}

// BucketFor returns the bucket index for d, for code (the telemetry
// registry) that shares this package's bucket layout.
func BucketFor(d time.Duration) int { return bucketFor(d) }

// bucketFor returns the bucket index for d: 0 is the underflow bucket
// (< 0.5µs), bucket i covers [histBase·2^(i-1), histBase·2^i).
func bucketFor(d time.Duration) int {
	if d < histBase {
		return 0
	}
	i := bits.Len64(uint64(d / histBase))
	if i > HistBuckets {
		i = HistBuckets
	}
	return i
}

// Add records one observation.
func (h *Histogram) Add(d time.Duration) {
	h.Counts[bucketFor(d)]++
	h.N++
	h.Sum += d
	if d > h.MaxVal {
		h.MaxVal = d
	}
}

// Mean returns the average observation, or zero if empty.
func (h *Histogram) Mean() time.Duration {
	if h.N == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.N)
}

// BucketBound returns the upper bound of bucket i.
func BucketBound(i int) time.Duration {
	if i <= 0 {
		return histBase
	}
	return histBase << uint(i)
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
	h.N += other.N
	h.Sum += other.Sum
	if other.MaxVal > h.MaxVal {
		h.MaxVal = other.MaxVal
	}
}

// String renders the histogram one bucket per line, matching the
// Figure 2 presentation (bucket upper bound → count).
func (h *Histogram) String() string {
	var b strings.Builder
	for i := 0; i <= HistBuckets; i++ {
		if h.Counts[i] == 0 {
			continue
		}
		if i == 0 {
			fmt.Fprintf(&b, "  <%8v: %d\n", histBase, h.Counts[i])
		} else {
			fmt.Fprintf(&b, "  <%8v: %d\n", BucketBound(i), h.Counts[i])
		}
	}
	return b.String()
}

// FaultStats aggregates page-fault activity for one invocation or run.
type FaultStats struct {
	Count [NumFaultKinds]int64
	Time  [NumFaultKinds]time.Duration
	Hist  Histogram
	// KindHist is the per-fault-kind latency distribution, the
	// vHive-style per-kind instrumentation the telemetry exposition
	// exports as one Prometheus histogram per kind.
	KindHist [NumFaultKinds]Histogram
	VCPUBloc time.Duration // extra vCPU blocked time beyond fault service (kvm_vcpu_block)
}

// Record adds one fault of the given kind and duration.
func (s *FaultStats) Record(k FaultKind, d time.Duration) {
	s.Count[k]++
	s.Time[k] += d
	s.Hist.Add(d)
	s.KindHist[k].Add(d)
}

// Total returns the number of faults of all kinds.
func (s *FaultStats) Total() int64 {
	var n int64
	for _, c := range s.Count {
		n += c
	}
	return n
}

// TotalTime returns the summed fault service time.
func (s *FaultStats) TotalTime() time.Duration {
	var t time.Duration
	for _, d := range s.Time {
		t += d
	}
	return t
}

// WaitingTime is the paper's "page fault waiting time": fault service
// plus time KVM spent blocked waiting for the vCPU (Table 3).
func (s *FaultStats) WaitingTime() time.Duration {
	return s.TotalTime() + s.VCPUBloc
}

// Majors returns the number of major faults.
func (s *FaultStats) Majors() int64 { return s.Count[FaultMajor] }

// Merge adds other into s.
func (s *FaultStats) Merge(other *FaultStats) {
	for k := 0; k < int(NumFaultKinds); k++ {
		s.Count[k] += other.Count[k]
		s.Time[k] += other.Time[k]
		s.KindHist[k].Merge(&other.KindHist[k])
	}
	s.Hist.Merge(&other.Hist)
	s.VCPUBloc += other.VCPUBloc
}

// String summarizes counts and mean per kind.
func (s *FaultStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults=%d total=%v mean=%v", s.Total(), s.TotalTime(), s.Hist.Mean())
	for k := FaultKind(0); k < NumFaultKinds; k++ {
		if s.Count[k] > 0 {
			fmt.Fprintf(&b, " %s=%d", k, s.Count[k])
		}
	}
	return b.String()
}
