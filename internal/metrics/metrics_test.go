package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestBucketing(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{100 * time.Nanosecond, 0},
		{499 * time.Nanosecond, 0},
		{500 * time.Nanosecond, 1},
		{999 * time.Nanosecond, 1},
		{time.Microsecond, 2},
		{2 * time.Microsecond, 3},
		{3 * time.Microsecond, 3},
		{4 * time.Microsecond, 4},
		{512 * time.Microsecond, 11},
		{time.Hour, HistBuckets},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestBucketForMatchesLog2 checks bucketFor against the floating-point
// formula it replaced, 1 + ⌊log₂(d/histBase)⌋ capped at HistBuckets: at
// every bucket edge ±3 ns for 40 doublings, and at every d in
// [500 ns, 50 ms]. (Uncapped, the float form is the inexact one: at
// 2^40 buckets it rounds histBase·2^40 − 1 ns up into the next bucket.)
func TestBucketForMatchesLog2(t *testing.T) {
	check := func(d time.Duration) bool {
		want := 1 + int(math.Log2(float64(d)/float64(histBase)))
		if want > HistBuckets {
			want = HistBuckets
		}
		if got := bucketFor(d); got != want {
			t.Errorf("bucketFor(%d ns) = %d, want %d", d, got, want)
			return false
		}
		return true
	}
	for k := 0; k <= 40; k++ {
		edge := histBase << k
		for delta := -3 * time.Nanosecond; delta <= 3*time.Nanosecond; delta++ {
			if d := edge + delta; d >= histBase && !check(d) {
				return
			}
		}
	}
	for d := histBase; d <= 50*time.Millisecond; d++ {
		if !check(d) {
			return
		}
	}
}

func TestHistogramMeanAndMax(t *testing.T) {
	var h Histogram
	h.Add(2 * time.Microsecond)
	h.Add(4 * time.Microsecond)
	h.Add(6 * time.Microsecond)
	if h.N != 3 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Mean() != 4*time.Microsecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.MaxVal != 6*time.Microsecond {
		t.Fatalf("Max = %v", h.MaxVal)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(time.Microsecond)
	b.Add(100 * time.Microsecond)
	a.Merge(&b)
	if a.N != 2 || a.MaxVal != 100*time.Microsecond {
		t.Fatalf("merged = N %d max %v", a.N, a.MaxVal)
	}
}

func TestFaultStats(t *testing.T) {
	var s FaultStats
	s.Record(FaultAnon, 2500*time.Nanosecond)
	s.Record(FaultMinor, 3700*time.Nanosecond)
	s.Record(FaultMajor, 70*time.Microsecond)
	s.Record(FaultMajor, 90*time.Microsecond)
	if s.Total() != 4 {
		t.Fatalf("Total = %d", s.Total())
	}
	if s.Majors() != 2 {
		t.Fatalf("Majors = %d", s.Majors())
	}
	wantTotal := 2500*time.Nanosecond + 3700*time.Nanosecond + 160*time.Microsecond
	if s.TotalTime() != wantTotal {
		t.Fatalf("TotalTime = %v, want %v", s.TotalTime(), wantTotal)
	}
	s.VCPUBloc = time.Millisecond
	if s.WaitingTime() != wantTotal+time.Millisecond {
		t.Fatalf("WaitingTime = %v", s.WaitingTime())
	}
}

func TestFaultStatsMerge(t *testing.T) {
	var a, b FaultStats
	a.Record(FaultMinor, time.Microsecond)
	b.Record(FaultMajor, 50*time.Microsecond)
	b.VCPUBloc = time.Millisecond
	a.Merge(&b)
	if a.Total() != 2 || a.Majors() != 1 || a.VCPUBloc != time.Millisecond {
		t.Fatalf("merged = %+v", a)
	}
	if a.Hist.N != 2 {
		t.Fatalf("merged hist N = %d", a.Hist.N)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		FaultAnon:   "anon",
		FaultMinor:  "minor",
		FaultMajor:  "major",
		FaultUffd:   "uffd",
		FaultPTEFix: "pte-fix",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestStringsNonEmpty(t *testing.T) {
	var s FaultStats
	s.Record(FaultMinor, time.Microsecond)
	if !strings.Contains(s.String(), "minor=1") {
		t.Fatalf("FaultStats.String() = %q", s.String())
	}
	if s.Hist.String() == "" {
		t.Fatal("histogram string empty")
	}
}
