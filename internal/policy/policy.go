// Package policy holds the vocabulary of the paper's §7.1 discussion —
// when should a platform serve an invocation from a warm VM, from a
// snapshot, or with a cold boot? — that the warm-pool simulator in
// internal/cluster runs on: invocation arrival processes shaped like
// the Azure traces the paper cites (most functions invoked less than
// hourly, a small head invoked every minute, occasional bursts), the
// per-mode start costs of one function as measured from the core
// simulator, and the three ways an invocation can start.
package policy

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Arrivals is a sorted sequence of invocation times from t=0.
type Arrivals []time.Duration

// TraceSpec describes an arrival process.
type TraceSpec struct {
	// MeanInterarrival is the average gap between invocations.
	MeanInterarrival time.Duration
	// Horizon is the trace length.
	Horizon time.Duration
	// BurstProb is the probability that an arrival is a burst of
	// BurstSize near-simultaneous invocations (Azure's
	// burst-parallelism pattern, §6.6).
	BurstProb float64
	BurstSize int
	Seed      int64
}

// Generate produces a Poisson arrival trace (with optional bursts)
// deterministically from the spec's seed.
func Generate(spec TraceSpec) Arrivals {
	if spec.MeanInterarrival <= 0 || spec.Horizon <= 0 {
		panic("policy: trace spec needs positive mean interarrival and horizon")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var out Arrivals
	t := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(spec.MeanInterarrival))
		t += gap
		if t >= spec.Horizon {
			break
		}
		n := 1
		if spec.BurstSize > 1 && rng.Float64() < spec.BurstProb {
			n = spec.BurstSize
		}
		for i := 0; i < n; i++ {
			// Burst members arrive within a millisecond of each other.
			out = append(out, t+time.Duration(i)*time.Millisecond)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Costs are the per-mode serving costs for one function, measured from
// the data-plane simulator.
type Costs struct {
	// Start latencies: the extra time before the function runs,
	// relative to a warm invocation.
	WarmStart     time.Duration // ≈0: the environment exists
	SnapshotStart time.Duration // snapshot restore penalty
	ColdStart     time.Duration // boot + init penalty
	// Exec is the function execution time once started.
	Exec time.Duration
	// WarmRSSBytes is the memory a warm VM holds while kept alive.
	WarmRSSBytes int64
	// SnapshotBytes is the storage a snapshot occupies.
	SnapshotBytes int64
}

// StartKind classifies how an invocation was served.
type StartKind int

const (
	// WarmStart reused an idle warm VM.
	WarmStart StartKind = iota
	// SnapshotStart restored a snapshot.
	SnapshotStart
	// ColdStart booted and initialized a fresh VM.
	ColdStart
)

// String returns the kind name.
func (k StartKind) String() string {
	switch k {
	case WarmStart:
		return "warm"
	case SnapshotStart:
		return "snapshot"
	case ColdStart:
		return "cold"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}
