// The tests sit outside the package because the pool-behaviour tests
// below drive the warm-pool simulator, internal/cluster, which imports
// policy for the types these tests build.
package policy_test

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"faasnap/internal/cluster"
	"faasnap/internal/policy"
)

func spec(mean, horizon time.Duration) policy.TraceSpec {
	return policy.TraceSpec{MeanInterarrival: mean, Horizon: horizon, Seed: 7}
}

func TestGenerateSortedWithinHorizon(t *testing.T) {
	arr := policy.Generate(spec(time.Minute, time.Hour))
	if len(arr) == 0 {
		t.Fatal("empty trace")
	}
	for i, a := range arr {
		if a < 0 || a >= time.Hour+time.Second {
			t.Fatalf("arrival %d = %v outside horizon", i, a)
		}
		if i > 0 && a < arr[i-1] {
			t.Fatal("unsorted arrivals")
		}
	}
	// Poisson with mean 1/min over an hour: roughly 60 arrivals.
	if len(arr) < 30 || len(arr) > 120 {
		t.Fatalf("arrivals = %d, want ≈60", len(arr))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := policy.Generate(spec(time.Minute, time.Hour))
	b := policy.Generate(spec(time.Minute, time.Hour))
	if len(a) != len(b) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic arrivals")
		}
	}
}

func TestGenerateBursts(t *testing.T) {
	s := spec(time.Minute, time.Hour)
	s.BurstProb = 1.0
	s.BurstSize = 8
	arr := policy.Generate(s)
	if len(arr)%8 != 0 {
		t.Fatalf("arrivals = %d, want multiple of burst size", len(arr))
	}
}

// simulate serves one function's trace from one host whose memory never
// runs out, the form in which the simulator answers the §7.1 question.
func simulate(trace policy.TraceSpec, keepAlive time.Duration, useSnapshot bool) cluster.Result {
	snapshots := cluster.NoSnapshots
	if useSnapshot {
		snapshots = cluster.ProactiveSnapshots
	}
	return cluster.Simulate(cluster.Config{
		Hosts: 1, HostMem: math.MaxInt64,
		KeepAlive: keepAlive, Snapshots: snapshots, Horizon: trace.Horizon,
	}, []cluster.Function{{Name: "fn", Costs: testCosts(), Trace: trace}})
}

func testCosts() policy.Costs {
	return policy.Costs{
		WarmStart:     0,
		SnapshotStart: 70 * time.Millisecond,
		ColdStart:     900 * time.Millisecond,
		Exec:          100 * time.Millisecond,
		WarmRSSBytes:  256 << 20,
		SnapshotBytes: 120 << 20,
	}
}

func TestFrequentFunctionStaysWarm(t *testing.T) {
	res := simulate(spec(30*time.Second, time.Hour), 15*time.Minute, true)
	if res.Starts[policy.ColdStart] != 1 {
		t.Fatalf("cold starts = %d, want exactly the first", res.Starts[policy.ColdStart])
	}
	if res.StartFraction(policy.WarmStart) < 0.9 {
		t.Fatalf("warm fraction = %v, want >= 0.9 for a frequent function", res.StartFraction(policy.WarmStart))
	}
}

func TestRareFunctionUsesSnapshots(t *testing.T) {
	// Invoked every ~30 minutes with a 15-minute keep-alive: warm VMs
	// always expire; snapshots absorb what would be cold starts.
	trace := spec(30*time.Minute, 24*time.Hour)
	withSnap := simulate(trace, 15*time.Minute, true)
	without := simulate(trace, 15*time.Minute, false)
	if withSnap.Starts[policy.ColdStart] > 1 {
		t.Fatalf("cold starts with snapshots = %d, want 1", withSnap.Starts[policy.ColdStart])
	}
	if without.Starts[policy.ColdStart] < without.Invocations/2 {
		t.Fatalf("cold starts without snapshots = %d of %d, want most", without.Starts[policy.ColdStart], without.Invocations)
	}
	if withSnap.P95Start >= without.P95Start {
		t.Fatalf("snapshot p95 (%v) not below cold p95 (%v)", withSnap.P95Start, without.P95Start)
	}
}

func TestKeepAliveCostsMemory(t *testing.T) {
	trace := spec(10*time.Minute, 24*time.Hour)
	long := simulate(trace, 60*time.Minute, false)
	short := simulate(trace, time.Minute, false)
	if long.WarmGBHours <= short.WarmGBHours {
		t.Fatalf("longer keep-alive (%v GBh) not more memory than shorter (%v GBh)",
			long.WarmGBHours, short.WarmGBHours)
	}
	if long.StartFraction(policy.WarmStart) <= short.StartFraction(policy.WarmStart) {
		t.Fatal("longer keep-alive did not increase warm hits")
	}
}

func TestSnapshotStorageAccounted(t *testing.T) {
	res := simulate(spec(time.Hour, 24*time.Hour), 15*time.Minute, true)
	if res.SnapshotGBHours <= 0 {
		t.Fatal("no snapshot storage accounted")
	}
	// ~120 MB held for ~24h ≈ 2.8 GBh.
	if res.SnapshotGBHours > 3.5 {
		t.Fatalf("snapshot GBh = %v, too large", res.SnapshotGBHours)
	}
}

func TestBurstGrowsPool(t *testing.T) {
	s := spec(time.Minute, time.Hour)
	s.BurstProb = 0.2
	s.BurstSize = 16
	res := simulate(s, 15*time.Minute, true)
	if res.PeakHostVMs < 16 {
		t.Fatalf("max pool = %d, want >= burst size", res.PeakHostVMs)
	}
}

func TestStartKindString(t *testing.T) {
	if policy.WarmStart.String() != "warm" || policy.SnapshotStart.String() != "snapshot" || policy.ColdStart.String() != "cold" {
		t.Fatal("bad kind strings")
	}
}

func TestSimulateInvariants(t *testing.T) {
	// Property: starts sum to invocations; fractions in [0,1]; first
	// invocation is never warm.
	f := func(seed int64, meanMinutes uint8, keepMinutes uint8, useSnap bool) bool {
		mean := time.Duration(meanMinutes%60+1) * time.Minute
		s := policy.TraceSpec{MeanInterarrival: mean, Horizon: 12 * time.Hour, Seed: seed}
		arr := policy.Generate(s)
		if len(arr) == 0 {
			return true
		}
		res := simulate(s, time.Duration(keepMinutes%90)*time.Minute, useSnap)
		if res.Invocations != len(arr) {
			return false
		}
		if res.Starts[policy.WarmStart]+res.Starts[policy.SnapshotStart]+res.Starts[policy.ColdStart] != res.Invocations {
			return false
		}
		if res.Starts[policy.ColdStart] < 1 {
			return false // the very first start cannot be warm or snapshot
		}
		if !useSnap && res.Starts[policy.SnapshotStart] != 0 {
			return false
		}
		if res.WarmGBHours < 0 || res.SnapshotGBHours < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroKeepAliveNeverWarm(t *testing.T) {
	res := simulate(spec(time.Minute, time.Hour), 0, true)
	if res.Starts[policy.WarmStart] != 0 {
		t.Fatalf("warm starts = %d with zero keep-alive", res.Starts[policy.WarmStart])
	}
}
