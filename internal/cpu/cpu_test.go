package cpu

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"faasnap/internal/sim"
)

// within asserts |got-want| <= tol.
func within(t *testing.T, name string, got, want, tol time.Duration) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > tol {
		t.Fatalf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestSingleJobUncontended(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e, 4)
	var end sim.Time
	e.Go("j", func(p *sim.Proc) {
		c.Exec(p, 10*time.Millisecond)
		end = p.Now()
	})
	e.Run()
	within(t, "end", end, 10*time.Millisecond, time.Microsecond)
}

func TestTwoJobsOneCore(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e, 1)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Go("j", func(p *sim.Proc) {
			c.Exec(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	for _, end := range ends {
		within(t, "end", end, 20*time.Millisecond, 10*time.Microsecond)
	}
}

func TestTwoJobsTwoCores(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e, 2)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Go("j", func(p *sim.Proc) {
			c.Exec(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	for _, end := range ends {
		within(t, "end", end, 10*time.Millisecond, 10*time.Microsecond)
	}
}

func TestThreeJobsTwoCores(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e, 2)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		e.Go("j", func(p *sim.Proc) {
			c.Exec(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	// Rate 2/3 each until all finish together at 15ms.
	for _, end := range ends {
		within(t, "end", end, 15*time.Millisecond, 50*time.Microsecond)
	}
}

func TestStaggeredArrivalClassicPS(t *testing.T) {
	// Job A: 10ms of work arriving at t=0 on one core.
	// Job B: 10ms of work arriving at t=5ms.
	// A runs alone 0-5ms (5ms done), then shares: finishes at 15ms.
	// B then runs alone with 5ms left: finishes at 20ms.
	e := sim.NewEnv(1)
	c := New(e, 1)
	var endA, endB sim.Time
	e.Go("A", func(p *sim.Proc) {
		c.Exec(p, 10*time.Millisecond)
		endA = p.Now()
	})
	e.Go("B", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		c.Exec(p, 10*time.Millisecond)
		endB = p.Now()
	})
	e.Run()
	within(t, "endA", endA, 15*time.Millisecond, 50*time.Microsecond)
	within(t, "endB", endB, 20*time.Millisecond, 50*time.Microsecond)
}

func TestManyJobsScaleLinearly(t *testing.T) {
	// 8 jobs on 2 cores, each 10ms: 4x dilation → all end at 40ms.
	e := sim.NewEnv(1)
	c := New(e, 2)
	var ends []sim.Time
	for i := 0; i < 8; i++ {
		e.Go("j", func(p *sim.Proc) {
			c.Exec(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	for _, end := range ends {
		within(t, "end", end, 40*time.Millisecond, 100*time.Microsecond)
	}
}

func TestNoContentionBelowCoreCount(t *testing.T) {
	// 48 jobs on 96 cores must not stretch.
	e := sim.NewEnv(1)
	c := New(e, 96)
	var ends []sim.Time
	for i := 0; i < 48; i++ {
		e.Go("j", func(p *sim.Proc) {
			c.Exec(p, time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	for _, end := range ends {
		within(t, "end", end, time.Millisecond, 10*time.Microsecond)
	}
}

func TestZeroWorkReturnsImmediately(t *testing.T) {
	e := sim.NewEnv(1)
	c := New(e, 1)
	e.Go("j", func(p *sim.Proc) {
		c.Exec(p, 0)
		if p.Now() != 0 {
			t.Errorf("zero work advanced time to %v", p.Now())
		}
	})
	e.Run()
}

func TestInterleavedComputeAndSleep(t *testing.T) {
	// A process alternating compute and I/O waits releases the CPU
	// while sleeping: a competing pure-compute job should finish
	// earlier than under full contention.
	e := sim.NewEnv(1)
	c := New(e, 1)
	var endCompute sim.Time
	e.Go("io", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			c.Exec(p, time.Millisecond)
			p.Sleep(time.Millisecond) // off-CPU
		}
	})
	e.Go("compute", func(p *sim.Proc) {
		c.Exec(p, 5*time.Millisecond)
		endCompute = p.Now()
	})
	e.Run()
	// Full contention would be 10ms; with the io job off-CPU half the
	// time, the compute job must finish strictly earlier.
	if endCompute >= 10*time.Millisecond {
		t.Fatalf("compute end = %v, want < 10ms (CPU not released during sleeps)", endCompute)
	}
	if endCompute <= 5*time.Millisecond {
		t.Fatalf("compute end = %v, want > 5ms (contention ignored)", endCompute)
	}
}

// psFingerprint is the FNV-64a hash of the (Now, burst) sequence
// TestPSFingerprint logs at every Exec return. It pins when each burst
// completes and the order of completions that coincide: a change to PS
// that moves either changes the hash.
const psFingerprint = "8fd2bf2fe6697046"

// TestPSFingerprint runs a seeded mix of bursts on a 3-core pool:
// equal bursts that start together (exact ties), random lengths with
// staggered arrivals and sleeps between bursts, and up to 12 runnable
// bursts at once, so the share moves as bursts come and go.
func TestPSFingerprint(t *testing.T) {
	h := fnv.New64a()
	e := sim.NewEnv(3)
	c := New(e, 3)
	rng := e.Rand()
	bursts := 0
	exec := func(p *sim.Proc, work time.Duration) {
		c.Exec(p, work)
		fmt.Fprintf(h, "%d %s\n", p.Now(), p.Name())
		bursts++
	}
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("tie%d", i), func(p *sim.Proc) {
			for k := 0; k < 20; k++ {
				exec(p, 700*time.Microsecond)
				p.Sleep(300 * time.Microsecond)
			}
		})
	}
	for i := 0; i < 8; i++ {
		e.Go(fmt.Sprintf("mix%d", i), func(p *sim.Proc) {
			p.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			for k := 0; k < 30; k++ {
				exec(p, time.Duration(1+rng.Intn(3_000_000)))
				if rng.Intn(3) > 0 {
					p.Sleep(time.Duration(rng.Intn(1_500_000)))
				}
			}
		})
	}
	e.Run()
	got := fmt.Sprintf("%016x", h.Sum64())
	t.Logf("%d bursts, ended at %v", bursts, e.Now())
	if got != psFingerprint {
		t.Fatalf("PS fingerprint = %s, want %s: bursts complete at other instants or in another order", got, psFingerprint)
	}
}
