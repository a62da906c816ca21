package cpu

import (
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
