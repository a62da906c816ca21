package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		at = p.Now()
	})
	e.Run()
	if at != 10*time.Microsecond {
		t.Fatalf("clock after sleep = %v, want 10µs", at)
	}
}

func TestZeroSleepIsSchedulingPoint(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	e.Run()
	// b runs to completion during a's zero-length sleep because it was
	// scheduled before a's wake event.
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

// TestLoneSleepSkipsTheHeap: sleeps that end before anything queued
// advance the clock without posting, and Work still counts each.
func TestLoneSleepSkipsTheHeap(t *testing.T) {
	e := NewEnv(1)
	e.Go("lone", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	e.Run()
	if events, _ := e.Work(); e.seq != 1 || events != 6 || e.Now() != 5*time.Microsecond {
		t.Fatalf("posted %d, delivered %d events, clock %v; want 1 (the start), 6, 5µs", e.seq, events, e.Now())
	}
}

// TestSleepToAQueuedInstantRunsAfterIt: a sleep that ends exactly when
// a queued event is due goes through the heap and wakes after it.
func TestSleepToAQueuedInstantRunsAfterIt(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Microsecond) // before a's wake: in place
		p.Sleep(time.Microsecond) // ties with a's wake
		order = append(order, "b")
	})
	e.Run()
	if len(order) != 2 || order[0] != "a" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestSequentialOrdering(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(5-i) * time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", order)
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	e := NewEnv(1)
	ev := NewEvent(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			ev.Wait(p)
			woken++
			if p.Now() != 7*time.Microsecond {
				t.Errorf("woken at %v, want 7µs", p.Now())
			}
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(7 * time.Microsecond)
		ev.Fire()
	})
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := NewEnv(1)
	ev := NewEvent(e)
	ev.Fire()
	ran := false
	e.Go("w", func(p *Proc) {
		ev.Wait(p)
		ran = true
		if p.Now() != 0 {
			t.Errorf("time advanced waiting on fired event: %v", p.Now())
		}
	})
	e.Run()
	if !ran {
		t.Fatal("waiter did not run")
	}
}

func TestDoubleFireIsNoop(t *testing.T) {
	e := NewEnv(1)
	ev := NewEvent(e)
	e.Go("f", func(p *Proc) {
		ev.Fire()
		ev.Fire()
	})
	e.Run()
	if !ev.Fired() {
		t.Fatal("event not fired")
	}
}

func TestJoin(t *testing.T) {
	e := NewEnv(1)
	var childDone Time
	var joinedAt Time
	child := e.Go("child", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		childDone = p.Now()
	})
	e.Go("parent", func(p *Proc) {
		p.Join(child)
		joinedAt = p.Now()
	})
	e.Run()
	if childDone != 3*time.Millisecond || joinedAt != 3*time.Millisecond {
		t.Fatalf("childDone=%v joinedAt=%v, want 3ms both", childDone, joinedAt)
	}
}

func TestCondBroadcastWakesOnlyCurrentWaiters(t *testing.T) {
	e := NewEnv(1)
	c := NewCond(e)
	wokenFirst := false
	wokenSecond := false
	e.Go("w1", func(p *Proc) {
		c.Wait(p)
		wokenFirst = true
		c.Wait(p) // will never be broadcast again; killed at shutdown
		wokenSecond = true
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Microsecond)
		c.Broadcast()
	})
	e.Run()
	if !wokenFirst {
		t.Fatal("first wait not woken by broadcast")
	}
	if wokenSecond {
		t.Fatal("second wait woken without broadcast")
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEnv(1)
	c := NewCond(e)
	var signalled, timedOut bool
	e.Go("timeout", func(p *Proc) {
		ok := c.WaitTimeout(p, 5*time.Microsecond)
		timedOut = !ok
		if p.Now() != 5*time.Microsecond {
			t.Errorf("timeout at %v, want 5µs", p.Now())
		}
	})
	e.Go("signalled", func(p *Proc) {
		p.Sleep(6 * time.Microsecond) // waits again after the broadcast below
		ok := c.WaitTimeout(p, time.Second)
		signalled = ok
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		c.Broadcast()
	})
	e.Run()
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if !signalled {
		t.Fatal("expected signal before timeout")
	}
}

// TestTimeoutTiedWithBroadcast: a WaitTimeout whose timer falls on the
// instant of a Broadcast, queued before the broadcaster's batch, wakes
// on the timer. The batch still holds that waiter's wake, now stale:
// delivery skips it (Env.deliver's rival-wake branch) and wakes the
// waiter queued behind it.
func TestTimeoutTiedWithBroadcast(t *testing.T) {
	e := NewEnv(1)
	c := NewCond(e)
	var tied, behind bool
	e.Go("broadcaster", func(p *Proc) {
		p.Sleep(10 * time.Microsecond) // queued before the timer below
		c.Broadcast()
	})
	e.Go("tied", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		tied = c.WaitTimeout(p, 5*time.Microsecond)
		if p.Now() != 10*time.Microsecond {
			t.Errorf("tied waiter woke at %v, want 10µs", p.Now())
		}
	})
	e.Go("behind", func(p *Proc) {
		p.Sleep(7 * time.Microsecond)
		behind = c.WaitTimeout(p, time.Second)
		if p.Now() != 10*time.Microsecond {
			t.Errorf("waiter behind woke at %v, want 10µs", p.Now())
		}
	})
	e.Run()
	if tied || !behind {
		t.Fatalf("tied waiter signalled = %v, waiter behind signalled = %v; want the timer first, then the broadcast", tied, behind)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go("u", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // stagger arrivals
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(10 * time.Microsecond)
			r.Release()
		})
	}
	e.Run()
	for i := 0; i < 3; i++ {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Go("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * time.Microsecond)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	// Two batches of two: finishing at 10µs and 20µs.
	want := []Time{10 * time.Microsecond, 10 * time.Microsecond, 20 * time.Microsecond, 20 * time.Microsecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v", finish, want)
		}
	}
}

func TestMutex(t *testing.T) {
	e := NewEnv(1)
	m := NewMutex(e)
	counter := 0
	for i := 0; i < 5; i++ {
		e.Go("locker", func(p *Proc) {
			m.Lock(p)
			v := counter
			p.Sleep(time.Microsecond)
			counter = v + 1
			m.Unlock()
		})
	}
	e.Run()
	if counter != 5 {
		t.Fatalf("counter = %d, want 5 (lost update without mutual exclusion)", counter)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := NewEnv(42)
		var times []Time
		r := NewResource(e, 2)
		for i := 0; i < 8; i++ {
			e.Go("p", func(p *Proc) {
				d := time.Duration(e.Rand().Intn(100)) * time.Microsecond
				p.Sleep(d)
				r.Acquire(p)
				p.Sleep(5 * time.Microsecond)
				r.Release()
				times = append(times, p.Now())
			})
		}
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic from Run")
		}
	}()
	e := NewEnv(1)
	e.Go("bad", func(p *Proc) {
		panic("boom")
	})
	e.Run()
}

func TestSpawnFromRunningProcess(t *testing.T) {
	e := NewEnv(1)
	var childAt Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(4 * time.Microsecond)
		child := e.Go("child", func(c *Proc) {
			c.Sleep(2 * time.Microsecond)
			childAt = c.Now()
		})
		p.Join(child)
	})
	e.Run()
	if childAt != 6*time.Microsecond {
		t.Fatalf("child finished at %v, want 6µs", childAt)
	}
}

func TestShutdownKillsParkedProcesses(t *testing.T) {
	// A process parked on a never-fired event must not leak or panic the
	// run; the env kills it at drain time.
	e := NewEnv(1)
	ev := NewEvent(e)
	reached := false
	e.Go("stuck", func(p *Proc) {
		ev.Wait(p)
		reached = true
	})
	e.Go("other", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Run()
	if reached {
		t.Fatal("stuck process ran past its wait")
	}
}

// A reseeded source draws exactly what a fresh one seeded alike draws,
// so NewEnv may hand out a released Env's source.
func TestReseededSourceMatchesFresh(t *testing.T) {
	reused := rand.New(rand.NewSource(0))
	seeds := []int64{math.MinInt64, -1, math.MaxInt64, 1 << 40}
	for s := int64(0); s < 1000; s++ {
		seeds = append(seeds, s, s*7919+13)
	}
	for _, seed := range seeds {
		reused.Int63() // leave state behind
		reused.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if a, b := reused.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, a, b)
			}
		}
	}
}

// Released environments hand their sources on: an Env made after a
// Release draws what one made first would, and the released Env's Rand
// panics instead of sharing the source.
func TestReleaseHandsSourceOn(t *testing.T) {
	draws := func(e *Env) (out [8]float64) {
		for i := range out {
			out[i] = e.Rand().Float64()
		}
		return out
	}
	want := draws(NewEnv(42))
	for i := 0; i < 4; i++ {
		e := NewEnv(int64(i))
		draws(e)
		e.Run()
		e.Release()
		e.Release() // idempotent
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Rand on a released Env did not panic")
				}
			}()
			e.Rand()
		}()
		if got := draws(NewEnv(42)); got != want {
			t.Fatalf("after release %d: draws %v, want %v", i, got, want)
		}
	}
}
