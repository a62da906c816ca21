package sim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"
)

// scheduleFingerprint is the FNV-64a hash of the (Now, process, wake)
// sequence TestScheduleFingerprint logs. It pins the order in which the
// kernel delivers wake-ups: a kernel change that reorders any two of
// them changes the hash.
const scheduleFingerprint = "d07d5dd5b38cc766"

// TestScheduleFingerprint runs a seeded mix of every blocking call the
// kernel offers and hashes what each process observes when it wakes.
func TestScheduleFingerprint(t *testing.T) {
	h := fnv.New64a()
	wakes := map[string]int{}
	log := func(p *Proc, kind string) {
		fmt.Fprintf(h, "%d %s %s\n", p.Now(), p.Name(), kind)
		wakes[kind]++
	}
	e := NewEnv(7)
	rng := e.Rand()
	res := NewResource(e, 2)
	mu := NewMutex(e)
	cond := NewCond(e)
	events := make([]*Event, 24)
	for i := range events {
		events[i] = NewEvent(e)
	}
	var worker func(name string, steps, depth int) func(*Proc)
	worker = func(name string, steps, depth int) func(*Proc) {
		return func(p *Proc) {
			log(p, "start")
			for s := 0; s < steps; s++ {
				switch op := rng.Intn(10); op {
				case 0:
					p.Sleep(time.Duration(rng.Intn(4)) * time.Microsecond)
					log(p, "sleep")
				case 1:
					if cond.WaitTimeout(p, time.Duration(rng.Intn(6))*time.Microsecond) {
						log(p, "signal")
					} else {
						log(p, "timeout")
					}
				case 2:
					cond.Broadcast()
				case 3:
					res.Acquire(p)
					log(p, "acquire")
					p.Sleep(time.Duration(rng.Intn(3)) * time.Microsecond)
					res.Release()
				case 4:
					mu.Lock(p)
					log(p, "lock")
					p.Sleep(time.Microsecond)
					mu.Unlock()
				case 5:
					events[rng.Intn(len(events))].Wait(p)
					log(p, "event")
				case 6:
					events[rng.Intn(len(events))].Fire()
				case 7:
					if depth < 2 {
						child := e.Go(fmt.Sprintf("%s.%d", name, s), worker(fmt.Sprintf("%s.%d", name, s), 6, depth+1))
						p.Join(child)
						log(p, "join")
					}
				case 8:
					if rng.Intn(8) == 0 {
						cond.Wait(p)
						log(p, "wait")
					}
				case 9:
					p.Sleep(0)
					log(p, "yield")
				}
			}
		}
	}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Go(name, worker(name, 80, 0))
	}
	// Keeps firing events and broadcasting for a while, so most waits end.
	e.Go("pulse", func(p *Proc) {
		for i := 0; i < 200; i++ {
			p.Sleep(3 * time.Microsecond)
			cond.Broadcast()
			events[i%len(events)].Fire()
		}
	})
	e.Run()
	got := fmt.Sprintf("%016x", h.Sum64())
	t.Logf("wakes by kind %v, ended at %v", wakes, e.Now())
	if got != scheduleFingerprint {
		t.Fatalf("schedule fingerprint = %s, want %s: the kernel delivers wake-ups in a different order", got, scheduleFingerprint)
	}
}

// TestWaitTimeoutLeavesNoStaleTimers churns WaitTimeout against
// Broadcast, as cpu.PS does: a timeout that loses to a signal must
// leave the event queue, not wait there for its instant to pass.
func TestWaitTimeoutLeavesNoStaleTimers(t *testing.T) {
	const waiters = 16
	e := NewEnv(1)
	c := NewCond(e)
	for i := 0; i < waiters; i++ {
		e.Go("waiter", func(p *Proc) {
			for k := 0; k < 500; k++ {
				// Every other wait has a timeout far beyond the next
				// broadcast; the rest race it.
				d := time.Duration(1+e.Rand().Intn(3)) * time.Microsecond
				if k%2 == 0 {
					d = 10 * time.Millisecond
				}
				c.WaitTimeout(p, d)
			}
		})
	}
	e.Go("broadcaster", func(p *Proc) {
		for k := 0; k < 1000; k++ {
			p.Sleep(2 * time.Microsecond)
			c.Broadcast()
			// One timer per live process plus the one batch just posted.
			if n, bound := len(e.events), waiters+2; n > bound {
				t.Errorf("at %v: %d queued events, want at most %d", p.Now(), n, bound)
				return
			}
		}
	})
	e.Run()
}

// TestBroadcastDeliversInWaiterOrder broadcasts to three WaitFors: A's
// wait is over at the signal, B's and C's go on. A is resumed first, and
// B and C must be rechecked and re-armed at that instant before anything
// posted after the broadcast, by the broadcaster or by A, runs; at their
// deadline they must wake after the broadcaster, whose sleep to the same
// instant was posted before they were re-armed.
func TestBroadcastDeliversInWaiterOrder(t *testing.T) {
	const at, d = 10 * time.Microsecond, 5 * time.Microsecond
	var log []string
	logf := func(p *Proc, msg string) { log = append(log, fmt.Sprintf("%v %s", p.Now(), msg)) }
	e := NewEnv(1)
	c := NewCond(e)
	waits := []*logged{{name: "A", end: time.Hour}, {name: "B", end: at + d}, {name: "C", end: at + d}}
	for _, w := range waits {
		w.env, w.log = e, &log
		e.Go(w.name, func(p *Proc) {
			c.WaitFor(p, w)
			logf(p, w.name+" woke")
			if w.name == "A" {
				p.Sleep(0)
				logf(p, "A yielded")
			}
		})
	}
	e.Go("broadcaster", func(p *Proc) {
		p.Sleep(at)
		waits[0].end = at
		c.Broadcast()
		e.Go("probe", func(q *Proc) { logf(q, "probe started") })
		p.Sleep(d)
		logf(p, "broadcaster woke")
	})
	e.Run()
	want := []string{
		"0s recheck A", "0s recheck B", "0s recheck C",
		"10µs recheck A", "10µs A woke",
		"10µs recheck B", "10µs recheck C",
		"10µs probe started", "10µs A yielded",
		"15µs broadcaster woke",
		"15µs recheck B", "15µs B woke",
		"15µs recheck C", "15µs C woke",
	}
	if got := strings.Join(log, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("delivery order:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// logged is a Recheck whose wait is over at end, and which logs each call.
type logged struct {
	name string
	env  *Env
	end  Time
	log  *[]string
}

func (l *logged) Recheck() time.Duration {
	*l.log = append(*l.log, fmt.Sprintf("%v recheck %s", l.env.Now(), l.name))
	return l.end - l.env.Now()
}

// TestTimedOutWaitsLeaveNoTokens lets one WaitFor time out and re-arm
// 10 000 times with no broadcast in between: the condition must keep no
// pile of spent tokens, and the ticks must allocate nothing.
func TestTimedOutWaitsLeaveNoTokens(t *testing.T) {
	const ticks = 10000
	e := NewEnv(1)
	c, tk := NewCond(e), &ticker{}
	e.Go("ticker", func(p *Proc) { c.WaitFor(p, tk) })
	var before, after runtime.MemStats
	most := 0
	e.Go("watcher", func(p *Proc) {
		// Checks halfway between ticks, from after the first re-arm.
		p.Sleep(time.Microsecond + time.Microsecond/2)
		runtime.ReadMemStats(&before)
		for i := 0; i < ticks; i++ {
			most = max(most, len(c.waiters))
			p.Sleep(time.Microsecond)
		}
		runtime.ReadMemStats(&after)
		tk.stop = true
	})
	e.Run()
	if most > 1 {
		t.Errorf("%d tokens on the condition, want at most 1", most)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b != 0 {
		t.Errorf("%d ticks allocated %d B, want 0", ticks, b)
	}
}

// deadline is a Recheck whose wait is over at a fixed instant.
type deadline struct {
	p   *Proc
	end Time
}

func (d *deadline) Recheck() time.Duration { return d.end - d.p.Now() }

// TestWaitForMatchesWaitTimeoutLoop runs one seeded schedule twice:
// once with each wait a loop of WaitTimeout that rechecks its deadline
// on its own stack, once with a WaitFor the kernel rechecks. Both
// must deliver the same events in the same order, and WaitFor must
// resume no process before its wait is over.
func TestWaitForMatchesWaitTimeoutLoop(t *testing.T) {
	run := func(waitFor bool) (log string, events, handoffs uint64) {
		var b strings.Builder
		e := NewEnv(5)
		c := NewCond(e)
		rng := e.Rand()
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("w%d", i)
			e.Go(name, func(p *Proc) {
				d := &deadline{p: p}
				for k := 0; k < 50; k++ {
					c.Broadcast()
					d.end = p.Now() + time.Duration(1+rng.Intn(20))*time.Microsecond
					if waitFor {
						c.WaitFor(p, d)
					} else {
						for d.Recheck() > 0 {
							c.WaitTimeout(p, d.Recheck())
						}
					}
					if p.Now() != d.end {
						t.Errorf("%s resumed at %v, its wait ends at %v", name, p.Now(), d.end)
					}
					fmt.Fprintf(&b, "%d %s\n", p.Now(), name)
					p.Sleep(time.Duration(rng.Intn(3)) * time.Microsecond)
				}
			})
		}
		e.Run()
		events, handoffs = e.Work()
		return b.String(), events, handoffs
	}
	loopLog, loopEvents, loopHandoffs := run(false)
	log, events, handoffs := run(true)
	t.Logf("%d events; hand-offs: %d with a WaitTimeout loop, %d with WaitFor", events, loopHandoffs, handoffs)
	if log != loopLog {
		t.Fatal("WaitFor resumes processes in another order than a WaitTimeout loop")
	}
	if events != loopEvents {
		t.Fatalf("WaitFor delivers %d events, a WaitTimeout loop %d", events, loopEvents)
	}
	if handoffs*2 > loopHandoffs {
		t.Fatalf("WaitFor makes %d hand-offs, want at most half of the loop's %d", handoffs, loopHandoffs)
	}
}

// settleGoroutines waits for exiting goroutines to finish and
// reports whether the count fell back to base.
func settleGoroutines(base int) (int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n, n <= base
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines checks that Run stops every coroutine it
// made, however the run ends, and that a process that panics or calls
// runtime.Goexit (as t.FailNow does) fails Run with the process's name.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs func(e *Env)
		want  string // Run's panic, if any
	}{
		{name: "drained", procs: func(e *Env) {
			for i := 0; i < 4; i++ {
				e.Go("sleeper", func(p *Proc) { p.Sleep(time.Duration(i) * time.Microsecond) })
			}
		}},
		{name: "parked-daemons", procs: func(e *Env) {
			c, r := NewCond(e), NewResource(e, 1)
			for i := 0; i < 4; i++ {
				e.Go("daemon", func(p *Proc) {
					for {
						c.Wait(p)
					}
				})
			}
			e.Go("holder", func(p *Proc) { r.Acquire(p) })
			e.Go("blocked", func(p *Proc) { r.Acquire(p) })
			e.Go("worker", func(p *Proc) {
				p.Sleep(time.Microsecond)
				c.Broadcast()
				p.Sleep(time.Microsecond)
			})
		}},
		{name: "idle-coroutines", procs: func(e *Env) {
			for i := 0; i < 4; i++ {
				e.Go("early", func(p *Proc) { p.Sleep(time.Microsecond) })
			}
			e.Go("late", func(p *Proc) {
				p.Sleep(time.Millisecond)
				p.Join(e.Go("reuser", func(p *Proc) { p.Sleep(time.Microsecond) }))
			})
		}},
		{name: "panic", want: `sim: process "bad" panicked: boom`, procs: func(e *Env) {
			ev := NewEvent(e)
			for i := 0; i < 4; i++ {
				e.Go("parked", func(p *Proc) { ev.Wait(p) })
			}
			e.Go("sleeper", func(p *Proc) { p.Sleep(time.Millisecond) })
			e.Go("bad", func(p *Proc) {
				p.Sleep(time.Microsecond)
				e.Go("unstarted", func(p *Proc) { p.Sleep(time.Microsecond) })
				panic("boom")
			})
		}},
		{name: "goexit", want: `sim: process "quitter" panicked: runtime.Goexit called`, procs: func(e *Env) {
			e.Go("parked", func(p *Proc) { NewEvent(e).Wait(p) })
			e.Go("quitter", func(p *Proc) {
				p.Sleep(time.Microsecond)
				runtime.Goexit()
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			got := func() (r any) {
				defer func() { r = recover() }()
				e := NewEnv(1)
				tc.procs(e)
				e.Run()
				return nil
			}()
			if got == nil && tc.want != "" || got != nil && got != tc.want {
				t.Fatalf("Run panicked with %v, want %q", got, tc.want)
			}
			if n, ok := settleGoroutines(base); !ok {
				t.Fatalf("%d goroutines after the run, want %d", n, base)
			}
		})
	}
}

// TestSequentialProcessesReuseCoroutines runs a chain of short-lived
// processes, each started by the one before it as it ends: a finished
// process's coroutine runs the next one, so two are ever made.
func TestSequentialProcessesReuseCoroutines(t *testing.T) {
	e := NewEnv(1)
	links, most := 0, 0
	var link func(p *Proc)
	link = func(p *Proc) {
		p.Sleep(time.Microsecond)
		if links++; links < 100 {
			e.Go("link", link)
		}
		most = max(most, len(e.coros))
	}
	e.Go("link", link)
	e.Run()
	if links != 100 || most > 2 {
		t.Fatalf("%d links made %d coroutines, want 100 links on at most 2", links, most)
	}
}
