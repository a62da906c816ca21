//go:build go1.23

// The build line above is the one place go1.23 is asked for: iter.Pull
// is go1.23's, and go.mod stays at go 1.22 so that building the
// benchmark module with -mod=mod does not rewrite its go.mod.

// Package sim provides a deterministic discrete-event simulation
// kernel. It is the substrate under every timing-sensitive component of
// the FaaSnap reproduction: block devices, the host page cache,
// page-fault handling, vCPUs, and the FaaSnap loader all run as sim
// processes against a virtual clock.
//
// The kernel follows the classic process-interaction style (as in SimPy):
// each process is a coroutine (iter.Pull), and Run is one loop on the
// caller's goroutine that resumes the process the last one woke, so
// exactly one process runs at a time and a simulation is fully
// deterministic. A process that blocks pops the next event itself,
// carries on when the wake is its own, and decides a Cond.WaitFor's wake
// on its own stack; otherwise it names the process it woke and yields
// to Run. A finished process's coroutine runs the next process Go
// starts. Ties in event time are broken by a monotonically increasing
// sequence number. A Cond.Broadcast is one heap event, delivered token
// by token, exactly as one event per waiter would have been.
//
// Virtual time is represented as time.Duration since the start of the
// run; no real time passes while a simulation executes.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Time is a point in virtual time, expressed as the duration since the
// beginning of the simulation run.
type Time = time.Duration

// waitKind identifies what woke a parked process.
type waitKind uint8

const (
	wakeTimer waitKind = iota
	wakeSignal
	wakeStart
	wakeBatch // a Cond's broadcast: proc is its proxy, gen where it ends
)

// token names one park of one process. A parked process may be
// referenced by several tokens (for example a timeout and a condition
// broadcast); delivering the first bumps the process's generation,
// which turns the rest into no-ops.
type token struct {
	proc *Proc
	gen  uint64
}

// live reports whether the park the token names is still waiting.
func (t token) live() bool { return t.proc.gen == t.gen }

// event is a scheduled wake-up in the event heap.
type event struct {
	at  Time
	seq uint64
	token
	kind waitKind
}

func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Env is a simulation environment: a virtual clock, an event queue, and
// the set of processes created in it. An Env must not be shared between
// concurrently executing simulations.
type Env struct {
	now    Time
	events []event // 4-ary min-heap on (at, seq)
	seq    uint64
	procs  []*Proc
	rng    *rand.Rand
	inRun  bool
	hops   uint64 // switches from one process to another; see Work
	to     *Proc  // the process Run resumes next; nil once the queue drained
	wake   waitKind
	coros  []*coro // every coroutine made since the last close
	idle   []*coro // coroutines whose process finished, for Go to reuse
}

// Work reports the events the kernel has delivered (live pops, each of
// which bumps one generation) and its hand-offs, switches from one
// process to another.
func (e *Env) Work() (events, handoffs uint64) {
	for _, p := range e.procs {
		events += p.gen
	}
	return events, e.hops
}

// sources holds the random sources released environments handed back,
// for NewEnv to reseed: a fresh source is 5 KB and the largest fixed
// allocation of a one-shot simulation.
var sources sync.Pool

// NewEnv returns a fresh environment whose random source is seeded with
// seed, making every run reproducible. A reused source is reseeded, which
// gives exactly the sequence of a new one.
func NewEnv(seed int64) *Env {
	if rng, ok := sources.Get().(*rand.Rand); ok {
		rng.Seed(seed)
		return &Env{rng: rng}
	}
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Release hands the environment's random source back for a later NewEnv
// to reuse. Call it once nothing will run in e again: Run may be called
// more than once, so only its caller knows the last. A released Env
// holds no source, and its Rand panics rather than share one.
func (e *Env) Release() {
	if e.rng != nil {
		sources.Put(e.rng)
		e.rng = nil
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must
// only be used from the currently running process or before Run, and
// never after Release.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		panic("sim: Rand on a released Env")
	}
	return e.rng
}

func (e *Env) post(t token, at Time, kind waitKind) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events = append(e.events, event{at: at, seq: e.seq, token: t, kind: kind})
	e.up(len(e.events) - 1)
}

// place stores ev at heap index i, keeping a timer's owner pointed at it.
func (e *Env) place(i int, ev event) {
	e.events[i] = ev
	if ev.kind == wakeTimer {
		ev.proc.timer = i
	}
}

func (e *Env) up(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		e.place(i, h[parent])
		i = parent
	}
	e.place(i, ev)
}

// down sifts the event at i towards the leaves and returns where it
// came to rest.
func (e *Env) down(i int) int {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&ev) {
			break
		}
		e.place(i, h[min])
		i = min
	}
	e.place(i, ev)
	return i
}

// remove deletes the event at heap index i.
func (e *Env) remove(i int) {
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	if i < n {
		e.events[i] = last
		if e.down(i) == i {
			e.up(i)
		}
	}
}

// next pops the next deliverable event, advances the clock to it and
// delivers it: the woken process's other tokens go stale, and a WaitFor
// not yet done parks again. It returns a nil process once the queue has
// drained.
func (e *Env) next() (*Proc, waitKind) {
	for len(e.events) > 0 {
		ev := e.events[0]
		p := ev.proc
		if ev.kind == wakeBatch {
			if q := e.deliver(p.cond, int(ev.gen)); q != nil {
				return q, wakeSignal
			}
			continue
		}
		if p.gen != ev.gen {
			// A Cond's wakes ride one batch entry and a batch that wakes a
			// process removes its timer, so no heap event can have been
			// beaten to its park.
			panic("sim: stale heap event; invariant: every heap event but a Cond's batch is the only wake of its park")
		}
		p.gen++
		if ev.at > e.now {
			e.now = ev.at
		}
		if e.rearm(p) {
			continue
		}
		e.remove(0)
		p.timer = -1 // the wake was p's timer, or p had none
		return p, ev.kind
	}
	return nil, 0
}

// deliver hands out c's batch at the heap's root (up to c.sent[end]) as
// its signals, which had consecutive sequence numbers, would have popped
// one by one. The first process to wake loses its timer and is returned;
// the rest of the batch stays at the root under its key, before every
// timer rearm moves (those lie later than now).
func (e *Env) deliver(c *Cond, end int) (p *Proc) {
	for p == nil && c.head < end {
		w := c.sent[c.head]
		c.head++
		if !w.live() {
			// A rival wake of the same park came first: a timer due at
			// the Broadcast's instant and queued before its batch
			// (TestTimeoutTiedWithBroadcast).
			continue
		}
		p = w.proc
		p.gen++
		if e.rearm(p) {
			p = nil
		} else if p.timer >= 0 {
			e.remove(p.timer)
			p.timer = -1
		}
	}
	if c.head == end {
		e.remove(0) // the batch is spent
		if end == len(c.sent) {
			c.sent, c.head = c.sent[:0], 0
		}
	}
	return p
}

// rearm decides a delivered wake of p if p is in a WaitFor: a wait not
// yet over parks again, its timer moved in place under the key a remove
// and a fresh post would give it. It reports whether p parked again.
func (e *Env) rearm(p *Proc) bool {
	if p.recheck == nil {
		return false
	}
	d := p.recheck.Recheck()
	if d <= 0 {
		p.recheck, p.cond = nil, nil
		return false
	}
	w := p.token()
	p.cond.add(w)
	e.seq++
	i := p.timer
	e.events[i] = event{at: e.now + d, seq: e.seq, token: w, kind: wakeTimer}
	if e.down(i) == i {
		e.up(i)
	}
	return true
}

// handoff names q, with wake k, as the process Run resumes next, or
// tells Run that the queue has drained when q is nil.
func (e *Env) handoff(q *Proc, k waitKind) {
	if q != nil {
		e.hops++
	}
	e.to, e.wake = q, k
}

// Proc is a simulation process. All methods that advance virtual time
// (Sleep, waits on events and resources) must be called from the
// process itself.
type Proc struct {
	env      *Env
	name     string
	co       *coro
	gen      uint64 // parks delivered so far; tokens of older parks are stale
	timer    int    // heap index of the pending timeout, or -1
	cond     *Cond
	recheck  Recheck // decides the WaitFor p is parked in on cond, if any
	finished *Event
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// token names the park p is about to make.
func (p *Proc) token() token { return token{proc: p, gen: p.gen} }

// errKilled is panicked inside processes that are still parked when the
// environment shuts down; the run wrapper swallows it.
type errKilled struct{}

// A coro is a coroutine that runs process bodies one after another: a
// finished process leaves it on its Env's idle list for the next Go.
type coro struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	p      *Proc
	fn     func(*Proc)
}

// Go creates a new process running fn. It may be called before Run or
// from a running process; the new process starts at the current virtual
// time (after the caller yields).
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	var c *coro
	if n := len(e.idle); n > 0 {
		c, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		c = &coro{}
		c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for c.p.run(c.fn) && yield(struct{}{}) {
			}
		})
		e.coros = append(e.coros, c)
	}
	p := &Proc{env: e, name: name, co: c, timer: -1, finished: NewEvent(e)}
	c.p, c.fn = p, fn
	e.procs = append(e.procs, p)
	e.post(p.token(), e.now, wakeStart)
	return p
}

// run runs fn as p's body, then hands control on and leaves p's
// coroutine idle. It reports false if p was killed at close, which ends
// the coroutine. A panic, or a runtime.Goexit, in fn ends the coroutine
// with a panic that Run passes on.
func (p *Proc) run(fn func(*Proc)) (more bool) {
	e := p.env
	returned := false
	defer func() {
		if returned {
			return
		}
		r := recover()
		if _, killed := r.(errKilled); killed {
			return
		}
		if r == nil {
			// fn called runtime.Goexit, which iter.Pull would pass on
			// to end Run's goroutine; a panic reaches Run instead.
			r = "runtime.Goexit called"
		}
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}()
	fn(p)
	returned = true
	p.finished.Fire()
	e.handoff(e.next())
	e.idle = append(e.idle, p.co)
	return true
}

// park blocks the calling process until one of its registered wake
// events is delivered, and reports which kind it was. It is the one
// place a process blocks and is woken: it pops the next event itself
// and returns at once if the wake is its own, or names the process it
// wakes and yields to Run until Run resumes it.
func (p *Proc) park() waitKind {
	e := p.env
	q, k := e.next()
	if q == p {
		return k
	}
	e.handoff(q, k)
	if !p.co.yield(struct{}{}) {
		panic(errKilled{})
	}
	return e.wake
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Even a zero-length sleep is a scheduling point, giving other
		// processes scheduled at the same instant a chance to run first.
		d = 0
	}
	e := p.env
	at := e.now + d
	if len(e.events) == 0 || at < e.events[0].at {
		// Nothing can run before the wake, and the wake can never tie
		// with a queued event, so it is delivered in place: the clock
		// advances and the park counts as delivered, as if posted and
		// popped at once.
		e.now = at
		p.gen++
		return
	}
	e.post(p.token(), at, wakeTimer)
	p.park()
}

// Join blocks until other has finished.
func (p *Proc) Join(other *Proc) {
	other.finished.Wait(p)
}

// Run executes the simulation until the event queue drains, then kills
// any processes still parked (for example daemon loops waiting on
// conditions) and stops every coroutine, so no goroutines leak. It
// panics if any process panicked. Run resumes the process each switch
// names until one finds the queue drained.
func (e *Env) Run() {
	if e.inRun {
		panic("sim: Run called reentrantly")
	}
	e.inRun = true
	defer func() {
		e.close()
		e.inRun = false
	}()
	e.to, e.wake = e.next()
	for e.to != nil {
		e.to.co.resume()
	}
}

// close stops every coroutine: a parked process's yield reports false
// and its park panics errKilled; an idle one returns.
func (e *Env) close() {
	for _, c := range e.coros {
		c.stop()
	}
	e.coros, e.idle = nil, nil
}

// Event is a one-shot completion event. Waiting on a fired event
// returns immediately; firing an event wakes every waiter.
type Event struct {
	env     *Env
	fired   bool
	waiters []token
}

// NewEvent returns an unfired event in env.
func NewEvent(env *Env) *Event { return &Event{env: env} }

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event complete and wakes all waiters. Firing twice is
// a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, w := range ev.waiters {
		if w.live() {
			ev.env.post(w, ev.env.now, wakeSignal)
		}
	}
	ev.waiters = nil
}

// Wait blocks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, p.token())
	p.park()
}

// Cond is a pulse condition: Broadcast wakes all currently parked
// waiters; there is no memory of past broadcasts.
type Cond struct {
	env     *Env
	waiters []token
	sent    []token // broadcast tokens from sent[head] on, oldest batch first
	head    int
	proxy   Proc // names c in the heap events of its batches
}

// NewCond returns a condition in env.
func NewCond(env *Env) *Cond {
	c := &Cond{env: env}
	c.proxy.cond = c
	return c
}

// Broadcast wakes every process currently waiting on the condition. Its
// live tokens go out as one batch: one heap event, delivered token by
// token when it reaches the root.
func (c *Cond) Broadcast() {
	n := len(c.sent)
	for _, w := range c.waiters {
		if w.live() {
			c.sent = append(c.sent, w)
		}
	}
	c.waiters = c.waiters[:0]
	if len(c.sent) > n {
		c.env.post(token{proc: &c.proxy, gen: uint64(len(c.sent))}, c.env.now, wakeBatch)
	}
}

// add registers w as a waiter. A full list first drops the stale tokens
// of waits a timeout ended, so repeated timeouts leave no pile behind.
func (c *Cond) add(w token) {
	if len(c.waiters) == cap(c.waiters) {
		c.waiters = slices.DeleteFunc(c.waiters, func(v token) bool { return !v.live() })
	}
	c.waiters = append(c.waiters, w)
}

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p.token())
	p.park()
}

// A Recheck decides a Cond.WaitFor.
type Recheck interface{ Recheck() time.Duration }

// WaitFor parks p on the condition until r.Recheck, run now and at each
// wake (Broadcast or timeout) on whatever stack pops it, returns 0 or
// less; otherwise it returns the longest to wait for the next wake. A
// Recheck may update model state but must not block, broadcast or post.
func (c *Cond) WaitFor(p *Proc, r Recheck) {
	if d := r.Recheck(); d > 0 {
		p.recheck, p.cond = r, c
		c.arm(p, d)
		p.park()
	}
}

// WaitTimeout parks p until the next Broadcast or until d elapses,
// whichever happens first, like a WaitFor ended by its first wake. It
// reports whether the condition was signalled (false: the timeout fired).
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	c.arm(p, d)
	return p.park() == wakeSignal
}

// arm registers p's next park with c and with a timeout d.
func (c *Cond) arm(p *Proc, d time.Duration) {
	w := p.token()
	c.add(w)
	c.env.post(w, c.env.now+d, wakeTimer)
}
