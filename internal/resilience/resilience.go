// Package resilience holds the small, dependency-free building blocks
// the daemon's invocation pipeline survives failures with: bounded
// retries with jittered exponential backoff, a per-function circuit
// breaker, and an admission-control limiter. All three are safe for
// concurrent use.
package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// jitterSeq drives the backoff jitter source. Retry timing does not
// need to be reproducible, only bounded — but it must not serialize:
// the previous implementation guarded one math/rand.Rand with a
// package-global mutex, which every backing-off goroutine in the
// process contended on. Instead each call takes one atomic Add on this
// counter and whitens it with SplitMix64, which is lock-free, cheap,
// and passes through the full 64-bit state space (the Weyl increment
// is odd, so the sequence has period 2⁶⁴).
var jitterSeq atomic.Uint64

// jitterFrac returns a uniform float in [0, 1) from the lock-free
// sequence.
func jitterFrac() float64 {
	z := jitterSeq.Add(0x9e3779b97f4a7c15) // golden-ratio Weyl step
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// BackoffDelay returns the sleep before retry attempt n (0-based):
// base·2ⁿ plus up to 50% jitter, capped at max (0 means no cap). The
// result is deterministically bounded: always in [d, 1.5·d) for the
// capped exponential d.
func BackoffDelay(n int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << uint(n)
	if d <= 0 || (max > 0 && d > max) { // overflow or cap
		d = max
		if d == 0 {
			d = base
		}
	}
	return d + time.Duration(jitterFrac()*0.5*float64(d))
}

// Retry runs fn up to attempts times, backing off between failures and
// stopping early when ctx is done or when retryable reports the error
// is not worth retrying. It returns nil on the first success, the
// context error if the deadline cut the loop short, and otherwise the
// last error fn returned. A nil retryable retries everything.
func Retry(ctx context.Context, attempts int, base time.Duration, retryable func(error) bool, fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for n := 0; n < attempts; n++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			if err != nil {
				return err
			}
			return ctxErr
		}
		if err = fn(); err == nil {
			return nil
		}
		if retryable != nil && !retryable(err) {
			return err
		}
		if n == attempts-1 {
			break
		}
		t := time.NewTimer(BackoffDelay(n, base, 500*time.Millisecond))
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
	return err
}

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// Closed passes requests through, counting consecutive failures.
	Closed BreakerState = iota
	// Open rejects requests until the cooldown elapses.
	Open
	// HalfOpen admits one probe; its outcome closes or re-opens.
	HalfOpen
)

// String returns the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Verdict is what one call learned about the guarded path.
type Verdict int

const (
	// NoVerdict says nothing about the path: the call ended for a reason
	// of its own (its context was cancelled or ran out).
	NoVerdict Verdict = iota
	// Healthy closes the breaker.
	Healthy
	// Unhealthy counts against it: the threshold'th in a row — or any
	// failed half-open probe — opens the breaker.
	Unhealthy
)

// Breaker is a consecutive-failure circuit breaker: Threshold failures
// in a row open it; after Cooldown one probe is admitted, and its
// outcome closes the breaker or re-arms the cooldown.
//
// Admission and outcome are one protocol: Allow hands an admitted call
// the function it reports through, so the probe slot is released by the
// call that took it, whatever that call learned.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	onChange  func(BreakerState)

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a breaker. onChange (may be nil) runs on every
// state transition, outside the breaker's lock order guarantees —
// keep it cheap (a telemetry gauge update).
func NewBreaker(threshold int, cooldown time.Duration, onChange func(BreakerState)) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		onChange:  onChange,
	}
}

// SetClock overrides the breaker's clock (tests).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if b.onChange != nil {
		b.onChange(to)
	}
}

// Allow reports whether a call may take the guarded path. In Open it
// flips to HalfOpen once the cooldown has elapsed and admits a single
// probe; concurrent callers during the probe are rejected. An admitted
// call gets the function to report its verdict through and must call it
// on every way out; only its first call counts. A probe that reports
// NoVerdict frees its slot and leaves the breaker half-open, so the
// next caller probes instead.
func (b *Breaker) Allow() (report func(Verdict), ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return nil, false
		}
		b.transition(HalfOpen)
		b.probing = false // a probe left over from an earlier spell holds nothing
		fallthrough
	case HalfOpen:
		if b.probing {
			return nil, false
		}
		b.probing = true
	}
	probe := b.state == HalfOpen
	var reported atomic.Bool
	return func(v Verdict) {
		if reported.CompareAndSwap(false, true) {
			b.record(v, probe)
		}
	}, true
}

// Report feeds in the verdict of a call that was sent without asking
// Allow (one that goes out whatever the breaker's state).
func (b *Breaker) Report(v Verdict) { b.record(v, false) }

// record applies one verdict; probe says the caller holds the slot.
func (b *Breaker) record(v Verdict, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch v {
	case Healthy:
		b.failures = 0
		b.transition(Closed)
	case Unhealthy:
		b.failures++
		if b.state == HalfOpen || b.failures >= b.threshold {
			b.openedAt = b.now()
			b.failures = 0
			b.transition(Open)
		}
	}
}

// State returns the current state without side effects.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Limiter is a weighted in-flight admission controller: Acquire(w)
// succeeds while the running total stays within max.
type Limiter struct {
	max int64
	cur atomic.Int64
}

// NewLimiter bounds total in-flight weight to max (≤ 0 means 1).
func NewLimiter(max int64) *Limiter {
	if max <= 0 {
		max = 1
	}
	return &Limiter{max: max}
}

// Acquire tries to admit weight w, returning false (without admitting)
// when the limiter is saturated.
func (l *Limiter) Acquire(w int64) bool {
	for {
		cur := l.cur.Load()
		if cur+w > l.max {
			return false
		}
		if l.cur.CompareAndSwap(cur, cur+w) {
			return true
		}
	}
}

// Release returns weight w admitted by a successful Acquire.
func (l *Limiter) Release(w int64) { l.cur.Add(-w) }

// InFlight returns the admitted weight.
func (l *Limiter) InFlight() int64 { return l.cur.Load() }

// Max returns the limiter's capacity.
func (l *Limiter) Max() int64 { return l.max }
