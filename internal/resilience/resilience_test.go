package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBackoffDelayBounds(t *testing.T) {
	for n := 0; n < 8; n++ {
		base := 2 * time.Millisecond
		d := BackoffDelay(n, base, 100*time.Millisecond)
		lo := base << uint(n)
		if lo > 100*time.Millisecond {
			lo = 100 * time.Millisecond
		}
		hi := lo + lo/2
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", n, d, lo, hi)
		}
	}
	// Zero/negative base falls back to something positive.
	if d := BackoffDelay(0, 0, 0); d <= 0 {
		t.Fatalf("zero base gave %v", d)
	}
	// Shift overflow clamps to the cap instead of going negative.
	if d := BackoffDelay(62, time.Second, time.Minute); d <= 0 || d > 90*time.Second {
		t.Fatalf("overflowing attempt gave %v", d)
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 3, time.Microsecond, nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Retry(context.Background(), 3, time.Microsecond, nil, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryStopsOnNonRetryable(t *testing.T) {
	fatal := errors.New("fatal")
	calls := 0
	err := Retry(context.Background(), 5, time.Microsecond, func(err error) bool { return false }, func() error {
		calls++
		return fatal
	})
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, 10, time.Hour, nil, func() error {
		calls++
		cancel() // cancel during the first backoff wait
		return errors.New("transient")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	// Already-expired context: fn never runs, ctx error comes back.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	err = Retry(done, 3, time.Microsecond, nil, func() error {
		t.Fatal("fn ran under dead context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// admit takes the breaker's admission for one call, failing the test if
// it is refused.
func admit(t *testing.T, b *Breaker, what string) func(Verdict) {
	t.Helper()
	report, ok := b.Allow()
	if !ok {
		t.Fatalf("%s rejected", what)
	}
	return report
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	var transitions []BreakerState
	b := NewBreaker(3, time.Second, func(s BreakerState) { transitions = append(transitions, s) })
	b.SetClock(func() time.Time { return now })

	// Closed until the third consecutive failure.
	for i := 0; i < 2; i++ {
		admit(t, b, "closed breaker")(Unhealthy)
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 failures: %v", b.State())
	}
	admit(t, b, "closed breaker")(Unhealthy)
	if b.State() != Open {
		t.Fatalf("state after 3 failures: %v", b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("open breaker admitted before cooldown")
	}

	// After cooldown: exactly one half-open probe.
	now = now.Add(time.Second)
	probe := admit(t, b, "half-open probe")
	if b.State() != HalfOpen {
		t.Fatalf("state during probe: %v", b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("second concurrent probe admitted")
	}

	// A failed probe re-opens immediately (single failure, not threshold).
	probe(Unhealthy)
	if b.State() != Open {
		t.Fatalf("state after failed probe: %v", b.State())
	}

	// A successful probe closes.
	now = now.Add(time.Second)
	admit(t, b, "second probe")(Healthy)
	if b.State() != Closed {
		t.Fatalf("state after good probe: %v", b.State())
	}

	want := []BreakerState{Open, HalfOpen, Open, HalfOpen, Closed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, transitions[i], want[i])
		}
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreaker(3, time.Second, nil)
	for _, v := range []Verdict{Unhealthy, Unhealthy, Healthy, Unhealthy, Unhealthy} {
		b.Report(v)
	}
	if b.State() != Closed {
		t.Fatalf("non-consecutive failures opened breaker: %v", b.State())
	}
}

// halfOpen returns a threshold-1 breaker whose cooldown has just run
// out.
func halfOpen() *Breaker {
	now := time.Unix(0, 0)
	b := NewBreaker(1, time.Second, nil)
	b.SetClock(func() time.Time { return now })
	b.Report(Unhealthy)
	now = now.Add(time.Second)
	return b
}

// A probe whose call ended for its own reasons learned nothing: the slot
// is free again at once, and the breaker neither closed nor re-armed its
// cooldown.
func TestBreakerNoVerdictReleasesProbe(t *testing.T) {
	b := halfOpen()
	admit(t, b, "probe")(NoVerdict)
	if b.State() != HalfOpen {
		t.Fatalf("state after a no-verdict probe: %v, want half-open", b.State())
	}
	admit(t, b, "probe after a no-verdict probe")(Healthy)
	if b.State() != Closed {
		t.Fatalf("state after good probe: %v", b.State())
	}
	// In Closed a no-verdict call leaves the failure streak alone.
	b = NewBreaker(2, time.Second, nil)
	for _, v := range []Verdict{Unhealthy, NoVerdict, Unhealthy} {
		admit(t, b, "closed breaker")(v)
	}
	if b.State() != Open {
		t.Fatalf("state after unhealthy, no-verdict, unhealthy: %v, want open", b.State())
	}
}

// Only an admitted call's first report counts.
func TestBreakerReportsOnce(t *testing.T) {
	b := NewBreaker(2, time.Second, nil)
	report := admit(t, b, "closed breaker")
	report(Unhealthy)
	report(Unhealthy)
	if b.State() != Closed {
		t.Fatal("one call's repeated report counted as two failures")
	}
	b = halfOpen()
	probe := admit(t, b, "probe")
	probe(NoVerdict)
	next := admit(t, b, "second probe")
	probe(Healthy) // late and repeated: must neither close nor free the second probe's slot
	if b.State() != HalfOpen {
		t.Fatalf("state after a repeated report: %v, want half-open", b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("a repeated report freed another probe's slot")
	}
	next(Healthy)
}

func TestBreakerStateString(t *testing.T) {
	cases := map[BreakerState]string{Closed: "closed", Open: "open", HalfOpen: "half-open", BreakerState(9): "unknown"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestLimiterWeightedAdmission(t *testing.T) {
	l := NewLimiter(4)
	if l.Max() != 4 {
		t.Fatalf("max %d", l.Max())
	}
	if !l.Acquire(3) {
		t.Fatal("first acquire rejected")
	}
	if l.Acquire(2) {
		t.Fatal("over-capacity acquire admitted")
	}
	if !l.Acquire(1) {
		t.Fatal("exact-fit acquire rejected")
	}
	if l.InFlight() != 4 {
		t.Fatalf("in-flight %d", l.InFlight())
	}
	l.Release(3)
	if !l.Acquire(2) {
		t.Fatal("post-release acquire rejected")
	}
	l.Release(2)
	l.Release(1)
	if l.InFlight() != 0 {
		t.Fatalf("leaked weight: %d", l.InFlight())
	}
}

func TestLimiterConcurrentNeverOversubscribes(t *testing.T) {
	const max, workers = 8, 64
	l := NewLimiter(max)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if l.Acquire(1) {
					if got := l.InFlight(); got > max {
						t.Errorf("in-flight %d exceeds max %d", got, max)
					}
					l.Release(1)
				}
			}
		}()
	}
	wg.Wait()
	if l.InFlight() != 0 {
		t.Fatalf("leaked weight: %d", l.InFlight())
	}
}

// TestBackoffDelayConcurrent hammers the lock-free jitter source from
// many goroutines: every delay must stay inside the documented
// [d, 1.5·d) bound, and the jitter must actually vary — a stuck or
// zeroed source would collapse every delay onto the lower bound and
// re-synchronize all backers-off into retry storms.
func TestBackoffDelayConcurrent(t *testing.T) {
	const workers, per = 16, 500
	base := 8 * time.Millisecond
	delays := make(chan time.Duration, workers*per)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				delays <- BackoffDelay(0, base, 0)
			}
		}()
	}
	wg.Wait()
	close(delays)
	distinct := make(map[time.Duration]struct{})
	for d := range delays {
		if d < base || d >= base+base/2 {
			t.Fatalf("delay %v outside [%v, %v)", d, base, base+base/2)
		}
		distinct[d] = struct{}{}
	}
	if len(distinct) < workers*per/10 {
		t.Fatalf("jitter collapsed: only %d distinct delays in %d draws", len(distinct), workers*per)
	}
}
