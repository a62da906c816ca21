package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestPropertyClockMonotone runs random process graphs and checks that
// virtual time never goes backwards from any process's point of view
// and that the run drains fully.
func TestPropertyClockMonotone(t *testing.T) {
	f := func(seed int64, nProcs uint8, nSteps uint8) bool {
		n := int(nProcs%16) + 1
		steps := int(nSteps%32) + 1
		e := NewEnv(seed)
		res := NewResource(e, 2)
		cond := NewCond(e)
		violated := false
		for i := 0; i < n; i++ {
			e.Go("p", func(p *Proc) {
				last := p.Now()
				rng := rand.New(rand.NewSource(seed + int64(steps)))
				for s := 0; s < steps; s++ {
					switch rng.Intn(4) {
					case 0:
						p.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
					case 1:
						res.Acquire(p)
						p.Sleep(time.Microsecond)
						res.Release()
					case 2:
						cond.Broadcast()
					case 3:
						cond.WaitTimeout(p, time.Duration(rng.Intn(100)+1)*time.Microsecond)
					}
					if p.Now() < last {
						violated = true
						return
					}
					last = p.Now()
				}
			})
		}
		e.Run()
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyResourceConservation checks that a resource never
// exceeds its capacity and always returns to idle.
func TestPropertyResourceConservation(t *testing.T) {
	f := func(seed int64, capWord uint8, users uint8) bool {
		capacity := int(capWord%4) + 1
		n := int(users%12) + 1
		e := NewEnv(seed)
		r := NewResource(e, capacity)
		maxSeen := 0
		for i := 0; i < n; i++ {
			e.Go("u", func(p *Proc) {
				rng := rand.New(rand.NewSource(seed ^ int64(n)))
				p.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				r.Acquire(p)
				if r.inUse > maxSeen {
					maxSeen = r.inUse
				}
				p.Sleep(time.Duration(rng.Intn(50)+1) * time.Microsecond)
				r.Release()
			})
		}
		e.Run()
		return maxSeen <= capacity && r.inUse == 0 && len(r.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterministicReplay: identical seeds yield identical
// event interleavings for a mixed workload.
func TestPropertyDeterministicReplay(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEnv(seed)
		var log []Time
		r := NewResource(e, 1)
		for i := 0; i < 6; i++ {
			e.Go("p", func(p *Proc) {
				d := time.Duration(e.Rand().Intn(200)) * time.Microsecond
				p.Sleep(d)
				r.Acquire(p)
				log = append(log, p.Now())
				p.Sleep(10 * time.Microsecond)
				r.Release()
			})
		}
		e.Run()
		return log
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
