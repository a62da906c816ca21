// Package cpu models host CPU contention using processor sharing:
// C cores are shared equally among the runnable compute bursts, so when
// more vCPUs are runnable than there are cores, every burst stretches
// proportionally. This reproduces the paper's Figure 10 observation
// that at 64 parallel 2-vCPU guests on a 96-core host "the CPU becomes
// the bottleneck and all settings take longer to execute".
package cpu

import (
	"math"
	"time"

	"faasnap/internal/sim"
)

// PS is a processor-sharing CPU pool. It must only be used from
// simulation processes of the environment it was created in.
type PS struct {
	env     *sim.Env
	cores   int
	jobs    map[*job]struct{}
	changed *sim.Cond
	last    sim.Time
}

type job struct {
	remaining float64 // nanoseconds of pure compute left
}

// New returns a processor-sharing pool with the given core count.
func New(env *sim.Env, cores int) *PS {
	if cores <= 0 {
		panic("cpu: core count must be positive")
	}
	return &PS{
		env:     env,
		cores:   cores,
		jobs:    make(map[*job]struct{}),
		changed: sim.NewCond(env),
	}
}

// Cores returns the pool's core count.
func (c *PS) Cores() int { return c.cores }

// rate returns the fraction of one core each runnable burst receives.
func (c *PS) rate() float64 {
	n := len(c.jobs)
	if n == 0 {
		return 1
	}
	if n <= c.cores {
		return 1
	}
	return float64(c.cores) / float64(n)
}

// settle charges elapsed virtual time against every runnable job at the
// rate that was in force since the last settle.
func (c *PS) settle() {
	now := c.env.Now()
	if now == c.last {
		return
	}
	elapsed := float64(now - c.last)
	r := c.rate()
	for j := range c.jobs {
		j.remaining -= elapsed * r
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
	c.last = now
}

// Exec runs `work` of pure compute on behalf of p, stretched by
// whatever contention exists while it runs. It returns when the work
// has been executed.
func (c *PS) Exec(p *sim.Proc, work time.Duration) {
	if work <= 0 {
		return
	}
	c.settle()
	j := &job{remaining: float64(work)}
	c.jobs[j] = struct{}{}
	c.changed.Broadcast()
	for {
		c.settle()
		if j.remaining <= 0.5 { // sub-nanosecond residue is done
			break
		}
		eta := time.Duration(math.Ceil(j.remaining / c.rate()))
		// Wake either when our burst would complete at the current rate
		// or when the set of runnable bursts changes.
		c.changed.WaitTimeout(p, eta)
	}
	c.settle()
	delete(c.jobs, j)
	c.changed.Broadcast()
}
