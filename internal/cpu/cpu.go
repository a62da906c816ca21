// Package cpu models host CPU contention using processor sharing:
// C cores are shared equally among the runnable compute bursts, so when
// more vCPUs are runnable than there are cores, every burst stretches
// proportionally. This reproduces the paper's Figure 10 observation
// that at 64 parallel 2-vCPU guests on 64 core-equivalents (c5d.metal)
// "the CPU becomes the bottleneck and all settings take longer to execute".
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
	jobs    []*job // the n runnable bursts, then finished ones for reuse
	n       int
	changed *sim.Cond
	last    sim.Time
}

type job struct {
	ps        *PS
	i         int     // index in ps.jobs
	remaining float64 // nanoseconds of pure compute left
}

// New returns a processor-sharing pool with the given core count.
func New(env *sim.Env, cores int) *PS {
	if cores <= 0 {
		panic("cpu: core count must be positive")
	}
	return &PS{env: env, cores: cores, changed: sim.NewCond(env)}
}

// rate returns the fraction of one core each runnable burst receives.
func (c *PS) rate() float64 {
	if c.n > c.cores {
		return float64(c.cores) / float64(c.n)
	}
	return 1
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
	for _, j := range c.jobs[:c.n] {
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
	if c.n == len(c.jobs) {
		c.jobs = append(c.jobs, &job{ps: c})
	}
	j := c.jobs[c.n]
	j.i, j.remaining = c.n, float64(work)
	c.n++
	c.changed.Broadcast()
	c.changed.WaitFor(p, j)
	c.n--
	last := c.jobs[c.n]
	c.jobs[j.i], c.jobs[c.n], last.i = last, j, j.i
	c.changed.Broadcast()
}

// Recheck settles the pool at every wake of j's Exec and returns 0 once
// j's work is done, or else how long j needs at the current share.
func (j *job) Recheck() time.Duration {
	j.ps.settle()
	if j.remaining <= 0.5 { // sub-nanosecond residue is done
		return 0
	}
	return time.Duration(math.Ceil(j.remaining / j.ps.rate()))
}
