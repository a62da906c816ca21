package experiments

import (
	"runtime"
	"sync"

	"faasnap/internal/core"
	"faasnap/internal/workload"
)

// Runner fans independent simulation cells across a bounded worker
// pool. Every cell is a self-contained simulation — core.RunSingle and
// core.RunBurst build a fresh Host and sim.Env per call, with the seed
// fixed at submission time — and writes only its own pre-allocated
// slot, so a report built through the runner is bit-for-bit identical
// at any worker count.
//
// Usage: submit cells (trials/single/burst or a raw submit), queue any
// result-ordering work with then, and call wait. Cells run on up to
// `workers` goroutines; then-callbacks run afterwards on the calling
// goroutine, in submission order, so row and chart assembly stays
// deterministic without locks.
type Runner struct {
	workers int
	cells   []func()
	after   []func()
}

// newRunner builds a runner sized by opt's parallelism.
func newRunner(opt Options) *Runner {
	return &Runner{workers: opt.parallel()}
}

// submit queues one cell for execution by wait.
func (r *Runner) submit(f func()) {
	r.cells = append(r.cells, f)
}

// then queues a callback to run after all cells complete, in submission
// order, on the goroutine calling wait. Use it to format cell results
// into report rows and chart series.
func (r *Runner) then(f func()) {
	r.after = append(r.after, f)
}

// wait runs every queued cell to completion, then the then-callbacks.
// A panic inside a cell is re-raised here on the calling goroutine
// (the first one wins when several cells panic). The runner is
// reusable: after wait returns it is empty and accepts new cells.
func (r *Runner) wait() {
	cells, after := r.cells, r.after
	r.cells, r.after = nil, nil

	n := r.workers
	if n > len(cells) {
		n = len(cells)
	}
	if n <= 1 {
		for _, f := range cells {
			f()
		}
	} else {
		var (
			wg       sync.WaitGroup
			idx      = make(chan int)
			panicMu  sync.Mutex
			panicked interface{}
		)
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					func() {
						defer func() {
							if p := recover(); p != nil {
								panicMu.Lock()
								if panicked == nil {
									panicked = p
								}
								panicMu.Unlock()
							}
						}()
						cells[i]()
					}()
				}
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}
	for _, f := range after {
		f()
	}
}

// artsSource resolves a cell's artifacts lazily inside the worker, so
// record phases parallelize (and dedupe through the cache) like
// everything else instead of serializing at submission time.
type artsSource func() *core.Artifacts

// recorded is the cached record-phase artifacts source for (fn, in).
func recorded(host core.HostConfig, fn *workload.Spec, in workload.Input) artsSource {
	return func() *core.Artifacts { return artifactsFor(host, fn, in) }
}

// fixed wraps already-built artifacts as a source.
func fixed(arts *core.Artifacts) artsSource {
	return func() *core.Artifacts { return arts }
}

// trialSet is the handle for a batch of repeated-trial cells; results
// is fully populated once the runner's wait returns.
type trialSet struct {
	results []*core.InvokeResult
}

// totals returns the per-trial total durations.
func (t *trialSet) totals() sample { return totals(t.results) }

// trials schedules `trials` invocations of (arts, mode, in), one cell
// per trial, each slotted by index. Trial i runs under host seed
// 1000·i+7 — the one place per-trial seeds are assigned, for every
// paper table and for the faasnap-test matrix alike.
func (r *Runner) trials(host core.HostConfig, arts artsSource, mode core.Mode, in workload.Input, trials int) *trialSet {
	t := &trialSet{results: make([]*core.InvokeResult, trials)}
	for i := 0; i < trials; i++ {
		i := i
		r.submit(func() {
			cfg := host
			cfg.Seed = int64(1000*i + 7)
			t.results[i] = core.RunSingle(cfg, arts(), mode, in)
		})
	}
	return t
}

// invocation is the handle for one single-run cell.
type invocation struct {
	res *core.InvokeResult
}

// single schedules one invocation of (arts, mode, in) under host's own
// seed.
func (r *Runner) single(host core.HostConfig, arts artsSource, mode core.Mode, in workload.Input) *invocation {
	c := &invocation{}
	r.submit(func() {
		c.res = core.RunSingle(host, arts(), mode, in)
	})
	return c
}

// burstCell is the handle for one burst-simulation cell.
type burstCell struct {
	res core.BurstResult
}

// burst schedules one RunBurst simulation as a single cell (the burst's
// internal parallelism is virtual: one Env, many sim processes).
func (r *Runner) burst(host core.HostConfig, arts artsSource, mode core.Mode, in workload.Input, parallel int, same bool) *burstCell {
	c := &burstCell{}
	r.submit(func() {
		c.res = core.RunBurst(host, arts(), mode, in, parallel, same)
	})
	return c
}

// parallel resolves Options.Parallel: 0 (or negative) means all cores;
// an explicit positive count is honored as given, so tests can force
// more workers than cores and still exercise real interleaving.
func (o Options) parallel() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}
