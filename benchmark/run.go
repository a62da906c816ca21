package main

// Set-up and the timed window of each workload: closed loop, tracing
// off, measured from outside the program under test.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"faasnap/internal/daemon"
)

// invokeClients is the closed-loop client count of the invoke
// workloads: one per core of the 2-core box the bounds were set on, so
// ops_per_s is the capacity of the box. record-sync runs one client:
// its functions share chunks, and which of two concurrent recordings
// pays for a shared chunk would make its byte counts a race.
const invokeClients = 2

// A timed run sets the workload up at least minSetups times and keeps
// going, up to maxSetups, until the set-ups have taken setupBudget
// together: a 20 ms set-up needs more repeats than a 2 s one for its
// median to hold still. setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// repeatedSetup leaves the stack set up and returns every set-up's
// duration.
func (r *runner) repeatedSetup(ctx context.Context) ([]time.Duration, error) {
	var all []time.Duration
	var total time.Duration
	for i := 0; i < minSetups || (i < maxSetups && total < setupBudget); i++ {
		d, err := r.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		all = append(all, d)
		total += d
	}
	return all, nil
}

// sample is one op as the client saw it.
type sample struct {
	cell   int
	wall   time.Duration
	failed bool // not 200, degraded, transport error, or off the golden
	shed   bool // 429
	aux    bool // a correctness check that is not an op (record-sync's invoke after recovery)
	out    outcome
	// Gateway reply headers, empty on direct workloads.
	backend, placement string
}

// blockStat is one completed block: how long it took and how much
// process CPU (user+sys) went by meanwhile.
type blockStat struct {
	ops  int
	wall time.Duration
	cpu  time.Duration
}

// window is one measured interval, a whole number of blocks.
type window struct {
	samples []sample
	blocks  []blockStat
	alloc   uint64 // bytes allocated over the interval

	// record-sync only.
	sync syncTotals
}

// syncTotals are the write-side sums of a record-sync window.
type syncTotals struct {
	recordWall, syncWall   time.Duration
	recordBytes, syncBytes int64 // logical chunk-map bytes
	fetchedBytes           int64 // bytes the eager syncs actually moved
	recordCalls, syncCalls []float64
	recovers               []time.Duration // daemon.New on the populated dir
	recoveredFns           int
	lazyAcks               []float64 // wall of a lazy sync's reply
	gcMs                   []float64
	dedupRatio             float64 // GET /cas on the recording daemon
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// meter closes blocks: each call to block records the wall and CPU
// since the previous one.
type meter struct {
	start time.Time
	t     time.Time
	cpu   time.Duration
	heap0 uint64
}

func startMeter() *meter {
	now := time.Now()
	return &meter{start: now, t: now, cpu: processCPU(), heap0: totalAlloc()}
}

func (m *meter) block(w *window, ops int) {
	now, cpu := time.Now(), processCPU()
	w.blocks = append(w.blocks, blockStat{ops: ops, wall: now.Sub(m.t), cpu: cpu - m.cpu})
	m.t, m.cpu = now, cpu
}

func (m *meter) stop(w *window) { w.alloc = totalAlloc() - m.heap0 }

// runner holds one workload's inputs and the stack it is talking to.
type runner struct {
	workload string
	in       *inputs
	tmp      string // state dirs go under here
	gold     *golden
	st       *stack
	conns    []*conn
	spans    *spanLog // set while a traced run wants the client's calls as spans
}

func newRunner(workload string, seed int64, tmp string, gold *golden) (*runner, error) {
	in, err := inputsFor(workload, seed)
	if err != nil {
		return nil, err
	}
	r := &runner{workload: workload, in: in, tmp: tmp, gold: gold}
	for i := 0; i < r.clients(); i++ {
		r.conns = append(r.conns, newConn())
	}
	return r, nil
}

func (r *runner) clients() int {
	if r.workload == wlRecordSync {
		return 1
	}
	return invokeClients
}

func (r *runner) close() {
	r.teardown()
	for _, c := range r.conns {
		c.close()
	}
}

func (r *runner) teardown() {
	if r.st != nil {
		r.st.stop()
		r.st = nil
	}
}

// setup brings the stack from nothing to the state the window starts
// in, and returns how long that took: start daemons (and gateway),
// register, record, warm. record-sync's window does its own recording,
// so its set-up ends at two empty daemons with every function
// registered on the first.
func (r *runner) setup(ctx context.Context) (time.Duration, error) {
	r.teardown()
	runtime.GC() // the previous stack's garbage is not this set-up's cost
	start := time.Now()
	var err error
	switch r.workload {
	case wlSmallGateway:
		r.st, err = startStack(r.tmp, 3, true, true)
	case wlRecordSync:
		r.st, err = startStack(r.tmp, 2, true, false)
	default:
		// No state dir: set-up here is core.Record (the simulator), and
		// the chunk-store write side stays record-sync's alone. The
		// invoke path does not read the state dir.
		r.st, err = startStack(r.tmp, 1, false, false)
	}
	if err != nil {
		return 0, err
	}
	if r.workload == wlRecordSync {
		err = r.registerAll(ctx, r.st.nodes[0].base())
	} else {
		err = r.prepareAll(ctx)
	}
	if err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (r *runner) registerAll(ctx context.Context, base string) error {
	for _, f := range r.in.fns {
		if err := r.conns[0].register(ctx, base, f); err != nil {
			return err
		}
	}
	return nil
}

// prepareAll registers, records and warms every function through the
// workload's front door, the clients sharing the list.
func (r *runner) prepareAll(ctx context.Context) error {
	warm := map[string]cell{}
	for _, c := range r.in.cells {
		if _, ok := warm[c.Fn]; !ok {
			warm[c.Fn] = cell{Fn: c.Fn, Mode: c.Mode, Input: c.Input}
		}
	}
	prepare := func(c *conn, f fnSpec) error {
		if err := c.register(ctx, r.st.target, f); err != nil {
			return err
		}
		if _, err := c.record(ctx, r.st.target, f.Name); err != nil {
			return err
		}
		url, body := requestFor(r.st.target, warm[f.Name])
		_, err := c.must(ctx, http.MethodPost, url, body)
		return err
	}
	next := make(chan fnSpec)
	errs := make([]error, len(r.conns)) // each client's first error
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for f := range next { // keeps draining after an error, so the feeder never blocks
				if errs[i] == nil {
					errs[i] = prepare(c, f)
				}
			}
		}(i, c)
	}
	for _, f := range r.in.fns {
		next <- f
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// exec sends one cell's request on c and judges the reply.
func (r *runner) exec(ctx context.Context, c *conn, base string, o op) sample {
	cl := r.in.cells[o.Cell]
	url, body := requestFor(base, cl)
	rep, err := c.do(ctx, http.MethodPost, url, body, http.Header{"X-Faasnap-Tenant": {tenantName(o.Tenant)}})
	s := sample{cell: o.Cell, wall: rep.wall, failed: true}
	if err != nil {
		return s
	}
	s.backend, s.placement = rep.header.Get("X-Faasnap-Backend"), rep.header.Get("X-Faasnap-Placement")
	if rep.status != http.StatusOK {
		s.shed = rep.status == http.StatusTooManyRequests
		return s
	}
	out, err := parseReply(cl, rep.body)
	if err != nil {
		return s
	}
	s.out = out
	s.failed = out.degraded || !r.gold.check(cl.key(), out.virt)
	return s
}

// dispenser hands out ops block by block and stops at the block
// boundary nearest the window's end (it starts another block only if
// half of it would still fit): every window is a whole number of
// blocks, so its mix of cells never depends on where a deadline
// happened to fall.
type dispenser struct {
	mu     sync.Mutex
	in     *inputs
	start  time.Time
	window time.Duration
	next   int
	cur    []op
	done   bool
}

// take returns the next op and the block it belongs to.
func (d *dispenser) take() (op, int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done {
		return op{}, 0, false
	}
	pos := d.next % d.in.blockLen
	if pos == 0 {
		b := d.next / d.in.blockLen
		if b > 0 {
			elapsed := time.Since(d.start)
			if elapsed+elapsed/time.Duration(2*b) > d.window {
				d.done = true
				return op{}, 0, false
			}
		}
		d.cur = d.in.block(b)
	}
	d.next++
	return d.cur[pos], (d.next - 1) / d.in.blockLen, true
}

// closedLoop runs the invoke workloads' window: each client sends its
// next request when its previous one completes. A block closes when
// its last op completes, whichever client that was on.
func (r *runner) closedLoop(ctx context.Context, seconds float64) window {
	runtime.GC() // every window starts from a collected heap
	d := &dispenser{in: r.in, window: time.Duration(seconds * float64(time.Second))}
	var w window
	var mu sync.Mutex
	done := map[int]int{} // block -> ops completed
	var wg sync.WaitGroup
	m := startMeter()
	d.start = m.start
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for ctx.Err() == nil {
				o, block, ok := d.take()
				if !ok {
					return
				}
				s := r.exec(ctx, c, r.st.target, o)
				mu.Lock()
				w.samples = append(w.samples, s)
				if done[block]++; done[block] == r.in.blockLen {
					m.block(&w, r.in.blockLen)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	m.stop(&w)
	return w
}

// timedWindow is the tracing-off window the end-to-end metrics come
// from.
func (r *runner) timedWindow(ctx context.Context, seconds float64) (window, error) {
	if r.workload == wlRecordSync {
		return r.recordSyncWindow(ctx, seconds, false)
	}
	return r.closedLoop(ctx, seconds), nil
}

// recordSyncWindow runs whole passes up to the pass boundary nearest
// the window's end. A pass: for every function, record on daemon A,
// eager-sync onto the empty daemon B, invoke on B; then stop B, reopen
// it on its state dir (synchronous recovery) and invoke every function
// again. Every pass but the first starts by replacing both daemons
// with empty ones. With extras, each pass also lazy-syncs onto a third
// daemon and runs GC on A, for the per-layer list.
func (r *runner) recordSyncWindow(ctx context.Context, seconds float64, extras bool) (window, error) {
	runtime.GC()
	c := r.conns[0]
	var w window
	limit := time.Duration(seconds * float64(time.Second))
	m := startMeter()
	for pass := 0; ctx.Err() == nil; pass++ {
		if pass > 0 {
			elapsed := time.Since(m.start)
			if elapsed+elapsed/time.Duration(2*pass) > limit {
				break
			}
			if _, err := r.setup(ctx); err != nil {
				return w, err
			}
		}
		if err := r.recordSyncPass(ctx, c, r.in.block(pass), &w, extras); err != nil {
			return w, err
		}
		m.block(&w, r.in.blockLen)
	}
	m.stop(&w)
	return w, nil
}

func (r *runner) recordSyncPass(ctx context.Context, c *conn, ops []op, w *window, extras bool) error {
	a, b := r.st.nodes[0], r.st.nodes[1]
	var lazy *node
	if extras {
		dir, err := os.MkdirTemp(r.tmp, "state-")
		if err != nil {
			return err
		}
		if lazy, err = startNode(dir); err != nil {
			return err
		}
		r.st.nodes = append(r.st.nodes, lazy) // torn down with the stack
	}
	for _, o := range ops {
		cl := r.in.cells[o.Cell]
		fn := cl.Fn
		sp := r.spans.forOp(len(w.samples), o.Cell, cl.key())
		var rec, syn reply
		var sr daemon.SyncResponse
		var err error
		sp.within(0, "client.record", func() { rec, err = c.record(ctx, a.base(), fn) })
		if err != nil {
			return err
		}
		sp.within(0, "client.sync", func() { syn, sr, err = r.sync(ctx, c, a, b, fn, true) })
		if err != nil {
			return err
		}
		var s sample
		sp.within(0, "client.invoke", func() { s = r.exec(ctx, c, b.base(), o) })
		s.wall += rec.wall + syn.wall
		w.samples = append(w.samples, s)

		t := &w.sync
		t.recordWall += rec.wall
		t.syncWall += syn.wall
		t.recordBytes += sr.BytesTotal
		t.syncBytes += sr.BytesTotal
		t.fetchedBytes += sr.BytesFetched
		t.recordCalls = append(t.recordCalls, ms(rec.wall))
		t.syncCalls = append(t.syncCalls, ms(syn.wall))
		if lazy != nil {
			var ack reply
			sp.within(0, "client.sync_lazy", func() { ack, _, err = r.sync(ctx, c, a, lazy, fn, false) })
			if err != nil {
				return err
			}
			t.lazyAcks = append(t.lazyAcks, ms(ack.wall))
		}
	}
	if extras {
		var cas daemon.CASResponse
		rep, err := c.must(ctx, http.MethodGet, a.base()+"/cas", nil)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(rep.body, &cas); err != nil {
			return err
		}
		w.sync.dedupRatio = cas.DedupRatio
		var gc reply
		r.spans.forOp(len(w.samples), -1, "").within(0, "client.gc", func() { gc, err = c.must(ctx, http.MethodPost, a.base()+"/gc", nil) })
		if err != nil {
			return err
		}
		w.sync.gcMs = append(w.sync.gcMs, ms(gc.wall))
	}

	// Recovery: B comes back on the state dir the syncs populated and
	// must serve every function exactly as before.
	b.stop()
	c.close() // B's listener is gone; drop the idle connection to it
	start := time.Now()
	var nb *node
	var err error
	r.spans.forOp(len(w.samples), -1, "").within(0, "daemon.recover", func() { nb, err = startNode(b.dir) })
	if err != nil {
		return err
	}
	w.sync.recovers = append(w.sync.recovers, time.Since(start))
	w.sync.recoveredFns += len(ops)
	r.st.nodes[1] = nb
	for _, o := range ops {
		s := r.exec(ctx, c, nb.base(), o)
		s.aux = true
		w.samples = append(w.samples, s)
	}
	return nil
}

func (r *runner) sync(ctx context.Context, c *conn, from, to *node, fn string, eager bool) (reply, daemon.SyncResponse, error) {
	var sr daemon.SyncResponse
	rep, err := c.must(ctx, http.MethodPost, to.base()+"/functions/"+fn+"/sync",
		mustJSON(map[string]interface{}{"source": from.addr, "eager": eager}))
	if err != nil {
		return rep, sr, err
	}
	if err := json.Unmarshal(rep.body, &sr); err != nil {
		return rep, sr, fmt.Errorf("sync %s: %w", fn, err)
	}
	return rep, sr, nil
}

// measured is one run's numbers, by metric name.
type measured map[string]float64

// tally counts what the result line reports.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) { t.attempted, t.failed = t.attempted+o.attempted, t.failed+o.failed }

func (w *window) tally() tally {
	t := tally{attempted: len(w.samples)}
	for _, s := range w.samples {
		if s.failed {
			t.failed++
		}
	}
	return t
}

// ops are the window's completed ops (aux checks are not ops).
func (w *window) ops() (byCell map[int][]float64, n int, virt map[int]float64) {
	byCell, virt = map[int][]float64{}, map[int]float64{}
	for _, s := range w.samples {
		if s.aux || s.failed {
			continue
		}
		n++
		byCell[s.cell] = append(byCell[s.cell], ms(s.wall))
		if _, ok := virt[s.cell]; !ok {
			virt[s.cell] = s.out.virt.TotalMs
		}
	}
	return byCell, n, virt
}

// endToEndMetrics reduces a timed window to the gated metrics.
//
// Throughput and CPU per op are medians over the window's blocks, and
// latency is a mean of per-cell medians: the box this runs on has slow
// spells, and a median sheds the short ones. Every window is whole
// blocks and every block holds every cell, so virt_total_ms — each
// cell's virtual total counted once — does not depend on the seed or
// on how many ops the window fit.
func endToEndMetrics(w *window, setups []time.Duration) (measured, error) {
	byCell, n, virt := w.ops()
	if n == 0 || len(w.blocks) == 0 {
		return nil, fmt.Errorf("window completed no block")
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	var rate, cpu []float64
	for _, b := range w.blocks {
		rate = append(rate, float64(b.ops)/b.wall.Seconds())
		cpu = append(cpu, ms(b.cpu)/float64(b.ops))
	}
	virtTotals := make([]float64, 0, len(virt))
	for cell := range byCell {
		virtTotals = append(virtTotals, virt[cell])
	}
	return measured{
		"setup_s":         median(setupS),
		"ops_per_s":       median(rate),
		"wall_p50_ms":     perCellMedian(byCell),
		"cpu_ms_per_op":   median(cpu),
		"alloc_mb_per_op": float64(w.alloc) / (1 << 20) / float64(n),
		"virt_total_ms":   mean(sorted(virtTotals)),
	}, nil
}
