package main

// Micro-loops over the layers no request isolates: each runs one
// layer's exported API on fixed inputs, single-threaded, once per
// traced run. Also the Go runtime sampler.

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/casstore"
	"faasnap/internal/core"
	"faasnap/internal/pagecache"
	"faasnap/internal/sim"
	"faasnap/internal/snapfile"
	"faasnap/internal/statedir"
	"faasnap/internal/workload"
)

const (
	simProcs       = 64
	simSleeps      = 10000
	simHandoffs    = 100000
	simAcquires    = 2000
	faultPages     = 1 << 16
	faultStride    = 37
	codecRounds    = 5
	casChunks      = 128 // x 256 KiB = 32 MB through the store
	journalEntries = 512
)

func microLoops(tmp string, m measured) error {
	simLoops(m)
	pagecacheLoop(m)
	return storageLoops(tmp, m)
}

func nsPer(start time.Time, n int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// simLoops times the DES kernel's three primitives: a timer event, a
// process-to-process hand-off, and a contended resource.
func simLoops(m measured) {
	env := sim.NewEnv(1)
	for i := 0; i < simProcs; i++ {
		d := time.Duration(i+1) * time.Microsecond
		env.Go("sleeper", func(p *sim.Proc) {
			for k := 0; k < simSleeps; k++ {
				p.Sleep(d)
			}
		})
	}
	start := time.Now()
	env.Run()
	m["sim.ns_per_event"] = nsPer(start, simProcs*simSleeps)

	// Two processes pass a baton back and forth through one-shot
	// events, made beforehand so only the hand-off is timed.
	env = sim.NewEnv(1)
	ping, pong := make([]*sim.Event, simHandoffs), make([]*sim.Event, simHandoffs)
	for k := range ping {
		ping[k], pong[k] = sim.NewEvent(env), sim.NewEvent(env)
	}
	env.Go("ping", func(p *sim.Proc) {
		for k := range ping {
			ping[k].Fire()
			pong[k].Wait(p)
		}
	})
	env.Go("pong", func(p *sim.Proc) {
		for k := range ping {
			ping[k].Wait(p)
			pong[k].Fire()
		}
	})
	start = time.Now()
	env.Run()
	m["sim.ns_per_handoff"] = nsPer(start, 2*simHandoffs)

	env = sim.NewEnv(1)
	res := sim.NewResource(env, 1)
	for i := 0; i < simProcs; i++ {
		env.Go("contender", func(p *sim.Proc) {
			for k := 0; k < simAcquires; k++ {
				res.Acquire(p)
				p.Sleep(time.Microsecond)
				res.Release()
			}
		})
	}
	start = time.Now()
	env.Run()
	m["sim.ns_per_acquire"] = nsPer(start, simProcs*simAcquires)
}

// pagecacheLoop faults a file in sequentially, then another strided.
func pagecacheLoop(m measured) {
	env := sim.NewEnv(1)
	cache := pagecache.New(env)
	dev := blockdev.New(env, blockdev.NVMeLocal())
	seq := cache.Register("seq", dev, faultPages)
	strided := cache.Register("strided", dev, faultPages)
	env.Go("faulter", func(p *sim.Proc) {
		for page := int64(0); page < faultPages; page++ {
			cache.FaultRead(p, seq, page, blockdev.FaultRead)
		}
		for i := int64(0); i < faultPages; i++ {
			cache.FaultRead(p, strided, i*faultStride%faultPages, blockdev.FaultRead)
		}
	})
	start := time.Now()
	env.Run()
	m["pagecache.ns_per_fault"] = nsPer(start, 2*faultPages)
}

func mbPerS(bytes int64, d time.Duration) float64 {
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// storageLoops times the snapshot codec, the chunker, the chunk store's
// tiers and the manifest journal, on the hello-world snapshot.
func storageLoops(tmp string, m measured) error {
	spec, err := workload.ByName("hello-world")
	if err != nil {
		return err
	}
	arts, _ := core.Record(core.DefaultHostConfig(), spec, spec.A)

	// Chunker: wall, and how much heap it holds at its end (it
	// materialises every payload before the first could be stored).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	cm, chunks := casstore.BuildChunks(arts, 0)
	m["casstore.build_chunks_ms"] = ms(time.Since(start))
	runtime.ReadMemStats(&after)
	m["casstore.build_chunks_peak_mb"] = float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)

	// Codec: a snapfile is about a megabyte and takes milliseconds, so
	// each direction is the median of a few rounds.
	var buf bytes.Buffer
	var enc, dec []float64
	for i := 0; i < codecRounds; i++ {
		buf.Reset()
		start = time.Now()
		if err := snapfile.WriteChunked(&buf, arts, cm); err != nil {
			return err
		}
		enc = append(enc, mbPerS(int64(buf.Len()), time.Since(start)))
		start = time.Now()
		if _, _, err := snapfile.ReadChunked(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		dec = append(dec, mbPerS(int64(buf.Len()), time.Since(start)))
	}
	m["snapfile.encode_mb_per_s"], m["snapfile.decode_mb_per_s"] = median(enc), median(dec)

	dir, err := os.MkdirTemp(tmp, "micro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := casstore.Open(dir, nil)
	if err != nil {
		return err
	}
	if len(chunks) > casChunks {
		chunks = chunks[:casChunks]
	}
	var total int64
	for _, c := range chunks {
		total += int64(len(c.Data))
	}
	each := func(metric string, fn func(c casstore.Chunk) error) error {
		start := time.Now()
		for _, c := range chunks {
			if err := fn(c); err != nil {
				return err
			}
		}
		m[metric] = mbPerS(total, time.Since(start))
		return nil
	}
	put := func(c casstore.Chunk) error {
		_, err := store.PutDigest(casstore.Digest(c.Ref.Digest), c.Data)
		return err
	}
	get := func(c casstore.Chunk) error {
		_, _, err := store.Get(casstore.Digest(c.Ref.Digest))
		return err
	}
	if err := each("casstore.put_mb_per_s", put); err != nil {
		return err
	}
	if err := each("casstore.put_dup_mb_per_s", put); err != nil {
		return err
	}
	if err := each("casstore.get_mb_per_s.local", get); err != nil {
		return err
	}
	for _, c := range chunks {
		if err := store.Demote(casstore.Digest(c.Ref.Digest)); err != nil {
			return err
		}
	}
	if err := each("casstore.get_mb_per_s.cold", get); err != nil {
		return err
	}

	// Journal: fsynced appends, then replaying them on open.
	journal, _, err := statedir.Open(dir)
	if err != nil {
		return err
	}
	if _, err := journal.Register("fn", ""); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < journalEntries; i++ {
		if _, err := journal.Record("fn", "A"); err != nil {
			return err
		}
	}
	m["statedir.appends_per_s"] = journalEntries / time.Since(start).Seconds()
	if err := journal.Close(); err != nil {
		return err
	}
	start = time.Now()
	journal, _, err = statedir.Open(dir)
	if err != nil {
		return err
	}
	m["statedir.open_replay_ms"] = ms(time.Since(start))
	return journal.Close()
}

// runtimeSampler polls runtime/metrics while a run is in progress.
type runtimeSampler struct {
	stopCh chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	start  time.Time

	heapPeak, goroutinesPeak uint64
	gcCPU0, totalCPU0        float64
	cycles0                  uint64
}

const (
	metricGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU   = "/cpu/classes/total:cpu-seconds"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
	metricHeapLive   = "/memory/classes/heap/objects:bytes"
	metricGoroutines = "/sched/goroutines:goroutines"
)

func readRuntime() (gcCPU, totalCPU float64, cycles, heap, goroutines uint64) {
	s := []metrics.Sample{{Name: metricGCCPU}, {Name: metricTotalCPU}, {Name: metricGCCycles}, {Name: metricHeapLive}, {Name: metricGoroutines}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64(), s[3].Value.Uint64(), s[4].Value.Uint64()
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stopCh: make(chan struct{}), start: time.Now()}
	rs.gcCPU0, rs.totalCPU0, rs.cycles0, _, _ = readRuntime()
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rs.stopCh:
				return
			case <-tick.C:
				_, _, _, heap, gs := readRuntime()
				if heap > rs.heapPeak {
					rs.heapPeak = heap
				}
				if gs > rs.goroutinesPeak {
					rs.goroutinesPeak = gs
				}
			}
		}
	}()
	return rs
}

// stop ends sampling and writes the runtime.* metrics; only the first
// call does anything.
func (rs *runtimeSampler) stop(m measured) {
	rs.once.Do(func() { rs.finish(m) })
}

func (rs *runtimeSampler) finish(m measured) {
	close(rs.stopCh)
	rs.wg.Wait()
	gcCPU, totalCPU, cycles, _, _ := readRuntime()
	if d := totalCPU - rs.totalCPU0; d > 0 {
		m["runtime.gc_cpu_frac"] = (gcCPU - rs.gcCPU0) / d
	}
	m["runtime.gc_per_s"] = float64(cycles-rs.cycles0) / time.Since(rs.start).Seconds()
	m["runtime.heap_peak_mb"] = float64(rs.heapPeak) / (1 << 20)
	m["runtime.goroutines_peak"] = float64(rs.goroutinesPeak)
}
