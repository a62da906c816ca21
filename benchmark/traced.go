package main

// The traced run: per-layer attribution measured from outside. The
// program under test has no tracing switch and gains none; the spans
// are the benchmark's own, around its own calls into each layer's
// exported API. For every op the run
//
//  1. sends the real request (client.invoke; on small-gateway a second
//     one straight to the backend that served it, client.direct),
//  2. serves the same request in-process through the daemon's
//     http.Handler with a recorder (daemon.handler), and
//  3. replays the handler's steps under child spans — VMM restore RPC,
//     the simulation, guest-agent RPC, telemetry, JSON, trace build,
//     flight-recorder append — on artifacts from its own core.Record
//     of the same spec.
//
// What the handler spends beyond restore + simulation + agent is
// daemon.self_ms, by subtraction.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/daemon"
	"faasnap/internal/guestagent"
	"faasnap/internal/metrics"
	"faasnap/internal/obs"
	"faasnap/internal/telemetry"
	"faasnap/internal/trace"
	"faasnap/internal/vmm"
	"faasnap/internal/workload"
)

// replayTolerance is how far the replayed steps may exceed the handler
// they replay before the replay is declared to have drifted from it.
const replayTolerance = 0.05

// minFidelityOps is how many traced ops that verdict needs: two
// executions of one simulation differ by 10-20 % on this box, and a
// burst-direct traced run fits only a handful.
const minFidelityOps = 8

// sweepIdle is how long the idle gateway is watched for
// gateway.sweep_cpu_ms_per_s.
const sweepIdle = 5 * time.Second

type tracedResult struct {
	metrics measured
	notes   []string
	tally   tally
	spans   *spanLog
}

// fnArts is the benchmark's own recording of one function, for replay.
type fnArts struct {
	spec *workload.Spec
	arts *core.Artifacts
}

func (f *fnArts) input(name string) workload.Input {
	if name == "B" {
		return f.spec.B
	}
	return f.spec.A
}

// tracer is the replay side of a traced run: its own instances of
// everything the daemon's invoke handler owns.
type tracer struct {
	host    core.HostConfig
	cells   []cell // the workload's, indexed as spans index them
	fns     map[string]*fnArts
	agent   *guestagent.Agent
	reg     *telemetry.Registry
	traces  *trace.Store
	ring    *obs.Ring
	log     *spanLog
	recMs   []float64 // core.Record wall per function
	allocMB map[int][]float64
	allocs  map[int][]float64
}

func newTracer(in *inputs) (*tracer, error) {
	t := &tracer{
		host:    core.DefaultHostConfig(),
		cells:   in.cells,
		fns:     map[string]*fnArts{},
		reg:     telemetry.NewRegistry(),
		traces:  trace.NewStore(obs.DefaultRing),
		ring:    obs.NewRing(0),
		log:     newSpanLog(),
		allocMB: map[int][]float64{},
		allocs:  map[int][]float64{},
	}
	for _, f := range in.fns {
		var spec *workload.Spec
		var err error
		if f.Body == nil {
			spec, err = workload.ByName(f.Name)
		} else {
			spec, err = workload.ParseSpec(f.Body)
		}
		if err != nil {
			return nil, err
		}
		start := time.Now()
		arts, _ := core.Record(t.host, spec, spec.A)
		t.recMs = append(t.recMs, ms(time.Since(start)))
		t.fns[f.Name] = &fnArts{spec: spec, arts: arts}
	}
	t.agent = guestagent.Start("benchmark-replay", func(guestagent.InvokeRequest) (guestagent.InvokeReply, error) {
		return guestagent.InvokeReply{}, nil
	})
	t.agent.SetTelemetry(t.reg)
	return t, nil
}

func (t *tracer) close() { t.agent.Close() }

// regionMaps renders the artifacts' mapping plan as the VMM API's
// region-map extension, as the daemon does for FaaSnap restores.
func regionMaps(arts *core.Artifacts, name string) []vmm.RegionMap {
	var out []vmm.RegionMap
	for _, m := range arts.MappingPlan(true) {
		rm := vmm.RegionMap{StartPage: m.Start, Pages: m.Pages}
		switch m.Backing {
		case core.MapAnon:
			rm.Backing = "anonymous"
		case core.MapMemoryFile:
			rm.Backing, rm.Path, rm.Offset = "memory_file", "/snapshots/"+name+".mem", m.FileOff
		case core.MapLoadingSet:
			rm.Backing, rm.Path, rm.Offset = "loading_set", "/snapshots/"+name+".ls", m.FileOff
		}
		out = append(out, rm)
	}
	return out
}

func toInvokeResponse(fn string, r *core.InvokeResult) daemon.InvokeResponse {
	return daemon.InvokeResponse{
		Function: fn, Mode: r.Mode.String(), Input: r.Input,
		SetupMs: ms(r.Setup), InvokeMs: ms(r.Invoke), TotalMs: ms(r.Total), FetchMs: ms(r.Fetch),
		FetchMB: float64(r.FetchBytes) / (1 << 20),
		Faults:  r.Faults.Total(), MajorFaults: r.Faults.Majors(), FaultTimeMs: ms(r.Faults.TotalTime()),
		MmapCalls: r.MmapCalls, BlockRequests: r.BlockRequests,
	}
}

// restore replays the control-plane restore: a fresh VMM, the
// snapshot-load request (with the per-region mapping plan for FaaSnap),
// close.
func (t *tracer) restore(ctx context.Context, fa *fnArts, mode core.Mode, sc telemetry.SpanContext) ([]telemetry.RemoteSpan, error) {
	name := fa.spec.Name
	m := vmm.Launch(name + "-restore")
	m.SetTelemetry(t.reg)
	defer m.Close()
	c := m.Client()
	c.SetContext(ctx)
	c.SetTraceContext(sc)
	req := vmm.SnapshotLoadRequest{
		SnapshotPath: "/snapshots/" + name + ".state",
		MemBackend:   vmm.MemBackend{BackendType: "File", BackendPath: "/snapshots/" + name + ".mem"},
		ResumeVM:     true,
	}
	if mode == core.ModeFaaSnap || mode == core.ModePerRegion {
		req.RegionMaps = regionMaps(fa.arts, name)
	}
	if err := c.LoadSnapshot(req); err != nil {
		return nil, err
	}
	if st := m.State(); st != vmm.StateRunning {
		return nil, fmt.Errorf("restored VM in state %q", st)
	}
	return c.TraceSpans(), nil
}

// replay runs the handler's steps for one cell under child spans of
// parent. Step names are the per-layer metric names.
func (t *tracer) replay(ctx context.Context, o opSpans, parent int, cl cell) error {
	fa := t.fns[cl.Fn]
	mode, err := core.ParseMode(cl.Mode)
	if err != nil {
		return err
	}
	in := fa.input(cl.Input)
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	traceID := t.traces.NextID()
	rootSC := telemetry.SpanContext{TraceID: string(traceID), SpanID: string(trace.SpanID(traceID, 1))}
	var remote []telemetry.RemoteSpan
	o.within(parent, "vmm.restore", func() { remote, err = t.restore(ctx, fa, mode, rootSC) })
	if err != nil {
		return fmt.Errorf("replay restore: %w", err)
	}
	prof := &obs.Profile{Function: cl.Fn, Route: "invoke", Mode: cl.Mode}

	if cl.Parallel > 0 {
		var br core.BurstResult
		o.within(parent, "core.burst", func() { br = core.RunBurst(t.host, fa.arts, mode, in, cl.Parallel, cl.Same) })
		o.within(parent, "telemetry.observe", func() { core.ObserveBurst(t.reg, br) })
		o.within(parent, "json.marshal", func() {
			resp := daemon.BurstResponse{Function: cl.Fn, Mode: cl.Mode, Parallel: cl.Parallel, Same: cl.Same, MeanMs: ms(br.Mean), StdMs: ms(br.Std)}
			for _, res := range br.Results {
				resp.Results = append(resp.Results, toInvokeResponse(cl.Fn, res))
			}
			_, err = json.Marshal(resp)
		})
		o.within(parent, "obs.append", func() {
			prof.Route, prof.ServedMode, prof.ExecMs, prof.TotalMs = "burst", cl.Mode, ms(br.Mean), ms(br.Mean)
			prof.Status, prof.UnixMs = http.StatusOK, time.Now().UnixMilli()
			t.ring.Append(prof)
		})
		return err
	}

	var res *core.InvokeResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o.within(parent, "core.invoke", func() { res = core.RunSingleTraced(t.host, fa.arts, mode, in) })
	runtime.ReadMemStats(&after)
	t.allocMB[o.cell] = append(t.allocMB[o.cell], float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	t.allocs[o.cell] = append(t.allocs[o.cell], float64(after.Mallocs-before.Mallocs))

	agentParent := rootSC
	if len(remote) > 0 {
		agentParent.SpanID = remote[0].SpanID
	}
	o.within(parent, "guestagent.invoke", func() {
		ac := t.agent.Client()
		ac.SetContext(ctx)
		ac.SetTraceContext(agentParent)
		_, err = ac.Invoke(guestagent.InvokeRequest{Input: in.Name})
		remote = append(remote, ac.TraceSpans()...)
	})
	if err != nil {
		return fmt.Errorf("replay agent: %w", err)
	}
	o.within(parent, "telemetry.observe", func() { core.ObserveInvoke(t.reg, res) })
	o.within(parent, "trace.build_put", func() { t.buildTrace(cl.Fn, res, traceID, remote) })
	o.within(parent, "json.marshal", func() { _, err = json.Marshal(toInvokeResponse(cl.Fn, res)) })
	o.within(parent, "obs.append", func() {
		fillProfile(prof, res)
		prof.TraceID, prof.Status, prof.UnixMs = string(traceID), http.StatusOK, time.Now().UnixMilli()
		t.ring.Append(prof)
	})
	return err
}

// buildTrace assembles and stores the invocation's span tree the way
// the daemon's recordTrace does: root, vm-setup, working-set fetch,
// execution, then the stitched remote spans.
func (t *tracer) buildTrace(fn string, r *core.InvokeResult, id trace.ID, remote []telemetry.RemoteSpan) {
	b := trace.NewBuilder(id, fmt.Sprintf("invoke %s [%s]", fn, r.Mode))
	root := b.Span("invocation", "", 0, r.Total, map[string]string{
		"function": fn, "mode": r.Mode.String(), "input": r.Input,
		"faults": fmt.Sprintf("%d", r.Faults.Total()), "majors": fmt.Sprintf("%d", r.Faults.Majors()),
	})
	b.Span("vm-setup", root, 0, r.Setup, map[string]string{"mmap_calls": fmt.Sprintf("%d", r.MmapCalls)})
	if r.Fetch > 0 {
		fetchStart := r.Setup
		if r.Mode == core.ModeREAP {
			fetchStart = r.Setup - r.Fetch
		}
		b.Span("working-set-fetch", root, fetchStart, r.Fetch, map[string]string{"bytes": fmt.Sprintf("%d", r.FetchBytes)})
	}
	b.Span("function-execution", root, r.Setup, r.Invoke, map[string]string{"fault_time": r.Faults.TotalTime().String()})
	for _, rs := range remote {
		anchor := int64(0)
		if rs.Service == "guest-agent" {
			anchor = r.Setup.Microseconds()
		}
		tags := make(map[string]string, len(rs.Tags)+1)
		for k, v := range rs.Tags {
			tags[k] = v
		}
		tags["service"] = rs.Service
		b.Append(&trace.Span{SpanID: trace.ID(rs.SpanID), ParentID: trace.ID(rs.ParentID), Name: rs.Name,
			Timestamp: anchor + rs.StartUs, Duration: rs.DurUs, Tags: tags})
	}
	t.traces.Put(b.Finish())
}

// fillProfile copies one simulated invocation into a flight record, as
// the daemon does before appending it.
func fillProfile(p *obs.Profile, r *core.InvokeResult) {
	p.ServedMode = r.Mode.String()
	p.SetupMs, p.FetchMs, p.ExecMs, p.TotalMs = ms(r.Setup), ms(r.Fetch), ms(r.Invoke), ms(r.Total)
	p.FaultsByKind = make(map[string]int64, int(metrics.NumFaultKinds))
	for k := metrics.FaultKind(0); k < metrics.NumFaultKinds; k++ {
		if n := r.Faults.Count[k]; n > 0 {
			p.FaultsByKind[k.String()] = n
		}
	}
	p.MajorFaultMs = ms(r.Faults.Time[metrics.FaultMajor])
	p.Cache = &obs.CacheDelta{
		MinorHits: r.CacheStats.MinorHits, Misses: r.CacheStats.Misses,
		ReadaheadPages: r.CacheStats.ReadaheadPages, PopulatedPages: r.CacheStats.PopulatedPages,
	}
	if r.Prefetch != nil {
		p.Prefetch = &obs.PrefetchDelta{
			PrefetchedPages: r.Prefetch.PrefetchedPages, UsedPages: r.Prefetch.UsedPages, HitPages: r.Prefetch.HitPages,
			Precision: r.Prefetch.Precision, Recall: r.Prefetch.Recall,
			WastedBytes: r.Prefetch.WastedBytes, MissedMajorMs: ms(r.Prefetch.MissedMajorTime),
		}
	}
}

// serveInProcess runs one request through the daemon's handler with a
// recorder, no socket.
func serveInProcess(n *node, path string, body []byte, tenant int) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Faasnap-Tenant", tenantName(tenant))
	rec := httptest.NewRecorder()
	n.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// tracedOps runs ops one at a time, in the seeded block order, each
// through the three steps above, until the time is up.
func (r *runner) tracedOps(ctx context.Context, t *tracer, seconds float64) (tally, error) {
	var tl tally
	c := r.conns[0]
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var block []op
	for i := 0; ctx.Err() == nil && (i == 0 || time.Now().Before(deadline)); i++ {
		if i%r.in.blockLen == 0 {
			block = r.in.block(i / r.in.blockLen)
		}
		o := block[i%r.in.blockLen]
		cl := r.in.cells[o.Cell]
		sp := t.log.forOp(i, o.Cell, cl.key())
		count := func(s sample) {
			tl.attempted++
			if s.failed {
				tl.failed++
			}
		}

		var via sample
		sp.within(0, "client.invoke", func() { via = r.exec(ctx, c, r.st.target, o) })
		count(via)
		serving := r.st.nodes[0]
		if r.st.gw != nil {
			if serving = r.st.nodeAt(via.backend); serving == nil {
				return tl, fmt.Errorf("gateway reply names no backend of this stack: %q", via.backend)
			}
			sp.within(0, "client.direct", func() { count(r.exec(ctx, c, serving.base(), o)) })
		}

		path, body := requestFor("", cl)
		var code int
		var raw []byte
		sp.within(0, "daemon.handler", func() { code, raw = serveInProcess(serving, path, body, o.Tenant) })
		hs := sample{failed: true}
		if code == http.StatusOK {
			if out, err := parseReply(cl, raw); err == nil {
				hs.failed = out.degraded || !r.gold.check(cl.key(), out.virt)
			}
		}
		count(hs)

		replayID := sp.begin(0, "replay")
		err := t.replay(ctx, sp, replayID, cl)
		sp.end(replayID)
		if err != nil {
			return tl, err
		}
		if cl.Parallel == 0 {
			fa := t.fns[cl.Fn]
			mode, _ := core.ParseMode(cl.Mode)
			sp.within(0, "core.invoke_untraced", func() { core.RunSingle(t.host, fa.arts, mode, fa.input(cl.Input)) })
		}
	}
	return tl, nil
}

// tracedRun produces every per-layer metric of the workload. First
// half: a tracing-off window like the timed one, with the runtime
// sampled (client.*, gateway ratios, reply counts, runtime.*). Second
// half: the traced ops. Then the micro-loops.
func (r *runner) tracedRun(ctx context.Context, seconds float64) (*tracedResult, error) {
	res := &tracedResult{metrics: measured{}}
	m := res.metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	t, err := newTracer(r.in)
	if err != nil {
		return nil, err
	}
	defer t.close()
	res.spans = t.log
	m["core.record_ms"] = median(t.recMs)

	sampler := startRuntimeSampler()
	defer sampler.stop(m) // error paths; the run stops it before the micro-loops
	ref, err := r.timedWindow(ctx, seconds/2)
	if err != nil {
		return nil, err
	}
	res.tally = ref.tally()
	r.windowMetrics(&ref, m)

	if r.workload == wlRecordSync {
		// The write side has no handler to replay: its layers are timed
		// call by call from the client, with the lazy-sync and GC extras.
		if _, err := r.setup(ctx); err != nil {
			return nil, err
		}
		r.spans = t.log
		w, err := r.recordSyncWindow(ctx, seconds/2, true)
		r.spans = nil
		if err != nil {
			return nil, err
		}
		res.tally.add(w.tally())
		syncMetrics(&w, m)
		m["client.trace_overhead_pct"] = overheadPct(wallP50(&w), wallP50(&ref))
	} else {
		tl, err := r.tracedOps(ctx, t, seconds/2)
		if err != nil {
			return nil, err
		}
		res.tally.add(tl)
		res.notes = append(res.notes, t.attribution(r.st.gw != nil, m)...)
		m["client.trace_overhead_pct"] = overheadPct(t.log.typical("client.invoke"), wallP50(&ref))
	}
	sampler.stop(m)

	m["telemetry.scrape_ms"] = scrapeMs(r.st.nodes[0])
	m["core.prefetch_precision"], m["core.prefetch_recall"] = prefetchQuality(r.st.nodes)
	if r.st.gw != nil {
		m["gateway.sweep_cpu_ms_per_s"] = idleCPU(ctx, sweepIdle)
	}
	if err := microLoops(r.tmp, m); err != nil {
		return nil, err
	}
	return res, ctx.Err()
}

func wallP50(w *window) float64 {
	byCell, _, _ := w.ops()
	return perCellMedian(byCell)
}

func overheadPct(traced, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return 100 * (traced/ref - 1)
}

// windowMetrics fills what a tracing-off window shows from outside:
// sample count and tails, gateway placement ratios, shed and degraded
// counts, and the reply's own exact counts averaged over the cells.
func (r *runner) windowMetrics(w *window, m measured) {
	var walls []float64
	var sticky, placed, retries, shed, degraded float64
	type sums struct{ faults, majors, faultMs, blocks, fetchMB float64 }
	perCell := map[int]sums{}
	total := map[string]float64{} // cell key -> virtual total
	for _, s := range w.samples {
		if s.shed {
			shed++
		}
		if s.out.degraded {
			degraded++
		}
		if s.placement != "" {
			placed++
			switch s.placement {
			case "sticky":
				sticky++
			case "retry":
				retries++
			}
		}
		if s.failed || s.aux {
			continue
		}
		walls = append(walls, ms(s.wall))
		if _, seen := perCell[s.cell]; !seen {
			v := s.out.virt
			perCell[s.cell] = sums{float64(v.Faults), float64(v.MajorFaults), s.out.faultTimeMs, float64(v.BlockRequests), s.out.fetchMB}
			total[r.in.cells[s.cell].key()] = v.TotalMs
		}
	}
	m["client.samples"] = float64(len(walls))
	m["client.wall_p95_ms"] = percentileOrZero(walls, 95)
	m["client.wall_p99_ms"] = percentileOrZero(walls, 99)
	if placed > 0 {
		m["gateway.sticky_ratio"] = sticky / placed
	}
	m["gateway.retries"] = retries
	m["daemon.shed"] = shed
	m["daemon.degraded"] = degraded
	if n := float64(len(perCell)); n > 0 {
		var t sums
		for c := 0; c < len(r.in.cells); c++ { // fixed order: float sums must repeat exactly
			s := perCell[c]
			t = sums{t.faults + s.faults, t.majors + s.majors, t.faultMs + s.faultMs, t.blocks + s.blocks, t.fetchMB + s.fetchMB}
		}
		m["hostmm.faults_per_op"] = t.faults / n
		m["hostmm.major_faults_per_op"] = t.majors / n
		m["hostmm.fault_time_virt_ms"] = t.faultMs / n
		m["blockdev.requests_per_op"] = t.blocks / n
		m["blockdev.fetch_mb_per_op"] = t.fetchMB / n
	}
	m["core.virt_fc_over_fs"] = r.modeRatio(total, "firecracker")
	m["core.virt_reap_over_fs"] = r.modeRatio(total, "reap")
}

// modeRatio is the geometric mean, over every cell of mode that has a
// FaaSnap twin, of the cell's virtual total over the twin's; 0 when the
// workload has no such pair.
func (r *runner) modeRatio(total map[string]float64, mode string) float64 {
	var ratios []float64
	for _, c := range r.in.cells {
		if c.Mode != mode {
			continue
		}
		twin := c
		twin.Mode = "faasnap"
		if a, b := total[c.key()], total[twin.key()]; a > 0 && b > 0 {
			ratios = append(ratios, a/b)
		}
	}
	return geomean(ratios)
}

// attribution turns the traced ops' spans into the per-layer numbers
// and checks that they add up.
func (t *tracer) attribution(viaGateway bool, m measured) (notes []string) {
	l := t.log
	handler := l.typical("daemon.handler")
	restore, agent := l.typical("vmm.restore"), l.typical("guestagent.invoke")
	sim := l.typical("core.invoke")
	if burst := l.typical("core.burst"); burst > 0 {
		sim = burst
		perVM := map[int][]float64{}
		for _, s := range l.spans {
			if s.Name == "core.burst" {
				perVM[s.cell] = append(perVM[s.cell], ms(s.dur())/float64(t.cells[s.cell].Parallel))
			}
		}
		m["core.burst_ms_per_vm"] = perCellMedian(perVM)
	}
	m["daemon.handler_ms"] = handler
	m["vmm.restore_ms"] = restore
	m["guestagent.invoke_ms"] = agent
	m["core.invoke_ms"] = sim
	for _, mode := range paperModes {
		byCell := map[int][]float64{}
		for _, s := range l.spans {
			if s.Name == "core.invoke" && t.cells[s.cell].Mode == mode {
				byCell[s.cell] = append(byCell[s.cell], ms(s.dur()))
			}
		}
		m["core.invoke_ms."+mode] = perCellMedian(byCell)
	}
	if untraced := l.typical("core.invoke_untraced"); untraced > 0 {
		m["core.trace_overhead_ms"] = sim - untraced
	}
	m["core.invoke_alloc_mb"] = perCellMedian(t.allocMB)
	m["core.invoke_allocs"] = perCellMedian(t.allocs)
	m["obs.append_us"] = 1000 * l.typical("obs.append")
	m["trace.build_put_us"] = 1000 * l.typical("trace.build_put")
	m["telemetry.observe_us"] = 1000 * l.typical("telemetry.observe")

	via := l.typical("client.invoke")
	direct := via
	if viaGateway {
		direct = l.typical("client.direct")
		m["gateway.hop_ms"] = via - direct
	}
	m["daemon.http_transport_ms"] = direct - handler

	if handler > 0 {
		m["core.share"] = sim / handler
	}
	// Fidelity: the replay only explains the handler while it costs no
	// more than the handler does. Judged op by op, each replay against
	// the handler call it followed, so a slow spell of the box that
	// covers both cancels.
	excess, ops := l.replayExcess()
	if ops < minFidelityOps {
		notes = append(notes, fmt.Sprintf("%d traced ops: too few to check the replay against the handler (needs %d)", ops, minFidelityOps))
	} else if excess > replayTolerance {
		notes = append(notes, fmt.Sprintf(
			"replay drifted from the handler: replayed steps cost %.1f%% more than daemon.handler (median over ops, tolerance %.0f%%); daemon.self_ms withheld",
			100*excess, 100*replayTolerance))
		return notes
	}
	// Within the tolerance a slightly negative remainder is noise
	// around zero, not a finding.
	self := math.Max(0, handler-restore-agent-sim)
	m["daemon.self_ms"] = self
	if handler > 0 {
		m["daemon.self_share"] = self / handler
	}
	return notes
}

// replayExcess is the median over ops of (replayed steps / handler) - 1,
// the replayed steps being what the replay span's children cover, and
// the number of ops it was taken over.
func (l *spanLog) replayExcess() (float64, int) {
	handler := map[int]time.Duration{} // op -> daemon.handler
	kids := map[int][]span{}           // span id -> children
	for _, s := range l.spans {
		if s.Name == "daemon.handler" {
			handler[s.Op] = s.dur()
		}
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var ratios []float64
	for _, s := range l.spans {
		if h := handler[s.Op]; s.Name == "replay" && h > 0 {
			replayed := s.dur() - selfTime(s, kids[s.ID])
			ratios = append(ratios, float64(replayed)/float64(h)-1)
		}
	}
	return median(ratios), len(ratios)
}

// syncMetrics fills record-sync's write-side numbers.
func syncMetrics(w *window, m measured) {
	t := &w.sync
	m["daemon.record_ms"] = median(t.recordCalls)
	m["daemon.sync_ms"] = median(t.syncCalls)
	m["daemon.sync_ack_ms.lazy"] = median(t.lazyAcks)
	m["daemon.gc_ms"] = median(t.gcMs)
	if s := t.recordWall.Seconds(); s > 0 {
		m["daemon.record_mb_per_s"] = float64(t.recordBytes) / (1 << 20) / s
	}
	if s := t.syncWall.Seconds(); s > 0 {
		m["daemon.sync_mb_per_s"] = float64(t.syncBytes) / (1 << 20) / s
	}
	if len(t.recovers) > 0 {
		var total time.Duration
		secs := make([]float64, len(t.recovers))
		for i, d := range t.recovers {
			total += d
			secs[i] = d.Seconds()
		}
		m["daemon.recover_s"] = median(secs)
		m["daemon.recover_ms_per_fn"] = ms(total) / float64(t.recoveredFns)
	}
	m["casstore.dedup_ratio"] = t.dedupRatio
	if t.syncBytes > 0 {
		m["casstore.sync_fetch_ratio"] = float64(t.fetchedBytes) / float64(t.syncBytes)
	}
}

// scrapeMs is the median wall of rendering GET /metrics in-process.
func scrapeMs(n *node) float64 {
	var walls []float64
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		start := time.Now()
		n.handler.ServeHTTP(httptest.NewRecorder(), req)
		walls = append(walls, ms(time.Since(start)))
	}
	return median(walls)
}

// prefetchQuality is the count-weighted mean prefetch precision and
// recall over the flight recorders of the stack's daemons.
func prefetchQuality(nodes []*node) (precision, recall float64) {
	var sums []*obs.Summary
	for _, n := range nodes {
		rec := httptest.NewRecorder()
		n.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/profiles?summary=1", nil))
		var s obs.Summary
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &s) == nil {
			sums = append(sums, &s)
		}
	}
	var n float64
	for _, f := range obs.MergeSummaries(sums).Functions {
		c := float64(f.PrefetchCount)
		precision += f.PrefetchPrec * c
		recall += f.PrefetchRecall * c
		n += c
	}
	if n == 0 {
		return 0, 0
	}
	return precision / n, recall / n
}

// idleCPU is the process's CPU, in ms per second, while nothing but
// the stack's own background work (the gateway's sweep: five scrapes
// per backend per tick) runs.
func idleCPU(ctx context.Context, d time.Duration) float64 {
	cpu0, t0 := processCPU(), time.Now()
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
	return ms(processCPU()-cpu0) / time.Since(t0).Seconds()
}
