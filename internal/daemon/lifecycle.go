package daemon

// The lifecycle: the only code that changes a function's state. A
// function is registered (clean-booted VM, no snapshot), recorded or
// synced (a committed snapshot, published to readers), invalidated (its
// snapshot quarantined at recovery) and deleted; every one of those
// moves, and nothing else, runs here, between the index (what exists)
// and the store (its bytes). DESIGN.md, "Daemon: index, store,
// lifecycle", draws the state machine; RESILIENCE.md, "Crash consistency
// & recovery", tabulates what a crash after each step leaves behind.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/guestagent"
	"faasnap/internal/hostmm"
	"faasnap/internal/kvstore"
	"faasnap/internal/trace"
	"faasnap/internal/vmm"
	"faasnap/internal/workload"
)

// view is what serving and reporting read of a function: one immutable
// value, swapped whole by a commit, so the snapshot-load bodies encoded
// from arts never outlive them.
type view struct {
	name   string // the function's; the load bodies' paths carry it
	arts   *core.Artifacts
	chunks *chunkMap // nil without a persisted snapshot
	loads  loadBodies
}

// fnState is one managed function: the index's entry. Every field is
// written in this file only.
type fnState struct {
	spec *workload.Spec // fixed at construction
	pub  atomic.Pointer[view]

	// syncing admits one sync of the function at a time; mu serializes
	// its transitions. No reader takes either.
	syncing sync.Mutex
	mu      sync.Mutex

	// side guards what is not part of a commit: the long-lived VM and its
	// guest agent, the most recent invocation's fault timeline (kept raw;
	// GET /functions/{name}/faults encodes it on demand), and the chunk
	// deficit GET /status last saw with the seq of the manifest_deficit
	// event that announced it.
	side       sync.Mutex
	machine    *vmm.Machine
	agent      *guestagent.Agent
	lastFaults *hostmm.FaultTimeline
	deficitN   int
	deficitSeq uint64
}

func newFnState(spec *workload.Spec) *fnState {
	fs := &fnState{spec: spec}
	fs.pub.Store(new(view))
	return fs
}

// published returns what readers see of the function; never nil.
func (fs *fnState) published() *view { return fs.pub.Load() }

// guest returns the function's long-lived VM and its agent, nil for a
// function recovered or synced without a PUT.
func (fs *fnState) guest() (*vmm.Machine, *guestagent.Agent) {
	fs.side.Lock()
	defer fs.side.Unlock()
	return fs.machine, fs.agent
}

func (fs *fnState) faults() *hostmm.FaultTimeline {
	fs.side.Lock()
	defer fs.side.Unlock()
	return fs.lastFaults
}

func (fs *fnState) setFaults(tl *hostmm.FaultTimeline) {
	fs.side.Lock()
	fs.lastFaults = tl
	fs.side.Unlock()
}

// shutdown stops the function's VMM and guest agent once any transition
// in flight has finished.
func (fs *fnState) shutdown() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if m, a := fs.guest(); m != nil {
		m.Close()
		a.Close()
	}
}

// lifecycle moves functions between states. It is the only writer of
// fnState and the only one to swap its published view.
//
// Lock order, taken in transition and nowhere else: fs.syncing, then
// store.ops for reading, then fs.mu. fs.syncing keeps a function to one
// sync at a time, from sorting its missing chunks to its publish (it lives in the index's
// entry, so a delete reclaims it; syncs that race to create an entry are
// serialized by fs.mu alone); store.ops holds the GC sweep (its writer,
// store.sweep) and close off from the moment a chunk is counted present
// or made durable until the published chunk map references it; fs.mu
// serializes commits to one function and the driving of its VM. Readers
// take none of them: they load the view.
type lifecycle struct {
	env
	idx   *index
	store *store // nil without a state directory: nothing is persisted
	host  core.HostConfig
	kv    *kvstore.Client

	// bgCtx/bg halt and drain background work — gauge refreshes — on
	// close, and bgCtx also ends every sync's transfer, so no goroutine
	// writes into the state dir after shutdown.
	bgCtx  context.Context
	bgHalt context.CancelFunc
	bg     sync.WaitGroup
}

func (l *lifecycle) background(f func()) {
	l.bg.Add(1)
	go func() {
		defer l.bg.Done()
		f()
	}()
}

// close halts background work and the transfers of syncs in flight,
// waits for any record or sync still inside its transition (store.ops'
// write side), then stops every function's VMM and agent, then the
// journal — after recovery, which may still be appending.
func (l *lifecycle) close(recovered <-chan struct{}) {
	l.bgHalt()
	l.bg.Wait()
	if l.store != nil {
		l.store.ops.Lock()
		l.store.ops.Unlock()
		l.store.peer.CloseIdleConnections()
	}
	for _, fs := range l.idx.live() {
		fs.shutdown()
	}
	<-recovered
	l.idx.close()
}

// transition runs one state change of name under the locks of the
// lifecycle's order. stage, when given, runs before the function's own
// lock is taken (a sync's fetch must not hold up the function's other
// transitions); step runs on the entry, inserted for spec when a sync or
// a PUT meets an unknown name (see index.enter for what a failed step
// leaves).
func (l *lifecycle) transition(name string, spec *workload.Spec, serial bool, stage func() error, step func(*fnState) error) (*fnState, error) {
	if fs, ok := l.idx.lookup(name); ok && serial {
		fs.syncing.Lock()
		defer fs.syncing.Unlock()
	}
	if l.store != nil {
		l.store.ops.RLock()
		defer l.store.ops.RUnlock()
	}
	if stage != nil {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return l.idx.enter(name, spec, func(fs *fnState) error {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return step(fs)
	})
}

// commit is the one snapshot commit, shared by a local recording and a
// chunk-level sync from a peer: snapfile commit → read-back verify →
// journal → publish (RESILIENCE.md, "The snapshot commit"). The caller,
// inside transition, has made every chunk the snapshot references
// durable; save writes its snapfile, and input and generation are what
// the index journals (index.snapshot). A daemon without a store
// publishes the artifacts it was handed.
func (l *lifecycle) commit(fs *fnState, arts *core.Artifacts, save func(path string) error, input string, generation uint64) error {
	v := &view{name: fs.spec.Name, arts: arts}
	if l.store != nil {
		var err error
		if v.arts, v.chunks, err = l.store.writeSnapfile(fs.spec.Name, save); err != nil {
			return err
		}
		if err := l.idx.snapshot(fs, input, generation); err != nil {
			return fmt.Errorf("journal snapshot: %w", err)
		}
	}
	fs.pub.Store(v)
	return nil
}

// create registers name, booting its long-lived VM if it has none, and
// journals the registration before it is acknowledged.
func (l *lifecycle) create(name string, spec *workload.Spec) (*fnState, error) {
	return l.transition(name, spec, false, nil, func(fs *fnState) error {
		if m, _ := fs.guest(); m == nil {
			m, a, err := l.boot(name)
			if err != nil {
				return err
			}
			fs.side.Lock()
			fs.machine, fs.agent = m, a
			fs.side.Unlock()
			l.log.Printf("booted VM for %s (guest agent up)", name)
		}
		return l.idx.register(fs)
	})
}

// boot brings up a clean VM through the Firecracker-style API and the
// in-guest server that comes up with it. Any failure tears down whatever
// came up: a failed PUT may not leave a leaked VMM behind a 500.
func (l *lifecycle) boot(name string) (*vmm.Machine, *guestagent.Agent, error) {
	// Telemetry is attached before the first API call so the boot itself
	// is counted.
	m := vmm.Launch(name)
	m.SetTelemetry(l.telemetry)
	m.SetChaos(l.chaos)
	c := m.Client()
	err := c.SetMachineConfig(vmm.MachineConfig{VcpuCount: 2, MemSizeMib: 2048})
	if err != nil {
		err = fmt.Errorf("machine config: %w", err)
	} else if err = c.Start(); err != nil {
		err = fmt.Errorf("instance start: %w", err)
	}
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	// Invocation requests are forwarded to the in-guest server.
	a := guestagent.Start(name, func(req guestagent.InvokeRequest) (guestagent.InvokeReply, error) {
		return guestagent.InvokeReply{}, nil
	})
	a.SetTelemetry(l.telemetry)
	a.SetChaos(l.chaos)
	if err := a.Client().Health(); err != nil {
		a.Close()
		m.Close()
		return nil, nil, fmt.Errorf("guest agent: %w", err)
	}
	return m, a, nil
}

// delete tombstones name, then tears down what it had.
func (l *lifecycle) delete(name string) error {
	fs, err := l.idx.tombstone(name)
	if err != nil {
		return err
	}
	fs.shutdown()
	if l.store != nil {
		l.store.remove(name)
	}
	return nil
}

// recordSnapshot is the record phase on fs's long-lived VM in the
// paper's order (§5; RESILIENCE.md, "The record sequence"). It is the
// one owner of the sanitize and pause windows, so no early return
// leaves either open: a pause that succeeded is always followed by a
// resume, and a VM found Paused (an earlier resume itself failed) has
// its window closed by this record.
func (l *lifecycle) recordSnapshot(fs *fnState, in workload.Input) (arts *core.Artifacts, res core.RecordResult, err error) {
	machine, agent := fs.guest()
	sanitize := func(on bool) error {
		if agent == nil {
			return nil
		}
		return agent.Client().SetSanitize(on)
	}
	if err := sanitize(true); err != nil {
		return nil, res, fmt.Errorf("enable sanitizing: %w", err)
	}
	// Pure: nothing between the two toggles can fail.
	arts, res = core.Record(l.host, fs.spec, in)
	if err := sanitize(false); err != nil {
		return nil, res, fmt.Errorf("disable sanitizing: %w", err)
	}
	if machine == nil {
		return arts, res, nil
	}
	c := machine.Client()
	if machine.State() != vmm.StatePaused {
		if err := c.Pause(); err != nil {
			return nil, res, fmt.Errorf("pause: %w", err)
		}
	}
	defer func() {
		if rerr := c.Resume(); rerr != nil {
			err = errors.Join(err, fmt.Errorf("resume: %w", rerr))
		}
	}()
	if err := c.CreateSnapshot(vmm.SnapshotCreateRequest{
		SnapshotPath: fmt.Sprintf("/snapshots/%s.state", fs.spec.Name),
		MemFilePath:  fmt.Sprintf("/snapshots/%s.mem", fs.spec.Name),
	}); err != nil {
		return nil, res, fmt.Errorf("snapshot create: %w", err)
	}
	return arts, res, nil
}

// record runs the record phase of name with input in and commits the
// snapshot it produced. Readers keep the previous view until the commit
// publishes: an invoke never waits for a record.
func (l *lifecycle) record(name string, in workload.Input) (res core.RecordResult, err error) {
	_, err = l.transition(name, nil, false, nil, func(fs *fnState) error {
		var arts *core.Artifacts
		if arts, res, err = l.recordSnapshot(fs, in); err != nil {
			return err
		}
		l.storeInput(fs.spec, in)
		var save func(string) error
		if l.store != nil {
			if save, err = l.store.putSnapshot(arts); err != nil {
				return err
			}
		}
		// A new generation.
		return l.commit(fs, arts, save, in.Name, 0)
	})
	if err != nil {
		return res, err
	}
	core.ObserveRecord(l.telemetry, name, res)
	l.log.Printf("recorded %s input %s: ws=%d ls=%d regions=%d", name, in.Name, res.WSPages, res.LSPages, res.LSRegions)
	if l.store != nil {
		// Off the request, on the drain group close waits for.
		l.background(l.store.refreshDedup)
	}
	return res, nil
}

// SyncRequest is the body of POST /functions/{name}/sync.
type SyncRequest struct {
	// Eager is accepted and ignored: every sync holds every chunk before
	// it replies. The route decodes strictly, and older clients send it.
	Eager bool `json:"eager,omitempty"`
	// Source is the peer daemon ("host:port") holding the snapshot.
	Source string `json:"source"`
}

// SyncResponse reports one chunk-level restore. ChunksFetched and
// BytesFetched count what came from the source; ChunksBase counts
// chunks filled from the base image on this daemon.
type SyncResponse struct {
	Function      string `json:"function"`
	Source        string `json:"source"`
	ChunksTotal   int    `json:"chunks_total"`
	ChunksFetched int    `json:"chunks_fetched"`
	ChunksBase    int    `json:"chunks_base"`
	ChunksPresent int    `json:"chunks_present"`
	BytesTotal    int64  `json:"bytes_total"`
	BytesFetched  int64  `json:"bytes_fetched"`
	SnapfileBytes int64  `json:"snapfile_bytes"`
	// TraceID identifies the restore's waterfall trace (snapfile decode,
	// per-group eager fetches, commit) in GET /traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// sync restores a function this daemon may never have recorded, from a
// peer: fetch and decode the chunk map + raw snapfile, keep only the
// chunks missing locally, fill the base extents and fetch the rest, and
// commit — journaling the source's generation, not a new one. The
// transfer ends with the request's ctx or the daemon's close, whichever
// comes first. The restore leaves a waterfall trace under id.
func (l *lifecycle) sync(ctx context.Context, name string, req SyncRequest, id trace.ID) (SyncResponse, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(l.bgCtx, cancel)()
	plan, err := l.store.planFrom(ctx, name, req.Source)
	if err != nil {
		return SyncResponse{}, failf(http.StatusBadGateway, "%v", err)
	}
	var (
		groups                []*groupSpan
		base                  int
		fetched               int64
		decodeDur, commitFrom time.Duration
	)
	_, err = l.transition(name, plan.arts.Fn, true, func() error {
		l.store.sortMissing(plan)
		decodeDur = time.Since(start)
		l.store.syncSeconds("decode").Observe(decodeDur)
		if groups, base, fetched, err = l.store.fetch(ctx, req.Source, plan.arts, plan.missing, start); err != nil {
			return failf(http.StatusBadGateway, "fetch chunk: %v", err)
		}
		commitFrom = time.Since(start)
		l.store.syncSeconds("eager").Observe(commitFrom - decodeDur)
		return nil
	}, func(fs *fnState) error {
		// Chunks durable; commit the snapfile exactly as received, into the
		// entry the index already holds: a concurrent PUT's entry (and the
		// VM behind it) must survive.
		return l.commit(fs, nil, plan.save, plan.arts.RecordInput.Name, plan.generation)
	})
	if err != nil {
		return SyncResponse{}, err
	}
	commitDur := time.Since(start) - commitFrom
	l.store.syncSeconds("commit").Observe(commitDur)

	resp := SyncResponse{
		Function:      name,
		Source:        req.Source,
		ChunksTotal:   len(plan.cm.Refs),
		ChunksFetched: len(plan.missing) - base,
		ChunksBase:    base,
		ChunksPresent: plan.present,
		BytesTotal:    plan.cm.TotalBytes(),
		BytesFetched:  fetched,
		SnapfileBytes: int64(len(plan.raw)),
		TraceID:       string(id),
	}
	l.traces.Put(syncWaterfall(id, resp, time.Since(start), decodeDur, groups, commitFrom, commitDur))

	// Saved = bytes a whole-snapshot copy would have moved but this
	// restore did not: dedup hits and base fills.
	l.store.saved.Add(float64(resp.BytesTotal - resp.BytesFetched))
	l.store.syncs.Inc()
	// Off the request, as after a record.
	l.background(l.store.refreshDedup)
	l.log.Printf("synced %s from %s: %d/%d chunks fetched (%d base, %d present), %d of %d bytes",
		name, req.Source, resp.ChunksFetched, resp.ChunksTotal, resp.ChunksBase, resp.ChunksPresent,
		resp.BytesFetched, resp.BytesTotal)
	return resp, nil
}

// syncWaterfall assembles a restore's waterfall trace: decode → eager
// fetch per prefetch group (tier-labelled) → commit.
func syncWaterfall(id trace.ID, resp SyncResponse, wall, decodeDur time.Duration, groups []*groupSpan, commitStart, commitDur time.Duration) *trace.Trace {
	tb := trace.NewBuilder(id, "chunk-sync "+resp.Function)
	root := tb.Span("chunk-sync "+resp.Function, "", 0, wall, map[string]string{
		"function": resp.Function,
		"source":   resp.Source,
		"chunks":   strconv.Itoa(resp.ChunksTotal),
	})
	tb.Span("snapfile-decode", root, 0, decodeDur, map[string]string{
		"bytes": strconv.FormatInt(resp.SnapfileBytes, 10),
	})
	for _, g := range groups {
		tiers := make([]string, 0, len(g.tiers))
		for t := range g.tiers {
			tiers = append(tiers, t)
		}
		sort.Strings(tiers)
		tier := "none" // every chunk of the group was already present
		if len(tiers) > 0 {
			tier = strings.Join(tiers, ",")
		}
		tb.Span("eager-fetch", root, g.start, g.dur, map[string]string{
			"group":  strconv.FormatInt(g.group, 10),
			"tier":   tier,
			"chunks": strconv.Itoa(g.chunks),
			"bytes":  strconv.FormatInt(g.bytes, 10),
		})
	}
	tb.Span("commit", root, commitStart, commitDur, nil)
	return tb.Finish()
}

type gcRequest struct {
	// Demote moves live chunks outside every loading set to the
	// compressed cold tier.
	Demote bool `json:"demote"`
}

// gc runs the store's refcount sweep and leaves its event.
func (l *lifecycle) gc(demote bool) (GCResponse, error) {
	start := time.Now()
	res, err := l.store.sweep(demote)
	wall := time.Since(start)
	if err != nil {
		return GCResponse{}, fmt.Errorf("gc: %w", err)
	}
	l.store.gcSeconds().Observe(wall)
	tags := map[string]string{
		"examined": strconv.FormatInt(res.Kept+res.Removed, 10),
		"removed":  strconv.FormatInt(res.Removed, 10),
		"demoted":  strconv.FormatInt(res.Demoted, 10),
		"bytes":    strconv.FormatInt(res.ReclaimedBytes, 10),
		"wall_ms":  events.Millis(wall),
	}
	l.events.Append(events.Event{Type: events.GCSweep, Fields: tags})
	l.log.Printf("cas gc: removed %d chunks (%d bytes), kept %d, demoted %d in %s",
		res.Removed, res.ReclaimedBytes, res.Kept, res.Demoted, wall)
	st, dedup := l.store.stats()
	return GCResponse{
		GCResult:       res,
		ChunksExamined: res.Kept + res.Removed,
		WallMs:         ms(wall),
		Stats:          st,
		DedupRatio:     dedup,
	}, nil
}

// observeDeficit counts the refs of name's chunk map that neither tier
// of the local store can serve — missing, so only an anti-entropy
// re-sync brings them back — and returns the count GET /status reports
// with the seq of the manifest_deficit event announcing it. It is the
// one write a read performs: a deficit is announced when it first
// appears or its size changes; clearing to zero forgets the episode, so
// the next is announced afresh.
func (l *lifecycle) observeDeficit(name string) (missing int, seq uint64) {
	fs, ok := l.idx.lookup(name)
	if !ok {
		return 0, 0
	}
	v := fs.published()
	if v.chunks == nil {
		return 0, 0
	}
	missing = l.store.absent(v.chunks)
	fs.side.Lock()
	defer fs.side.Unlock()
	if missing != fs.deficitN {
		fs.deficitN, fs.deficitSeq = missing, 0
		if missing > 0 {
			fs.deficitSeq = l.events.Append(events.Event{
				Type:     events.ManifestDeficit,
				Function: name,
				Fields:   map[string]string{"chunks_missing": strconv.Itoa(missing)},
			}).Seq
		}
	}
	return missing, fs.deficitSeq
}

// recover rebuilds the registry from the journal: it re-deploys verified
// snapfiles, invalidates anything inconsistent, and sweeps what no
// journal record claims. It runs exactly once per daemon, before the
// registry is authoritative.
func (l *lifecycle) recover() {
	start := time.Now()
	if rec := l.idx.opened; rec.TornBytes > 0 {
		l.telemetry.Counter("faasnap_manifest_torn_total",
			"Manifest journals found with a torn or corrupt tail at recovery.", nil).Inc()
		l.log.Printf("manifest recovery: truncated %d torn tail bytes (evidence: %s)", rec.TornBytes, rec.Evidence)
	}
	for _, e := range l.idx.journaled() {
		// Catalog functions resolve by name, custom ones from their
		// journaled SpecConfig JSON.
		spec, err := workload.ByName(e.Name)
		if e.Spec != "" {
			spec, err = workload.ParseSpec([]byte(e.Spec))
		}
		if err != nil {
			l.log.Printf("recovery: cannot resolve spec for %s: %v", e.Name, err)
			continue
		}
		fs := newFnState(spec)
		if e.HasSnapshot {
			// A snapfile is only servable if its eager tier is intact:
			// every loading-set chunk must be present in the store.
			if arts, cm, err := l.store.load(e.Name); err != nil {
				l.invalidate(e.Name, err)
			} else {
				fs.pub.Store(&view{name: spec.Name, arts: arts, chunks: cm})
				l.log.Printf("reloaded snapshot for %s (%d WS pages, generation %d)", e.Name, arts.WS.Pages(), e.Generation)
			}
		}
		l.idx.restore(fs)
	}
	replayDone := time.Since(start)
	l.store.sweepDir(func(fn string) bool {
		e, ok := l.idx.entry(fn)
		return ok && !e.Deleted && e.HasSnapshot
	})
	sweepDone := time.Since(start)
	l.store.recoverySweep()
	wall := time.Since(start)
	l.telemetry.Histogram("faasnap_recovery_replay_seconds",
		"Wall time of manifest replay and state re-deployment at daemon start.", nil).Observe(wall)

	// The replay leaves a waterfall trace: manifest replay, state-dir
	// sweep, chunk-store sweep — the startup counterpart of the restore
	// waterfall.
	functions := strconv.Itoa(len(l.idx.live()))
	tid := l.traces.NextID()
	b := trace.NewBuilder(tid, "recovery-replay")
	root := b.Span("recovery-replay", "", 0, wall, map[string]string{"functions": functions})
	b.Span("manifest-replay", root, 0, replayDone, nil)
	b.Span("statedir-sweep", root, replayDone, sweepDone-replayDone, nil)
	b.Span("cas-sweep", root, sweepDone, wall-sweepDone, nil)
	l.traces.Put(b.Finish())

	l.events.Append(events.Event{
		Type:    events.RecoveryReplay,
		TraceID: string(tid),
		Fields: map[string]string{
			"functions": functions,
			"wall_ms":   events.Millis(wall),
		},
	})
	digest, _ := l.idx.status()
	l.log.Printf("recovery complete: %s functions, manifest digest %s", functions, digest)
}

// invalidate takes a snapshot that failed verification out of service:
// the acknowledged registration survives, the snapfile is quarantined
// and must never be served, and the loss is journaled at the generation
// it had.
func (l *lifecycle) invalidate(name string, cause error) {
	l.store.quarantine(name+".snap", cause)
	if err := l.idx.invalidate(name); err != nil {
		l.log.Printf("recovery: journal invalidate %s: %v", name, err)
	}
}
