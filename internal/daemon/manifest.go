package daemon

// Crash-consistent durable state: the daemon journals every
// acknowledged registration, snapshot recording, and delete to the
// state directory's manifest (internal/statedir) and recovers from it
// on start. Recovery replays the manifest, re-deploys verified
// snapfiles, quarantines anything inconsistent (corrupt snapfiles,
// orphans from a crash between snapfile commit and journal append),
// and holds readiness in a `recovering` state until the registry
// matches the manifest. See RESILIENCE.md, "Crash consistency & recovery".

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/snapfile"
	"faasnap/internal/statedir"
	"faasnap/internal/trace"
	"faasnap/internal/workload"
)

// WaitRecovered blocks until recovery completes (immediately for a
// daemon without a state dir, or one built with synchronous recovery).
func (d *Daemon) WaitRecovered() { <-d.recovered }

// gateRecovering rejects a request while recovery is in flight, with
// the same Retry-After contract as admission shed: the state the
// request would read or mutate is not yet authoritative.
func (d *Daemon) gateRecovering(w http.ResponseWriter) bool {
	if !d.recovering.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "daemon recovering: manifest replay in progress; retry shortly")
	return true
}

// recover rebuilds the registry from the manifest. It runs exactly
// once per daemon (synchronously inside New, or in the background with
// Config.AsyncRecovery) and flips recovering off when the registry is
// authoritative.
func (d *Daemon) recoverState(rec *statedir.Recovery) {
	start := time.Now()
	defer func() {
		d.recovering.Store(false)
		close(d.recovered)
	}()
	if rec.TornBytes > 0 {
		d.telemetry.Counter("faasnap_manifest_torn_total",
			"Manifest journals found with a torn or corrupt tail at recovery.", nil).Inc()
		d.log.Printf("manifest recovery: truncated %d torn tail bytes (evidence: %s)", rec.TornBytes, rec.Evidence)
	}
	for _, e := range d.manifest.Live() {
		// Catalog functions resolve by name, custom ones from their
		// journaled SpecConfig JSON.
		spec, err := workload.ByName(e.Name)
		if e.Spec != "" {
			spec, err = workload.ParseSpec([]byte(e.Spec))
		}
		if err != nil {
			d.log.Printf("recovery: cannot resolve spec for %s: %v", e.Name, err)
			continue
		}
		fs := &fnState{spec: spec}
		if e.HasSnapshot {
			arts, cm, err := d.loadSnapfile(e.Name)
			if err == nil {
				// A snapfile is only servable if its eager tier is intact:
				// every loading-set chunk must be present in the store.
				// Missing lazy chunks are tolerated — they refetch on demand
				// or via anti-entropy.
				err = d.verifyChunks(e.Name, cm)
			}
			if err != nil {
				// The acknowledged registration survives; the snapshot is
				// unusable and must never be served. Quarantine it and
				// journal the loss — at the generation it had — so GET
				// /status tells the gateway this host needs the snapshot
				// re-replicated.
				d.quarantine(filepath.Join(d.cfg.StateDir, e.Name+".snap"), err)
				if ierr := d.manifest.Invalidate(e.Name); ierr != nil {
					d.log.Printf("recovery: journal invalidate %s: %v", e.Name, ierr)
				}
			} else {
				fs.arts = arts
				fs.chunks = cm
				d.log.Printf("reloaded snapshot for %s (%d WS pages, generation %d)", e.Name, arts.WS.Pages(), e.Generation)
			}
		}
		d.reg.set(e.Name, fs)
	}
	replayDone := time.Since(start)
	d.sweepStateDir()
	sweepDone := time.Since(start)
	d.casRecoverySweep()
	wall := time.Since(start)
	d.telemetry.Histogram("faasnap_recovery_replay_seconds",
		"Wall time of manifest replay and state re-deployment at daemon start.", nil).Observe(wall)

	// The replay leaves a waterfall trace: manifest replay, state-dir
	// sweep, chunk-store sweep — the startup counterpart of the restore
	// waterfall.
	tid := d.traces.NextID()
	b := trace.NewBuilder(tid, "recovery-replay")
	root := b.Span("recovery-replay", "", 0, wall, map[string]string{
		"functions": strconv.Itoa(d.reg.size()),
	})
	b.Span("manifest-replay", root, 0, replayDone, nil)
	b.Span("statedir-sweep", root, replayDone, sweepDone-replayDone, nil)
	b.Span("cas-sweep", root, sweepDone, wall-sweepDone, nil)
	d.traces.Put(b.Finish())

	d.publishEvent(events.Event{
		Type:    events.RecoveryReplay,
		TraceID: string(tid),
		Fields: map[string]string{
			"functions": strconv.Itoa(d.reg.size()),
			"wall_ms":   strconv.FormatInt(wall.Milliseconds(), 10),
		},
	})
	d.log.Printf("recovery complete: %d functions, manifest digest %s", d.reg.size(), d.manifest.Digest())
}

// loadSnapfile reads and verifies one function's snapfile in a single
// streaming pass (chunk map included), applying any armed
// chaos storage fault (the injected-corruption path the resilience
// tests drive).
func (d *Daemon) loadSnapfile(name string) (*core.Artifacts, *snapfile.ChunkMap, error) {
	path := filepath.Join(d.cfg.StateDir, name+".snap")
	fault := snapfile.FaultNone
	switch dec := d.chaos.Eval(chaos.PointSnapfile, name+".snap"); {
	case dec.Is(chaos.KindCorrupt):
		fault = snapfile.FaultCorrupt
	case dec.Is(chaos.KindTruncate):
		fault = snapfile.FaultTruncate
	}
	return snapfile.LoadChunkedWithFault(path, fault)
}

// specJSON is the journaled form of a function's spec: the defining
// SpecConfig for custom functions, empty for catalog ones (resolved by
// name at recovery).
func specJSON(spec *workload.Spec) string {
	if spec.Origin == nil {
		return ""
	}
	raw, err := json.Marshal(spec.Origin)
	if err != nil {
		return ""
	}
	return string(raw)
}

// commitSnapshot is the one snapshot commit, shared by a local
// recording and a chunk-level sync from a peer: snapfile commit →
// read-back verify → journal → publish, passing record.post-chunks and
// record.pre-journal on the way. RESILIENCE.md ("The snapshot commit")
// tabulates what is durable at each crashpoint and what recovery does
// with it.
//
// The caller has made every chunk the snapshot references durable and
// holds fs.mu (commits to one function serialize) inside casOps.RLock
// (the GC sweep cannot collect those chunks before the chunk map is
// published). save commits the snapfile to the path it is given — an
// encode of the recorded artifacts, or a peer's raw bytes; journal
// appends the commit's one manifest record — a recording mints a
// generation, a sync adopts its source's. What is read back is what
// gets deployed, so what serves is exactly what disk holds; a snapshot
// that cannot pass its own checksum is quarantined.
func (d *Daemon) commitSnapshot(fs *fnState, save func(path string) error, journal func() error) error {
	name := fs.spec.Name
	chaos.MaybeCrash(chaos.CrashRecordPostChunks)
	path := filepath.Join(d.cfg.StateDir, name+".snap")
	if err := save(path); err != nil {
		return fmt.Errorf("persist snapshot: %w", err)
	}
	arts, chunks, err := snapfile.LoadChunked(path)
	if err != nil {
		d.quarantine(path, err)
		return fmt.Errorf("snapshot failed verification: %w", err)
	}
	chaos.MaybeCrash(chaos.CrashRecordPreJournal)
	if err := journal(); err != nil {
		return fmt.Errorf("journal snapshot: %w", err)
	}
	fs.arts, fs.chunks = arts, chunks
	return nil
}

// acknowledgeCommit replies to the request whose snapshot commitSnapshot
// just committed. A crash from here on (record.post-reply) must recover
// the snapshot intact.
func acknowledgeCommit(w http.ResponseWriter, reply interface{}) {
	writeJSON(w, http.StatusOK, reply)
	chaos.MaybeCrash(chaos.CrashRecordPostReply)
}

// sweepStateDir removes leftover temp files and quarantines orphan
// snapfiles — a .snap with no manifest record was committed by a
// writer that died before journaling, i.e. an unacknowledged write.
func (d *Daemon) sweepStateDir() {
	entries, err := os.ReadDir(d.cfg.StateDir)
	if err != nil {
		d.log.Printf("state dir sweep: %v", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Temp files are mid-write by definition: never acknowledged,
			// safe to drop.
			_ = os.Remove(filepath.Join(d.cfg.StateDir, name))
			continue
		}
		if !strings.HasSuffix(name, ".snap") {
			continue
		}
		fn := strings.TrimSuffix(name, ".snap")
		if me, ok := d.manifest.Get(fn); !ok || me.Deleted || !me.HasSnapshot {
			d.quarantine(filepath.Join(d.cfg.StateDir, name),
				fmt.Errorf("snapfile %s has no manifest record (crash between snapshot commit and journal append)", fn))
		}
	}
}

// StatusFunction is one function's durable journal state plus where its
// chunk map stands against the local chunk store.
type StatusFunction struct {
	statedir.Entry
	// ChunksPending counts chunk-map refs a live background fetcher
	// still owes: absent for now, and somebody's job.
	ChunksPending int `json:"chunks_pending,omitempty"`
	// ChunksMissing counts refs absent from both tiers and owned by
	// nobody — abandoned after retries, lost out of band, or found at
	// recovery. Non-zero tells the gateway's anti-entropy pass this
	// replica needs an eager chunk re-sync from a complete copy.
	ChunksMissing int `json:"chunks_missing,omitempty"`
	// DeficitSeq is the ledger seq of the manifest_deficit event that
	// announced ChunksMissing; the gateway links its repair event back to
	// it as cause_seq, making the causality chain resolvable across
	// daemons.
	DeficitSeq uint64 `json:"deficit_seq,omitempty"`
}

// StatusResponse is GET /status: everything the gateway's sweep asks a
// backend, in one answer — the routing verdict /readyz probes, the load
// the admission limiter and in-flight counter hold, and the durable-
// state summary anti-entropy compares across replicas (omitted by a
// daemon without a state dir).
type StatusResponse struct {
	Ready         bool             `json:"ready"`
	Reasons       []string         `json:"reasons,omitempty"`
	Recovering    bool             `json:"recovering"`
	InFlight      int64            `json:"inflight"`
	AdmissionUsed int64            `json:"admission_used"`
	AdmissionMax  int64            `json:"admission_max"`
	Digest        string           `json:"digest,omitempty"`
	Functions     []StatusFunction `json:"functions,omitempty"`
}

// handleStatus always answers 200: not-ready is a fact to report, not
// a failure to answer. It serves during recovery — the journal is fully
// replayed before any handler runs; only snapfile re-deployment is
// still in flight — so a gateway can see what a recovering backend
// will hold.
func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	reasons := d.notReady()
	resp := StatusResponse{
		Ready:      len(reasons) == 0,
		Reasons:    reasons,
		Recovering: d.recovering.Load(),
		// Not counting this request.
		InFlight:      d.inFlight.Load() - 1,
		AdmissionUsed: d.limiter.InFlight(),
		AdmissionMax:  d.limiter.Max(),
	}
	if d.manifest != nil {
		resp.Digest = d.manifest.Digest()
		for _, e := range d.manifest.Entries() {
			sf := StatusFunction{Entry: e}
			if !e.Deleted && e.HasSnapshot {
				sf.ChunksPending, sf.ChunksMissing, sf.DeficitSeq = d.chunkDeficit(e.Name)
			}
			resp.Functions = append(resp.Functions, sf)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
