// Package events implements the cluster event ledger: a bounded,
// monotonically-sequenced ring of typed control-plane events with a
// non-blocking watch hub for NDJSON streaming.
//
// The ledger records what the control plane did while no request was
// in flight — breaker transitions, anti-entropy repairs, GC sweeps,
// chunk quarantines, recovery replay, chaos rule firings, SLO page
// conditions, and backend stale/converged transitions. Each event
// carries a sequence number that is monotonic per ledger (per daemon or
// per gateway); causal links between events are expressed as
// (cause_seq, cause_origin) pairs so a repair on the gateway can point
// at the manifest-deficit event on the daemon that triggered it.
package events

import (
	"encoding/json"
	"strconv"
	"sync"
	"time"

	"faasnap/internal/ring"
)

// Type enumerates the control-plane event kinds the ledger records.
type Type string

const (
	// BreakerTransition fires when a circuit breaker changes state
	// (daemon per-function breakers and gateway per-backend breakers).
	BreakerTransition Type = "breaker_transition"
	// ManifestDeficit fires when a daemon first observes (or the size
	// of) a chunk deficit for a registered function.
	ManifestDeficit Type = "manifest_deficit"
	// Repair fires on the gateway for each anti-entropy repair action.
	Repair Type = "repair"
	// Converged fires on the gateway when a previously-stale backend
	// returns to the converged set.
	Converged Type = "converged"
	// GCSweep fires after a chunk-store garbage collection pass.
	GCSweep Type = "gc_sweep"
	// ChunkQuarantine fires when the chunk store quarantines a
	// corrupted chunk.
	ChunkQuarantine Type = "chunk_quarantine"
	// SnapfileQuarantine fires when the daemon quarantines a corrupt
	// snapshot file.
	SnapfileQuarantine Type = "snapfile_quarantine"
	// RecoveryReplay fires after a daemon finishes replaying its
	// manifest journal at startup.
	RecoveryReplay Type = "recovery_replay"
	// ChaosInjected fires each time a chaos rule injects a fault.
	ChaosInjected Type = "chaos_injected"
	// SLOPage fires when a function's error budget enters or leaves
	// the page condition (fast and slow burn both above 1).
	SLOPage Type = "slo_page"
	// BackendStale fires when the gateway marks a backend stale;
	// Converged fires when it is clean again.
	BackendStale Type = "backend_stale"
)

// Millis formats d as a wall_ms field: milliseconds to the microsecond.
func Millis(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Microseconds())/1000, 'f', 3, 64)
}

// Event is one entry in the ledger. Seq is assigned by Append and is
// monotonic within one ledger; CauseSeq/CauseOrigin optionally link to
// the event (possibly on another host) that caused this one.
type Event struct {
	Seq         uint64            `json:"seq"`
	Type        Type              `json:"type"`
	Function    string            `json:"function,omitempty"`
	Origin      string            `json:"origin,omitempty"`
	CauseSeq    uint64            `json:"cause_seq,omitempty"`
	CauseOrigin string            `json:"cause_origin,omitempty"`
	TraceID     string            `json:"trace_id,omitempty"`
	UnixMs      int64             `json:"unix_ms"`
	Fields      map[string]string `json:"fields,omitempty"`
}

// DefaultRing is the ledger capacity when none is configured.
const DefaultRing = 1024

// Ledger is a bounded ring of events plus a watch hub (the embedded
// Hub: Subscribe, Unsubscribe, OnDrop, Done, Close). All
// methods are safe for concurrent use; Append never blocks on
// subscribers.
type Ledger struct {
	*Hub
	mu   sync.Mutex
	ring *ring.Ring[Event]
	next uint64 // next sequence number to assign (first is 1)
}

// NewLedger returns a ledger retaining at most capacity events.
// capacity <= 0 selects DefaultRing.
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultRing
	}
	return &Ledger{Hub: NewHub(lineDepth), ring: ring.New[Event](capacity)}
}

// Append stamps e with the next sequence number and the current time,
// stores it in the ring, publishes it to the watchers whose filter it
// passes, and returns the stamped event. It never blocks: slow
// subscribers lose lines. The event is encoded only when somebody is
// watching for it.
func (l *Ledger) Append(e Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	e.Seq = l.next
	if e.UnixMs == 0 {
		e.UnixMs = time.Now().UnixMilli()
	}
	l.ring.Push(e)
	if l.Watched(e.Type, e.Function) {
		if line, err := json.Marshal(e); err == nil {
			l.Publish(e.Type, e.Function, line)
		}
	}
	return e
}

// Since returns, oldest-first, the retained events with Seq > seq that
// match the optional type and function filters (empty string matches
// everything). The returned slice is a copy.
func (l *Ledger) Since(seq uint64, typ Type, function string) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	want := filter{typ, function}
	l.ring.Ascend(func(e Event) bool {
		if e.Seq > seq && want.passes(e.Type, e.Function) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// LastSeq returns the sequence number of the most recent event, or 0
// if none were appended yet.
func (l *Ledger) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Len returns the number of retained events.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}
