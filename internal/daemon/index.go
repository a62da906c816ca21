package daemon

// The index: which functions exist, and at which generation. It owns the
// in-memory registry and the durable journal beside it
// (internal/statedir) and is the only code that touches either, so
// whether a function exists is one fact — the journal's, mirrored by the
// registry — kept in step here and nowhere else. A daemon without a
// state directory has no journal; that is decided once, in this file.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"faasnap/internal/statedir"
	"faasnap/internal/workload"
)

type index struct {
	// reg maps function name -> *fnState. A sync.Map, so the invoke hot
	// path's lookup is an atomic read that no registration, delete or
	// list can stall.
	reg sync.Map
	// journal is nil on a daemon without a state directory: nothing is
	// journaled and every function lives as long as the process.
	journal *statedir.Manifest
	// opened is what opening the journal found and repaired.
	opened *statedir.Recovery
}

// openIndex opens the index over stateDir's journal; "" is a daemon
// that journals nothing.
func openIndex(stateDir string) (*index, error) {
	x := &index{}
	if stateDir == "" {
		return x, nil
	}
	var err error
	x.journal, x.opened, err = statedir.Open(stateDir)
	return x, err
}

func (x *index) close() {
	if x.journal != nil {
		_ = x.journal.Close()
	}
}

// lookup is the invoke hot path's read: one atomic load.
func (x *index) lookup(name string) (*fnState, bool) {
	v, ok := x.reg.Load(name)
	fs, _ := v.(*fnState)
	return fs, ok
}

// live returns every registered function, sorted by name so list
// responses are deterministic. Tombstoned functions are not among them.
func (x *index) live() []*fnState {
	var out []*fnState
	x.reg.Range(func(_, v any) bool {
		out = append(out, v.(*fnState))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].spec.Name < out[j].spec.Name })
	return out
}

// chunkMaps returns every live function's published chunk map: the
// store's liveness set and its logical size.
func (x *index) chunkMaps() []*chunkMap {
	var out []*chunkMap
	for _, fs := range x.live() {
		if cm := fs.published().chunks; cm != nil {
			out = append(out, cm)
		}
	}
	return out
}

// enter returns name's entry, first inserting one for spec when the
// name is unknown, and runs step on it — the lifecycle's transition,
// which ends by journaling what it did. A step that fails on an entry
// this call inserted takes the entry out again unless the journal holds
// the function live: the registry mirrors the journal, and a failed
// request may not leave an unjournaled, machine-less entry behind. The
// rollback removes only the entry this call inserted, never one a
// concurrent PUT put in its place. With a nil spec the function must
// already exist. When two calls race to insert, both may build an entry
// and one is dropped unpublished.
func (x *index) enter(name string, spec *workload.Spec, step func(*fnState) error) (*fnState, error) {
	fs, existed := x.lookup(name)
	if !existed && spec == nil {
		return nil, errNotRegistered
	}
	if !existed {
		v, loaded := x.reg.LoadOrStore(name, newFnState(spec))
		fs, existed = v.(*fnState), loaded
	}
	err := step(fs)
	if err != nil && !existed {
		if e, ok := x.entry(name); !ok || e.Deleted {
			x.reg.CompareAndDelete(name, fs)
		}
	}
	return fs, err
}

// register journals fs's registration, spec-only registrations
// included: a crash after the append must still recover the function.
// Registering an unchanged spec again appends nothing and keeps the
// generation.
func (x *index) register(fs *fnState) error {
	if x.journal == nil {
		return nil
	}
	if _, err := x.journal.Register(fs.spec.Name, specJSON(fs.spec)); err != nil {
		return fmt.Errorf("journal registration: %w", err)
	}
	return nil
}

// errTombstoned refuses a synced copy of a function deleted here at a
// generation its source's does not outrank: the acknowledged delete
// stands.
var errTombstoned = failf(http.StatusConflict, "deleted here at a generation the source's does not outrank")

// snapshot journals fs's committed snapshot: a local recording
// (generation 0) mints a generation, one synced from a peer adopts that
// peer's, never a new one. Reached only through a snapshot commit, which
// a daemon without a journal does not persist.
func (x *index) snapshot(fs *fnState, input string, generation uint64) error {
	if generation != 0 {
		err := x.journal.Adopt(fs.spec.Name, specJSON(fs.spec), input, generation)
		if errors.Is(err, statedir.ErrTombstoned) {
			return errTombstoned
		}
		return err
	}
	_, err := x.journal.Record(fs.spec.Name, input)
	return err
}

// invalidate journals the loss of name's snapshot at the generation it
// had, so GET /status tells the gateway this host needs it re-replicated.
func (x *index) invalidate(name string) error { return x.journal.Invalidate(name) }

// tombstone journals name's delete and takes it out of the registry.
// The journal comes first: once the delete is acknowledged a restart
// must not resurrect the function, and generations keep climbing across
// the tombstone so re-registers are ordered after it. A crash right
// after the append leaves the snapfile behind; recovery sweeps it into
// quarantine off the tombstone.
func (x *index) tombstone(name string) (*fnState, error) {
	if _, ok := x.lookup(name); !ok {
		return nil, errNotRegistered
	}
	if x.journal != nil {
		if _, err := x.journal.Delete(name); err != nil {
			return nil, fmt.Errorf("journal delete: %w", err)
		}
	}
	v, ok := x.reg.LoadAndDelete(name)
	if !ok {
		return nil, errNotRegistered
	}
	return v.(*fnState), nil
}

// entry returns name's journaled state, tombstones included.
func (x *index) entry(name string) (statedir.Entry, bool) {
	if x.journal == nil {
		return statedir.Entry{}, false
	}
	return x.journal.Get(name)
}

// status is the durable-state summary GET /status reports: the journal's
// digest and every entry, live and tombstoned. Empty without a journal.
func (x *index) status() (digest string, fns []StatusFunction) {
	if x.journal == nil {
		return "", nil
	}
	for _, e := range x.journal.Entries() {
		fns = append(fns, StatusFunction{Entry: e})
	}
	return x.journal.Digest(), fns
}

// journaled returns the journal's live entries, the set recovery
// re-deploys; restore installs one of them in the registry.
func (x *index) journaled() []statedir.Entry { return x.journal.Live() }

func (x *index) restore(fs *fnState) { x.reg.Store(fs.spec.Name, fs) }

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

// StatusFunction is one function's durable journal state plus where its
// chunk map stands against the local chunk store.
type StatusFunction struct {
	statedir.Entry
	// ChunksMissing counts refs absent from both tiers — quarantined on
	// read or lost out of band with their pack. Non-zero tells the
	// gateway's anti-entropy pass this replica needs a chunk re-sync from
	// a complete copy.
	ChunksMissing int `json:"chunks_missing,omitempty"`
	// DeficitSeq is the ledger seq of the manifest_deficit event that
	// announced ChunksMissing; the gateway links its repair event back to
	// it as cause_seq, making the causality chain resolvable across
	// daemons.
	DeficitSeq uint64 `json:"deficit_seq,omitempty"`
}
