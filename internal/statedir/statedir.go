// Package statedir is the daemon's crash-consistent durable state
// layer: a fsync-disciplined, CRC-framed, append-only manifest that
// records every function registration, snapshot recording, and delete
// the daemon has acknowledged. The snapshot files on disk *are* the
// FaaS platform — every warm invocation deploys from them — so the
// manifest is the source of truth a restarted daemon recovers from:
// replaying it rebuilds the registry exactly as acknowledged, detects
// torn tail writes from a crash mid-append, and carries the
// per-function generation numbers the gateway's anti-entropy sweep
// compares across replicas. A generation counts acknowledged client
// mutations — register, record, delete; invalidate and sync do not
// mint: losing a snapshot leaves the version where it was, and a copy
// pulled from a peer takes the version of what it is a copy of.
//
// Durability discipline:
//
//   - every appended record is a framed payload (magic, length, CRC-32
//     of the payload) written and fsynced before the daemon replies;
//   - compaction rewrites the whole log to a temp file, fsyncs it,
//     renames it over the log, and fsyncs the parent directory — the
//     same durable write (atomicfile.Write) snapfile commits use;
//   - recovery accepts a torn or corrupt tail (the crash window is
//     exactly one unacknowledged record), truncates it, and preserves
//     the torn bytes under quarantine/ as evidence; it never serves a
//     record that fails its CRC.
package statedir

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"

	"faasnap/internal/atomicfile"
)

const (
	// ManifestName is the journal's file name inside the state dir.
	ManifestName = "manifest.log"
	// frameMagic marks the start of every record frame ("FSML").
	frameMagic = 0x4c4d5346
	// maxPayload guards replay against corrupt length fields.
	maxPayload = 1 << 20
	// compactSlack: compaction triggers when the records appended since
	// open exceed 4x the live entries plus this slack, keeping the log
	// O(live set) without rewriting it on every delete.
	compactSlack = 64
)

// Op is a manifest record's operation.
type Op string

const (
	// OpRegister registers a function (spec-only; no snapshot yet).
	OpRegister Op = "register"
	// OpRecord marks a recorded snapshot committed to disk.
	OpRecord Op = "record"
	// OpInvalidate clears a function's snapshot (quarantined at
	// recovery) while keeping the registration and the generation.
	OpInvalidate Op = "invalidate"
	// OpDelete tombstones a function. Tombstones are retained so a
	// rejoined replica cannot resurrect a deleted function.
	OpDelete Op = "delete"
	// OpEntry sets a function's full entry verbatim: compaction emits
	// one per entry so a compacted log replays to the identical state,
	// and a sync journals the entry it adopted from its source.
	OpEntry Op = "entry"
)

// record is one journal record's JSON payload.
type record struct {
	Op    Op     `json:"op"`
	Name  string `json:"name"`
	Gen   uint64 `json:"gen"`
	Spec  string `json:"spec,omitempty"`
	Input string `json:"input,omitempty"`
	// Snap carries HasSnapshot for OpEntry records.
	Snap bool `json:"snap,omitempty"`
	// Del carries Deleted for OpEntry records.
	Del bool `json:"del,omitempty"`
}

// Entry is one function's durable state. Deleted entries (tombstones)
// are retained and reported so replicas can distinguish "never had it"
// from "deleted it at generation G".
type Entry struct {
	Name        string `json:"name"`
	Generation  uint64 `json:"generation"`
	Deleted     bool   `json:"deleted,omitempty"`
	HasSnapshot bool   `json:"has_snapshot,omitempty"`
	RecordInput string `json:"record_input,omitempty"`
	// Spec is the defining SpecConfig JSON for custom functions, empty
	// for catalog functions (resolved by name).
	Spec string `json:"spec,omitempty"`
}

// Recovery reports what Open found and repaired.
type Recovery struct {
	// Created is true when no manifest existed (first boot) and a fresh
	// one was created.
	Created bool
	// Replayed counts the records applied.
	Replayed int
	// TornBytes is the size of the invalid tail truncated from the
	// journal, 0 for a clean log.
	TornBytes int
	// Evidence is where the torn tail was preserved, when TornBytes>0.
	Evidence string
}

// Manifest is the open journal plus its replayed in-memory state.
type Manifest struct {
	mu      sync.Mutex
	path    string
	f       atomicfile.File
	entries map[string]*Entry
	// appends counts records written since open/compaction.
	appends int
}

// Open replays (creating if absent) the manifest in dir. The returned
// Recovery says whether a torn tail was truncated; its evidence file
// lives under dir/quarantine/.
func Open(dir string) (*Manifest, *Recovery, error) {
	if err := atomicfile.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	m := &Manifest{
		path:    filepath.Join(dir, ManifestName),
		entries: make(map[string]*Entry),
	}
	rec := &Recovery{}
	raw, err := atomicfile.ReadFile(m.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rec.Created = true
	case err != nil:
		return nil, nil, fmt.Errorf("statedir: read manifest: %w", err)
	default:
		good, replayed, perr := m.replay(raw)
		rec.Replayed = replayed
		if good < len(raw) {
			// The tail is torn (crash mid-append) or corrupt. Everything
			// past the last valid frame was never acknowledged; preserve
			// it as evidence and truncate the journal back to the good
			// prefix so the next append starts on a frame boundary.
			rec.TornBytes = len(raw) - good
			rec.Evidence, _ = atomicfile.Quarantine(dir, "manifest.torn", "", raw[good:])
			if err := atomicfile.Truncate(m.path, int64(good)); err != nil {
				return nil, nil, fmt.Errorf("statedir: truncate torn tail: %w", err)
			}
			_ = perr // the torn tail is expected after a crash; evidence preserved
		}
	}
	if rec.Created {
		// Make the journal's existence itself durable before anything
		// is acknowledged against it.
		if err := atomicfile.Write(m.path, func(io.Writer) error { return nil }); err != nil {
			return nil, nil, fmt.Errorf("statedir: create manifest: %w", err)
		}
	}
	f, err := atomicfile.OpenAppend(m.path)
	if err != nil {
		return nil, nil, fmt.Errorf("statedir: open manifest: %w", err)
	}
	m.f = f
	return m, rec, nil
}

// replay applies every valid frame in raw, returning the byte offset
// of the first invalid frame (== len(raw) for a clean log), the count
// of applied records, and what was wrong with the first invalid frame.
func (m *Manifest) replay(raw []byte) (int, int, error) {
	off, applied := 0, 0
	for off < len(raw) {
		if len(raw)-off < 12 {
			return off, applied, io.ErrUnexpectedEOF
		}
		if binary.LittleEndian.Uint32(raw[off:]) != frameMagic {
			return off, applied, fmt.Errorf("bad frame magic at offset %d", off)
		}
		n := binary.LittleEndian.Uint32(raw[off+4:])
		if n == 0 || n > maxPayload {
			return off, applied, fmt.Errorf("bad frame length %d at offset %d", n, off)
		}
		if len(raw)-off-12 < int(n) {
			return off, applied, io.ErrUnexpectedEOF
		}
		wantCRC := binary.LittleEndian.Uint32(raw[off+8:])
		payload := raw[off+12 : off+12+int(n)]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return off, applied, fmt.Errorf("frame CRC mismatch at offset %d", off)
		}
		var r record
		if err := json.Unmarshal(payload, &r); err != nil {
			return off, applied, fmt.Errorf("frame payload at offset %d: %w", off, err)
		}
		if err := m.apply(r); err != nil {
			return off, applied, err
		}
		off += 12 + int(n)
		applied++
	}
	return off, applied, nil
}

// apply folds one record into the in-memory state.
func (m *Manifest) apply(r record) error {
	if r.Name == "" {
		return fmt.Errorf("record with empty name")
	}
	e := m.entries[r.Name]
	if e == nil {
		e = &Entry{Name: r.Name}
		m.entries[r.Name] = e
	}
	switch r.Op {
	case OpRegister:
		e.Deleted = false
		e.Spec = r.Spec
	case OpRecord:
		e.HasSnapshot = true
		e.RecordInput = r.Input
	case OpInvalidate:
		e.HasSnapshot = false
	case OpDelete:
		e.Deleted = true
		e.HasSnapshot = false
		e.RecordInput = ""
	case OpEntry:
		e.Spec = r.Spec
		e.HasSnapshot = r.Snap
		e.Deleted = r.Del
		e.RecordInput = r.Input
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
	e.Generation = r.Gen
	return nil
}

// frame encodes one record as a journal frame: magic, payload length,
// CRC-32 of the payload, payload.
func frame(r record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("statedir: encode record: %w", err)
	}
	out := make([]byte, 12+len(payload))
	binary.LittleEndian.PutUint32(out[0:], frameMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[8:], crc32.ChecksumIEEE(payload))
	copy(out[12:], payload)
	return out, nil
}

// append journals one record: frame, write, fsync, then apply. The
// fsync happens before apply and before the caller replies, so an
// acknowledged operation is always on disk, and a crash between write
// and fsync leaves only an unacknowledged torn tail.
func (m *Manifest) append(r record) error {
	f, err := frame(r)
	if err != nil {
		return err
	}
	if _, err := m.f.Write(f); err != nil {
		return fmt.Errorf("statedir: append: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("statedir: sync: %w", err)
	}
	if err := m.apply(r); err != nil {
		return err
	}
	m.appends++
	if m.appends > 4*len(m.entries)+compactSlack {
		// Best-effort: a failed compaction leaves the (valid, longer)
		// log in place.
		_ = m.compactLocked()
	}
	return nil
}

// journal mints: it appends one record for name at its next generation
// number — monotonic across the function's whole history, including
// deletes and re-registrations — and returns that generation. Only the
// acknowledged client mutations (register, record, delete) come through
// here. Caller holds m.mu.
func (m *Manifest) journal(r record) (uint64, error) {
	r.Gen = 1
	if e := m.entries[r.Name]; e != nil {
		r.Gen = e.Generation + 1
	}
	if err := m.append(r); err != nil {
		return 0, err
	}
	return r.Gen, nil
}

// Register journals a function registration (spec-only). spec is the
// defining SpecConfig JSON for custom functions, "" for catalog ones.
// Registering an existing live function with the same spec is a no-op
// returning the current generation.
func (m *Manifest) Register(name, spec string) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[name]; e != nil && !e.Deleted && e.Spec == spec {
		return e.Generation, nil
	}
	return m.journal(record{Op: OpRegister, Name: name, Spec: spec})
}

// Record journals a committed snapshot recording for name.
func (m *Manifest) Record(name, input string) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal(record{Op: OpRecord, Name: name, Input: input})
}

// Invalidate journals the loss of name's snapshot (quarantined or
// missing at recovery) at its current generation: the snapshot is gone,
// the version is not newer, so among replicas at that generation the
// ones still holding the snapshot outrank this one.
func (m *Manifest) Invalidate(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[name]
	if e == nil {
		return fmt.Errorf("statedir: invalidate %q: no such entry", name)
	}
	return m.append(record{Op: OpInvalidate, Name: name, Gen: e.Generation})
}

// ErrTombstoned is Adopt's refusal to resurrect a deleted function.
var ErrTombstoned = errors.New("statedir: a tombstone at or above the source's generation")

// Adopt journals a snapshot synced from a peer whose entry sits at
// generation gen: name becomes live with that snapshot at
// max(local, gen), in one record. A live entry keeps its registered
// spec; an absent one, or one tombstoned below gen, takes spec. A
// tombstone at gen or above refuses with ErrTombstoned: among equal
// generations the delete outranks the copy.
func (m *Manifest) Adopt(name, spec, input string, gen uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[name]; e != nil {
		if e.Deleted && e.Generation >= gen {
			return ErrTombstoned
		}
		if !e.Deleted {
			spec = e.Spec
		}
		gen = max(gen, e.Generation)
	}
	return m.append(record{Op: OpEntry, Name: name, Gen: gen, Spec: spec, Input: input, Snap: true})
}

// Delete journals a tombstone for name.
func (m *Manifest) Delete(name string) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal(record{Op: OpDelete, Name: name})
}

// Get returns name's entry (tombstones included).
func (m *Manifest) Get(name string) (Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[name]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Entries returns every entry — live and tombstoned — sorted by name.
func (m *Manifest) Entries() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Entry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Live returns the non-tombstoned entries, sorted by name.
func (m *Manifest) Live() []Entry {
	all := m.Entries()
	out := all[:0]
	for _, e := range all {
		if !e.Deleted {
			out = append(out, e)
		}
	}
	return out
}

// Digest is a position-independent hash of the full entry set
// (tombstones included): two replicas with equal digests hold the same
// durable state. Reported by GET /status.
func (m *Manifest) Digest() string {
	h := fnv.New64a()
	for _, e := range m.Entries() {
		fmt.Fprintf(h, "%s|%d|%t|%t|%s|%s;", e.Name, e.Generation, e.Deleted, e.HasSnapshot, e.RecordInput, e.Spec)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// compactLocked rewrites the journal to one OpEntry record per entry,
// committed over the old log by the atomic durable write.
func (m *Manifest) compactLocked() error {
	names := make([]string, 0, len(m.entries))
	for n := range m.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	err := atomicfile.Write(m.path, func(w io.Writer) error {
		for _, n := range names {
			e := m.entries[n]
			f, err := frame(record{
				Op: OpEntry, Name: e.Name, Gen: e.Generation,
				Spec: e.Spec, Input: e.RecordInput, Snap: e.HasSnapshot, Del: e.Deleted,
			})
			if err != nil {
				return err
			}
			if _, err := w.Write(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	old := m.f
	nf, err := atomicfile.OpenAppend(m.path)
	if err != nil {
		return err
	}
	m.f = nf
	old.Close()
	m.appends = 0
	return nil
}

// Close closes the journal.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f = nil
	return err
}
