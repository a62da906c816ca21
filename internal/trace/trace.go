// Package trace records invocation execution traces as span trees and
// exports them in Zipkin v2 JSON, mirroring the paper artifact's use of
// Zipkin ("the execution traces of invocations are accessible on the
// Zipkin web page... TraceIDs can be used to search traces", App. A.4).
// Span timestamps are virtual-time offsets from the invocation start.
package trace

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"faasnap/internal/ring"
)

// ID is a trace or span identifier (hex, Zipkin-style).
type ID string

// Span is one timed operation within a trace.
type Span struct {
	TraceID  ID     `json:"traceId"`
	SpanID   ID     `json:"id"`
	ParentID ID     `json:"parentId,omitempty"`
	Name     string `json:"name"`
	// Timestamp is the span start in microseconds of virtual time
	// since the trace epoch (Zipkin uses µs).
	Timestamp int64             `json:"timestamp"`
	Duration  int64             `json:"duration"` // µs
	Tags      map[string]string `json:"tags,omitempty"`
}

// Trace is a finished invocation trace.
type Trace struct {
	ID    ID      `json:"traceId"`
	Name  string  `json:"name"`
	Spans []*Span `json:"spans"`
}

// SpanID returns the nth span id derived from a trace id, the same
// derivation Builder uses — callers that must know a span's id before
// the builder creates it (the daemon hands the root span id to lower
// layers as the traceparent) rely on the two staying in sync.
func SpanID(traceID ID, n int) ID {
	return ID(fmt.Sprintf("%s-%04x", traceID, n))
}

// Builder assembles one trace.
type Builder struct {
	trace *Trace
	next  int
}

// NewBuilder starts a trace with the given id and name.
func NewBuilder(id ID, name string) *Builder {
	return &Builder{trace: &Trace{ID: id, Name: name}}
}

// Span appends a span covering [start, start+dur) of virtual time.
// An empty parent makes it a root span.
func (b *Builder) Span(name string, parent ID, start, dur time.Duration, tags map[string]string) ID {
	b.next++
	id := SpanID(b.trace.ID, b.next)
	b.trace.Spans = append(b.trace.Spans, &Span{
		TraceID:   b.trace.ID,
		SpanID:    id,
		ParentID:  parent,
		Name:      name,
		Timestamp: start.Microseconds(),
		Duration:  dur.Microseconds(),
		Tags:      tags,
	})
	return id
}

// Append adds an externally-built span (a lower layer's remote span,
// already carrying its own ids) to the trace.
func (b *Builder) Append(s *Span) {
	s.TraceID = b.trace.ID
	b.trace.Spans = append(b.trace.Spans, s)
}

// Finish returns the assembled trace.
func (b *Builder) Finish() *Trace { return b.trace }

// Store is a bounded in-memory trace store, safe for concurrent use.
// Trace ids live in a fixed-capacity ring: storing past capacity
// overwrites — and evicts — the oldest trace, so memory stays bounded
// no matter how long the daemon runs.
type Store struct {
	mu     sync.RWMutex
	byID   map[ID]*Trace
	ids    *ring.Ring[ID]
	nextID uint64
}

// NewStore returns a store retaining up to capacity traces. Its ids
// count up from a start drawn once per store, below 2^63 so the count
// never wraps to the all-zero id: stores that start from the same state
// — every daemon of a cluster — do not mint the same ids.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 256
	}
	return &Store{byID: make(map[ID]*Trace), ids: ring.New[ID](capacity), nextID: rand.Uint64() >> 1}
}

// NextID allocates a fresh trace id: 16 hex digits.
func (s *Store) NextID() ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return ID(fmt.Sprintf("%016x", s.nextID))
}

// Put stores a finished trace, evicting the oldest beyond capacity.
func (s *Store) Put(t *Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.byID[t.ID]; !exists {
		if old, evicted := s.ids.Push(t.ID); evicted {
			delete(s.byID, old)
		}
	}
	s.byID[t.ID] = t
}

// Get returns the trace with id.
func (s *Store) Get(id ID) (*Trace, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.byID[id]
	return t, ok
}

// ListNewest returns up to limit trace ids, newest first. limit <= 0
// returns all.
func (s *Store) ListNewest(limit int) []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.ids.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	ids := make([]ID, 0, n)
	s.ids.Descend(func(id ID) bool {
		ids = append(ids, id)
		return len(ids) < n
	})
	return ids
}

// Len returns the number of stored traces.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// MarshalZipkin renders the trace as a Zipkin v2 span array.
func (t *Trace) MarshalZipkin() ([]byte, error) {
	return json.Marshal(t.Spans)
}
