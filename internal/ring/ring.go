// Package ring is the one bounded ring buffer behind the retained
// histories: the event ledger, the flight recorder and the trace
// store. A push past capacity evicts the oldest element in O(1).
//
// A Ring is not safe for concurrent use: each owner already holds its
// own lock around the ring and the state it keeps beside it.
package ring

// Ring holds the most recent Cap() elements pushed.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

// New returns a ring retaining up to capacity (> 0) elements.
func New[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v. A full ring evicts its oldest element and returns it
// with ok true, so an owner indexing elements on the side can drop it.
func (r *Ring[T]) Push(v T) (evicted T, ok bool) {
	if r.n == len(r.buf) {
		evicted, ok = r.buf[r.head], true
		r.buf[r.head] = v
		r.head = (r.head + 1) % len(r.buf)
		return evicted, ok
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	return evicted, false
}

// Ascend calls fn on each element, oldest first, until fn returns false.
func (r *Ring[T]) Ascend(fn func(T) bool) {
	for i := 0; i < r.n; i++ {
		if !fn(r.buf[(r.head+i)%len(r.buf)]) {
			return
		}
	}
}

// Descend calls fn on each element, newest first, until fn returns false.
func (r *Ring[T]) Descend(fn func(T) bool) {
	for i := r.n - 1; i >= 0; i-- {
		if !fn(r.buf[(r.head+i)%len(r.buf)]) {
			return
		}
	}
}
