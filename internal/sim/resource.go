package sim

// Resource is a counting resource with FIFO admission, in the style of
// a bounded queue: Acquire blocks the calling process until one of the
// capacity slots is free, and waiters are granted slots in arrival
// order. It models device queue depths, locks (capacity 1), and other
// bounded-concurrency points.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	queue []token // waiters from queue[head] on, oldest first
	head  int
}

// NewResource returns a resource with the given capacity (> 0).
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, cap: capacity}
}

// Acquire blocks p until a slot is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && r.head == len(r.queue) {
		r.inUse++
		return
	}
	if r.head > 0 && len(r.queue) == cap(r.queue) {
		// Reuse the granted front of the queue instead of growing it.
		n := copy(r.queue, r.queue[r.head:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.queue = append(r.queue, p.token())
	p.park()
	// The releasing process transferred its slot to us; inUse already
	// accounts for it.
}

// Release returns a slot. If processes are queued, the slot is handed
// directly to the oldest waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	if r.head < len(r.queue) {
		// Hand the slot to the waiter: inUse stays the same. A queued
		// park has no other wake, so its token is always live.
		r.env.post(r.queue[r.head], r.env.now, wakeSignal)
		r.head++
		return
	}
	r.queue, r.head = r.queue[:0], 0
	r.inUse--
}

// Mutex is a convenience wrapper for a capacity-1 resource.
type Mutex struct{ r *Resource }

// NewMutex returns an unlocked mutex in env.
func NewMutex(env *Env) *Mutex { return &Mutex{r: NewResource(env, 1)} }

// Lock blocks p until the mutex is held.
func (m *Mutex) Lock(p *Proc) { m.r.Acquire(p) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.r.Release() }
