package events

import "sync"

// subBuf is the per-subscriber channel depth: a stalled watcher costs
// at most this many buffered lines.
const subBuf = 4096

// Hub fans pre-encoded NDJSON lines out to watchers, each filtered by
// an event type and a function name (empty matches everything) — the
// one fan-out behind both watch streams, GET /events?watch=1 and the
// per-function fault timelines. Publish never blocks: a subscriber
// whose buffer is full loses the line, and the loss is counted.
type Hub struct {
	mu      sync.Mutex
	subs    map[chan []byte]filter
	dropped uint64
	done    chan struct{}
	once    sync.Once

	// OnDrop, if set before the hub is shared, is invoked once per
	// line dropped on a slow subscriber.
	OnDrop func()
}

// filter selects lines by key; an empty field matches everything.
type filter struct {
	typ      Type
	function string
}

func (f filter) passes(typ Type, function string) bool {
	return (f.typ == "" || f.typ == typ) && (f.function == "" || f.function == function)
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan []byte]filter), done: make(chan struct{})}
}

// Subscribe registers a watcher for lines published under typ and
// function (empty matches everything) and returns its line channel.
// Lines carry no trailing newline.
func (h *Hub) Subscribe(typ Type, function string) chan []byte {
	ch := make(chan []byte, subBuf)
	h.mu.Lock()
	h.subs[ch] = filter{typ, function}
	h.mu.Unlock()
	return ch
}

// Unsubscribe removes a watcher registered with Subscribe.
func (h *Hub) Unsubscribe(ch chan []byte) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// Watched reports whether any subscriber's filter passes the key, so a
// publisher can skip encoding lines nobody would receive.
func (h *Hub) Watched(typ Type, function string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range h.subs {
		if f.passes(typ, function) {
			return true
		}
	}
	return false
}

// Publish delivers lines, in order, to every subscriber whose filter
// passes the key.
func (h *Hub) Publish(typ Type, function string, lines ...[]byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch, f := range h.subs {
		if !f.passes(typ, function) {
			continue
		}
		for _, line := range lines {
			select {
			case ch <- line:
			default:
				h.dropped++
				if h.OnDrop != nil {
					h.OnDrop()
				}
			}
		}
	}
}

// Dropped returns the total lines dropped on slow subscribers.
func (h *Hub) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// Done returns a channel closed when the hub shuts down; stream
// handlers select on it to end their responses.
func (h *Hub) Done() <-chan struct{} { return h.done }

// Close releases every watcher: a watch stream never ends on its own,
// so the owner cuts them loose when it starts draining. Idempotent.
func (h *Hub) Close() {
	h.once.Do(func() { close(h.done) })
}
