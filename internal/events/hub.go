package events

import "sync"

// lineDepth is the per-subscriber buffer of a hub whose messages are
// single lines (the event ledger): a stalled watcher costs at most
// this many buffered lines.
const lineDepth = 4096

// Hub fans pre-encoded NDJSON messages out to watchers, each filtered
// by an event type and a function name (empty matches everything) —
// the one fan-out behind both watch streams, GET /events?watch=1 and
// the per-function fault timelines. A message is the unit of delivery:
// one line, or several joined by '\n' that must arrive together (one
// invocation's whole fault timeline). Publish never blocks: a
// subscriber whose buffer is full loses the message, whole, and OnDrop
// counts the loss once.
type Hub struct {
	mu    sync.Mutex
	depth int
	subs  map[chan []byte]filter
	done  chan struct{}
	once  sync.Once

	// OnDrop, if set before the hub is shared, is invoked once per
	// message dropped on a slow subscriber: the hub's one count of its
	// losses. It runs under the hub's lock.
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

// NewHub returns an empty hub whose subscribers each buffer up to depth
// messages. What a stalled watcher can pin is depth times the message
// size, so a hub of large messages takes a small depth.
func NewHub(depth int) *Hub {
	return &Hub{depth: depth, subs: make(map[chan []byte]filter), done: make(chan struct{})}
}

// Subscribe registers a watcher for messages published under typ and
// function (empty matches everything) and returns its channel.
// Messages carry no trailing newline.
func (h *Hub) Subscribe(typ Type, function string) chan []byte {
	ch := make(chan []byte, h.depth)
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
// publisher can skip encoding a message nobody would receive.
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

// Publish delivers msg to every subscriber whose filter passes the
// key. The bytes are shared by all of them and must not change
// afterwards.
func (h *Hub) Publish(typ Type, function string, msg []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch, f := range h.subs {
		if !f.passes(typ, function) {
			continue
		}
		select {
		case ch <- msg:
		default:
			if h.OnDrop != nil {
				h.OnDrop()
			}
		}
	}
}

// Done returns a channel closed when the hub shuts down; stream
// handlers select on it to end their responses.
func (h *Hub) Done() <-chan struct{} { return h.done }

// Close releases every watcher: a watch stream never ends on its own,
// so the owner cuts them loose when it starts draining. Idempotent.
func (h *Hub) Close() {
	h.once.Do(func() { close(h.done) })
}
