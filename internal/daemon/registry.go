package daemon

// The function registry: name -> *fnState over a sync.Map, so the
// invoke hot path's lookup is an atomic read that no registration,
// delete or list can stall. These methods are the registry's whole
// contract; nothing else in the daemon touches the map.

import (
	"sort"
	"sync"
)

type registry struct {
	m sync.Map // function name -> *fnState
}

func newRegistry() *registry { return &registry{} }

// get returns the named function's state, if registered.
func (r *registry) get(name string) (*fnState, bool) {
	v, ok := r.m.Load(name)
	fs, _ := v.(*fnState)
	return fs, ok
}

// getOrCreate returns the existing state for name, or installs the one
// mk builds. The second result reports whether name already existed.
// mk does not run for a name found registered; when two creates race,
// both may build and one state is dropped unpublished.
func (r *registry) getOrCreate(name string, mk func() *fnState) (*fnState, bool) {
	if fs, ok := r.get(name); ok {
		return fs, true
	}
	v, existed := r.m.LoadOrStore(name, mk())
	return v.(*fnState), existed
}

// set unconditionally installs state for name (reload path).
func (r *registry) set(name string, fs *fnState) { r.m.Store(name, fs) }

// remove deletes and returns the named state.
func (r *registry) remove(name string) (*fnState, bool) {
	v, ok := r.m.LoadAndDelete(name)
	fs, _ := v.(*fnState)
	return fs, ok
}

// removeIf deletes name only if it still maps to fs — the create path's
// boot-failure cleanup must not tear down an entry a concurrent PUT
// re-registered.
func (r *registry) removeIf(name string, fs *fnState) { r.m.CompareAndDelete(name, fs) }

// snapshot returns every registered state, sorted by function name so
// list responses are deterministic.
func (r *registry) snapshot() []*fnState {
	var out []*fnState
	r.m.Range(func(_, v any) bool {
		out = append(out, v.(*fnState))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].spec.Name < out[j].spec.Name })
	return out
}

// size returns the registered-function count (recovery's log lines).
func (r *registry) size() int { return len(r.snapshot()) }
