package daemon

// Tests for the index's function registry: single-threaded semantics
// first, then the concurrent register/invoke/delete/list mix the
// sync.Map exists for (run with -race). Both drive the index's own
// methods on a daemon without a journal.

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"faasnap/internal/workload"
)

func regState(name string) *fnState {
	return &fnState{spec: &workload.Spec{Name: name}}
}

// errStep fails an index.enter step, which rolls back the entry that
// call inserted.
var errStep = errors.New("step failed")

func TestRegistrySemantics(t *testing.T) {
	x, _ := openIndex("")
	if _, ok := x.lookup("a"); ok {
		t.Fatal("empty registry returned a state")
	}
	ok := func(*fnState) error { return nil }

	fs, err := x.enter("a", &workload.Spec{Name: "a"}, ok)
	if cur, found := x.lookup("a"); err != nil || fs == nil || !found || cur != fs {
		t.Fatalf("first enter: fs=%v err=%v, lookup=%v", fs, err, cur)
	}
	again, err := x.enter("a", &workload.Spec{Name: "a"}, ok)
	if err != nil || again != fs {
		t.Fatal("second enter did not return the original state")
	}
	if _, err := x.enter("nobody", nil, ok); !errors.Is(err, errNotRegistered) {
		t.Fatalf("enter without a spec on an unknown name = %v", err)
	}

	// A failed step's rollback only removes the exact state its call
	// inserted: a concurrent re-register must survive the loser's cleanup.
	replacement := regState("b")
	x.enter("b", &workload.Spec{Name: "b"}, func(*fnState) error {
		x.restore(replacement)
		return errStep
	}) // stale pointer: no-op
	if cur, ok := x.lookup("b"); !ok || cur != replacement {
		t.Fatal("rollback with a stale pointer removed the replacement")
	}
	x.enter("c", &workload.Spec{Name: "c"}, func(*fnState) error { return errStep })
	if _, ok := x.lookup("c"); ok {
		t.Fatal("rollback with the current pointer did not remove")
	}
	// A failed step on an entry that already existed removes nothing.
	x.enter("a", nil, func(*fnState) error { return errStep })
	if cur, ok := x.lookup("a"); !ok || cur != fs {
		t.Fatal("failed step on an existing entry removed it")
	}
	x.tombstone("a")
	x.tombstone("b")

	// live is sorted by name regardless of insertion order.
	names := []string{"zeta", "alpha", "mid", "beta"}
	for _, n := range names {
		x.restore(regState(n))
	}
	snap := x.live()
	if len(snap) != len(names) {
		t.Fatalf("live len=%d, want %d", len(snap), len(names))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].spec.Name >= snap[i].spec.Name {
			t.Fatalf("live unsorted: %q before %q", snap[i-1].spec.Name, snap[i].spec.Name)
		}
	}
	if fs, err := x.tombstone("mid"); err != nil || fs.spec.Name != "mid" {
		t.Fatal("tombstone did not return the removed state")
	}
	if _, err := x.tombstone("mid"); !errors.Is(err, errNotRegistered) {
		t.Fatalf("second tombstone = %v", err)
	}
	if n := len(x.live()); n != len(names)-1 {
		t.Fatalf("live after tombstone = %d", n)
	}
}

// TestRegistryConcurrentChurn drives every registry operation of the
// index from many goroutines over a shared key set. The invariant under
// -race is simply no race and no lost update: after the churn each key
// either resolves to its last-written state or is absent.
func TestRegistryConcurrentChurn(t *testing.T) {
	x, _ := openIndex("")
	const workers, keys, rounds = 16, 128, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("fn-%03d", (w*31+i)%keys)
				spec := &workload.Spec{Name: name}
				switch i % 6 {
				case 0:
					x.enter(name, spec, func(*fnState) error { return nil })
				case 1:
					x.lookup(name)
				case 2:
					x.restore(regState(name))
				case 3:
					// Insert-then-roll-back: a compare-and-delete racing the rest.
					x.enter(name, spec, func(*fnState) error { return errStep })
				case 4:
					x.live()
				case 5:
					x.tombstone(name)
				}
			}
		}(w)
	}
	wg.Wait()
	// The registry must still be internally consistent: every live entry
	// is reachable by lookup, and the count is stable once the churn ends.
	snap := x.live()
	if n := len(x.live()); n != len(snap) {
		t.Fatalf("live count %d != %d", n, len(snap))
	}
	for _, fs := range snap {
		if got, ok := x.lookup(fs.spec.Name); !ok || got != fs {
			t.Fatalf("live entry %q not reachable via lookup", fs.spec.Name)
		}
	}
}

// TestConcurrentRegisterInvokeDeleteList is the HTTP-level version: the
// full register/record/invoke/delete/list mix hammering one daemon
// across shards, under -race. Handlers must never 5xx, and the final
// list must reflect exactly the functions left registered.
func TestConcurrentRegisterInvokeDeleteList(t *testing.T) {
	_, srv := newTestDaemon(t, Config{QuietHTTP: true})
	recordedFn(t, srv.URL) // hello-world, the invoke target

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("churn-%02d", w)
			spec := map[string]interface{}{
				"name": name, "boot_mb": 4, "stable_pages": 64,
				"base_ms": 1, "input_a": map[string]int64{"bytes": 1024, "data_pages": 2},
			}
			for i := 0; i < 6; i++ {
				resp := doJSON(t, "PUT", srv.URL+"/functions/"+name, spec, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("register %s = %d", name, resp.StatusCode)
				}
				resp = doJSON(t, "GET", srv.URL+"/functions", nil, nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("list = %d", resp.StatusCode)
				}
				resp = doJSON(t, "POST", srv.URL+"/functions/hello-world/invoke",
					map[string]string{"mode": "warm", "input": "A"}, nil)
				if resp.StatusCode >= 500 {
					t.Errorf("invoke = %d", resp.StatusCode)
				}
				resp = doJSON(t, "DELETE", srv.URL+"/functions/"+name, nil, nil)
				if resp.StatusCode >= 500 {
					t.Errorf("delete %s = %d", name, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()

	var list []struct {
		Name string `json:"name"`
	}
	resp := doJSON(t, "GET", srv.URL+"/functions", nil, &list)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final list = %d", resp.StatusCode)
	}
	// Every churn worker deleted last, so only hello-world remains.
	if len(list) != 1 || list[0].Name != "hello-world" {
		t.Fatalf("final list = %+v, want just hello-world", list)
	}
}
