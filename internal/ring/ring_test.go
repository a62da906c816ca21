package ring

import (
	"reflect"
	"testing"
)

func collect(r *Ring[int], descend bool) []int {
	var out []int
	it := r.Ascend
	if descend {
		it = r.Descend
	}
	it(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

func TestPushEvictsOldestAndIteratesBothWays(t *testing.T) {
	r := New[int](3)
	for i := 1; i <= 3; i++ {
		if _, evicted := r.Push(i); evicted {
			t.Fatalf("push %d evicted before the ring was full", i)
		}
	}
	for i := 4; i <= 8; i++ {
		old, evicted := r.Push(i)
		if !evicted || old != i-3 {
			t.Fatalf("push %d evicted (%d, %v), want (%d, true)", i, old, evicted, i-3)
		}
	}
	if r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("Len, Cap = %d, %d, want 3, 3", r.Len(), r.Cap())
	}
	if got := collect(r, false); !reflect.DeepEqual(got, []int{6, 7, 8}) {
		t.Fatalf("Ascend = %v, want oldest first [6 7 8]", got)
	}
	if got := collect(r, true); !reflect.DeepEqual(got, []int{8, 7, 6}) {
		t.Fatalf("Descend = %v, want newest first [8 7 6]", got)
	}
}

func TestIterationStopsWhenAsked(t *testing.T) {
	r := New[int](4)
	for i := 0; i < 4; i++ {
		r.Push(i)
	}
	var seen []int
	r.Descend(func(v int) bool {
		seen = append(seen, v)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{3, 2}) {
		t.Fatalf("early stop saw %v, want [3 2]", seen)
	}
}

func TestEmptyAndCapacityOne(t *testing.T) {
	r := New[int](1)
	if r.Cap() != 1 || r.Len() != 0 || collect(r, false) != nil {
		t.Fatalf("New(1): cap %d len %d", r.Cap(), r.Len())
	}
	r.Push(1)
	if old, evicted := r.Push(2); !evicted || old != 1 {
		t.Fatalf("capacity-1 ring evicted (%d, %v), want (1, true)", old, evicted)
	}
}
