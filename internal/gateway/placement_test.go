package gateway

import (
	"fmt"
	"testing"
)

// backendsOf builds an unstarted backend set, in the order given.
func backendsOf(addrs ...string) []*Backend {
	out := make([]*Backend, len(addrs))
	for i, a := range addrs {
		out[i] = &Backend{Addr: a}
	}
	return out
}

// ownerOf is key's first-ranked backend address, "" for no backends.
func ownerOf(backends []*Backend, key string) string {
	if p := preference(backends, key, 1); len(p) > 0 {
		return p[0].Addr
	}
	return ""
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn-%d", i)
	}
	return out
}

// Ownership must not depend on the order backends were configured in:
// two gateways given the same backend set in different orders have to
// agree on every function's owner.
func TestRingInsertionOrderIrrelevant(t *testing.T) {
	a := backendsOf("h1:1", "h2:1", "h3:1", "h4:1")
	b := backendsOf("h3:1", "h1:1", "h4:1", "h2:1")
	for _, k := range keys(200) {
		if ownerOf(a, k) != ownerOf(b, k) {
			t.Fatalf("owner(%s) differs by insertion order: %s vs %s", k, ownerOf(a, k), ownerOf(b, k))
		}
	}
}

// Removing one backend may only move the keys it owned; every other
// function keeps its snapshot locality.
func TestRingStabilityUnderRemove(t *testing.T) {
	all := backendsOf("h1:1", "h2:1", "h3:1", "h4:1")
	without := backendsOf("h1:1", "h3:1", "h4:1")
	before := make(map[string]string)
	for _, k := range keys(300) {
		before[k] = ownerOf(all, k)
	}
	moved := 0
	for k, owner := range before {
		now := ownerOf(without, k)
		if owner != "h2:1" {
			if now != owner {
				t.Fatalf("key %s moved %s -> %s though its owner stayed", k, owner, now)
			}
			continue
		}
		if now == "h2:1" {
			t.Fatalf("key %s still owned by removed backend", k)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("removed backend owned no keys; the hash spread is broken")
	}
}

// Adding a backend may only move keys TO the new backend, and only a
// roughly proportional share of them.
func TestRingStabilityUnderAdd(t *testing.T) {
	three := backendsOf("h1:1", "h2:1", "h3:1")
	four := backendsOf("h1:1", "h2:1", "h3:1", "h4:1")
	before := make(map[string]string)
	ks := keys(300)
	for _, k := range ks {
		before[k] = ownerOf(three, k)
	}
	moved := 0
	for _, k := range ks {
		now := ownerOf(four, k)
		if now != before[k] {
			if now != "h4:1" {
				t.Fatalf("key %s moved %s -> %s, not to the new backend", k, before[k], now)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new backend")
	}
	if frac := float64(moved) / float64(len(ks)); frac > 0.5 {
		t.Fatalf("adding 1 of 4 backends moved %.0f%% of keys, want roughly 25%%", frac*100)
	}
}

// Preference returns distinct members, owner first, and the standby
// order is a stable function of the key.
func TestRingPreference(t *testing.T) {
	bs := backendsOf("h1:1", "h2:1", "h3:1")
	for _, k := range keys(50) {
		p := preference(bs, k, 0)
		if len(p) != 3 {
			t.Fatalf("preference(%s) = %v, want 3 distinct members", k, p)
		}
		seen := map[*Backend]bool{}
		for _, m := range p {
			if seen[m] {
				t.Fatalf("preference(%s) repeats %s", k, m.Addr)
			}
			seen[m] = true
		}
		if p[0].Addr != ownerOf(bs, k) {
			t.Fatalf("preference(%s)[0] = %s, owner = %s", k, p[0].Addr, ownerOf(bs, k))
		}
		if got := preference(bs, k, 2); len(got) != 2 || got[0] != p[0] || got[1] != p[1] {
			t.Fatalf("preference(%s, 2) = %v, want prefix of %v", k, got, p)
		}
	}
	// Ranking allocates its result and nothing else.
	if allocs := testing.AllocsPerRun(100, func() { preference(bs, "fn-1", 0) }); allocs > 1 {
		t.Fatalf("preference allocates %.0f objects, want 1", allocs)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := preference(nil, "fn", 0); len(got) != 0 {
		t.Fatalf("empty backend set preference = %v, want none", got)
	}
	if ownerOf(nil, "fn") != "" {
		t.Fatal("empty backend set has an owner")
	}
	only := backendsOf("only:1")
	if ownerOf(only, "fn") != "only:1" {
		t.Fatal("a single backend must own everything")
	}
	if got := preference(only, "fn", 3); len(got) != 1 {
		t.Fatalf("preference over one backend = %d entries, want 1", len(got))
	}
}

// prefSink keeps the benchmarked ranking from being optimised away.
var prefSink []*Backend

// BenchmarkPreference is the per-request placement cost: one ranking
// of every configured backend, as candidates does for each forward.
func BenchmarkPreference(b *testing.B) {
	for _, n := range []int{3, 64} {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("10.0.%d.%d:8700", i/256, i%256)
		}
		bs := backendsOf(addrs...)
		ks := keys(24)
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prefSink = preference(bs, ks[i%len(ks)], 0)
			}
		})
	}
}
