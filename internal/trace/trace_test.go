package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBuilderSpanTree(t *testing.T) {
	b := NewBuilder("abcd", "invoke hello-world")
	root := b.Span("total", "", 0, 100*time.Millisecond, map[string]string{"mode": "faasnap"})
	setup := b.Span("setup", root, 0, 45*time.Millisecond, nil)
	b.Span("invoke", root, 45*time.Millisecond, 55*time.Millisecond, nil)
	tr := b.Finish()
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
	if tr.Spans[0].SpanID != root || tr.Spans[1].ParentID != root {
		t.Fatal("parent links broken")
	}
	if tr.Spans[1].SpanID == tr.Spans[2].SpanID {
		t.Fatal("span ids not unique")
	}
	if setup == root {
		t.Fatal("child id equals root")
	}
	if tr.Spans[2].Timestamp != 45000 || tr.Spans[2].Duration != 55000 {
		t.Fatalf("µs conversion wrong: %+v", tr.Spans[2])
	}
}

func TestZipkinJSON(t *testing.T) {
	b := NewBuilder("1234", "x")
	b.Span("total", "", 0, time.Millisecond, map[string]string{"k": "v"})
	raw, err := b.Finish().MarshalZipkin()
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]interface{}
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("spans = %v", spans)
	}
	s := spans[0]
	for _, key := range []string{"traceId", "id", "name", "timestamp", "duration"} {
		if _, ok := s[key]; !ok {
			t.Fatalf("missing zipkin field %q in %v", key, s)
		}
	}
	if s["tags"].(map[string]interface{})["k"] != "v" {
		t.Fatalf("tags = %v", s["tags"])
	}
}

func TestStorePutGetList(t *testing.T) {
	s := NewStore(10)
	id := s.NextID()
	if id2 := s.NextID(); id2 == id {
		t.Fatal("ids not unique")
	}
	b := NewBuilder(id, "t")
	b.Span("total", "", 0, time.Second, nil)
	s.Put(b.Finish())
	got, ok := s.Get(id)
	if !ok || got.ID != id {
		t.Fatalf("get = %v, %v", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing trace found")
	}
	if len(s.ListNewest(0)) != 1 || s.Len() != 1 {
		t.Fatal("list/len wrong")
	}
}

// TestStoresMintDistinctIDs: two stores started alike — two daemons —
// mint different ids, each 16 hex digits and never all zeros.
func TestStoresMintDistinctIDs(t *testing.T) {
	a, b := NewStore(1), NewStore(1)
	seen := map[ID]bool{}
	for i := 0; i < 100; i++ {
		for _, id := range []ID{a.NextID(), b.NextID()} {
			if seen[id] || len(id) != 16 || strings.Trim(string(id), "0123456789abcdef") != "" || strings.Trim(string(id), "0") == "" {
				t.Fatalf("id %q: repeated, or not 16 hex digits with one non-zero", id)
			}
			seen[id] = true
		}
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(3)
	var ids []ID
	for i := 0; i < 5; i++ {
		id := s.NextID()
		ids = append(ids, id)
		s.Put(NewBuilder(id, "t").Finish())
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Fatal("oldest trace not evicted")
	}
	if _, ok := s.Get(ids[4]); !ok {
		t.Fatal("newest trace missing")
	}
}

func TestStoreOverwriteSameID(t *testing.T) {
	s := NewStore(3)
	id := s.NextID()
	s.Put(NewBuilder(id, "a").Finish())
	s.Put(NewBuilder(id, "b").Finish())
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	got, _ := s.Get(id)
	if got.Name != "b" {
		t.Fatal("overwrite did not replace")
	}
}

func TestStoreListNewest(t *testing.T) {
	s := NewStore(3)
	var ids []ID
	for i := 0; i < 5; i++ {
		id := s.NextID()
		ids = append(ids, id)
		s.Put(NewBuilder(id, "t").Finish())
	}
	// Ring wrapped twice: the three survivors are ids[2..4].
	got := s.ListNewest(0)
	if len(got) != 3 || got[0] != ids[4] || got[1] != ids[3] || got[2] != ids[2] {
		t.Fatalf("ListNewest(0) = %v, want newest-first %v", got, []ID{ids[4], ids[3], ids[2]})
	}
	if got := s.ListNewest(2); len(got) != 2 || got[0] != ids[4] || got[1] != ids[3] {
		t.Fatalf("ListNewest(2) = %v", got)
	}
}

func TestSpanIDMatchesBuilder(t *testing.T) {
	b := NewBuilder("feed", "x")
	first := b.Span("root", "", 0, time.Second, nil)
	if want := SpanID("feed", 1); first != want {
		t.Fatalf("first builder span id = %q, want %q (SpanID derivation out of sync)", first, want)
	}
}

func TestBuilderAppend(t *testing.T) {
	b := NewBuilder("beef", "x")
	b.Span("root", "", 0, time.Second, nil)
	b.Append(&Span{SpanID: "beef-vmm-0001", ParentID: SpanID("beef", 1), Name: "remote", Timestamp: 5, Duration: 1})
	tr := b.Finish()
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
	if tr.Spans[1].TraceID != "beef" {
		t.Fatalf("appended span traceId = %q, want the builder's", tr.Spans[1].TraceID)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := s.NextID()
				s.Put(NewBuilder(id, fmt.Sprintf("t%s", id)).Finish())
				s.Get(id)
				s.ListNewest(0)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 64 {
		t.Fatalf("len = %d, want capacity", s.Len())
	}
}
