package trace

import (
	"strings"
	"testing"
	"time"
)

func TestRenderWaterfall(t *testing.T) {
	b := NewBuilder("0000000000000abc", "chunk-sync fn-a")
	root := b.Span("chunk-sync fn-a", "", 0, 10*time.Millisecond, nil)
	b.Span("snapfile-decode", root, 0, time.Millisecond, nil)
	b.Span("eager-fetch", root, time.Millisecond, 4*time.Millisecond,
		map[string]string{"group": "0", "tier": "local"})
	b.Span("commit", root, 6*time.Millisecond, 4*time.Millisecond,
		map[string]string{"fetched": "3"})
	tr := b.Finish()

	out := RenderWaterfall(tr.Spans)
	if !strings.Contains(out, "trace 0000000000000abc · 4 spans") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{
		"chunk-sync fn-a",
		"  snapfile-decode", // child indented under root
		"[group=0 tier=local]",
		"[fetched=3]",
		"10.0ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	// Every span row carries a bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want header + 4 rows:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "█") {
			t.Errorf("row without bar: %q", l)
		}
	}
	// Later spans start further right: commit's bar begins after
	// snapfile-decode's.
	if strings.Index(lines[4], "█") <= strings.Index(lines[2], "█") {
		t.Errorf("timeline not ordered:\n%s", out)
	}
}

func TestRenderWaterfallDegenerate(t *testing.T) {
	if out := RenderWaterfall(nil); !strings.Contains(out, "no spans") {
		t.Fatalf("empty render = %q", out)
	}
	// Zero-duration single span must not divide by zero.
	s := &Span{TraceID: "t", SpanID: "t-0001", Name: "instant"}
	if out := RenderWaterfall([]*Span{s}); !strings.Contains(out, "instant") {
		t.Fatalf("degenerate render = %q", out)
	}
	// Orphan parent IDs must not loop.
	o := &Span{TraceID: "t", SpanID: "t-0002", ParentID: "missing", Name: "orphan", Duration: 5}
	if out := RenderWaterfall([]*Span{o}); !strings.Contains(out, "orphan") {
		t.Fatalf("orphan render = %q", out)
	}
}
