package daemon

// Tests of what the index / store / lifecycle split is for: readers are
// not held up by the machinery that produces what they read, background
// work ends with the daemon, and the seams stay where they were cut.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"faasnap/internal/chaos"
)

// TestHungPeerDoesNotHoldCloseOrDelete: a lazy fetcher parked inside a
// GET to a peer that never answers is cancelled by its halt, so Close
// and DELETE return at once instead of waiting out the peer client's
// 30 s; what it had not fetched is reported missing after a restart.
func TestHungPeerDoesNotHoldCloseOrDelete(t *testing.T) {
	_, a := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, a, "cas-alpha")
	lazy, _ := lazyDigests(t, a, "cas-alpha")

	// lazySync restores cas-alpha onto a fresh daemon through a peer that
	// serves the chunk map and the loading set and hangs on every lazy
	// chunk, and returns once the tail is parked inside its first fetch.
	lazySync := func(dir string) (*Daemon, *httptest.Server) {
		t.Helper()
		d, b := newTestDaemon(t, Config{StateDir: dir})
		src := newGatedSource(t, a.Config.Handler, lazy)
		var sr SyncResponse
		if resp := doJSON(t, "POST", b.URL+"/functions/cas-alpha/sync",
			map[string]interface{}{"source": hostport(src.srv)}, &sr); resp.StatusCode != http.StatusOK {
			t.Fatalf("lazy sync = %d", resp.StatusCode)
		}
		if sr.ChunksLazy != len(lazy) {
			t.Fatalf("sync deferred %d chunks, want the %d lazy ones", sr.ChunksLazy, len(lazy))
		}
		src.waitParked(t, 1)
		return d, b
	}
	prompt := func(what string, f func()) {
		t.Helper()
		start := time.Now()
		f()
		if took := time.Since(start); took > time.Second {
			t.Fatalf("%s took %v behind a hung peer, want < 1s", what, took)
		}
	}

	dir := t.TempDir()
	d, b := lazySync(dir)
	b.Close()
	prompt("Close", d.Close)
	_, again := newTestDaemon(t, Config{StateDir: dir})
	if st := statusOf(t, again, "cas-alpha"); st.ChunksPending != 0 || st.ChunksMissing != len(lazy) {
		t.Fatalf("after the halt and a restart: %+v, want 0 pending and the %d unfetched chunks missing", st, len(lazy))
	}

	_, b = lazySync(t.TempDir())
	prompt("DELETE", func() {
		if code := doJSON(t, "DELETE", b.URL+"/functions/cas-alpha", nil, nil).StatusCode; code != http.StatusNoContent {
			t.Fatalf("delete = %d", code)
		}
	})
}

// TestInvokeDoesNotWaitForRecord: while a re-record of a function sits
// in its VM pause, invokes of that function are served from the snapshot
// published before it; once the record acks they serve the new one.
func TestInvokeDoesNotWaitForRecord(t *testing.T) {
	_, srv := newTestDaemon(t, Config{StateDir: t.TempDir()})
	casProvision(t, srv, "cas-alpha") // recorded with input A
	invoke := func(mode string) (out InvokeResponse, took time.Duration) {
		t.Helper()
		start := time.Now()
		if resp := doJSON(t, "POST", srv.URL+"/functions/cas-alpha/invoke",
			map[string]string{"mode": mode, "input": "B"}, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke %s = %d", mode, resp.StatusCode)
		}
		return out, time.Since(start)
	}
	before, _ := invoke("faasnap")

	const pause = 1500 * time.Millisecond
	if resp := doJSON(t, "PUT", srv.URL+"/chaos", chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointVMMAPI, Op: "/vm", Kind: chaos.KindDelay, DelayMs: pause.Milliseconds(), Count: 1},
	}}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("arm chaos = %d", resp.StatusCode)
	}
	recorded := make(chan int, 1)
	go func() {
		recorded <- doJSON(t, "POST", srv.URL+"/functions/cas-alpha/record", map[string]string{"input": "B"}, nil).StatusCode
	}()
	// The rule fires when the record's pause reaches the VMM: from then
	// on the record holds the function's lock for the length of the delay.
	waitFor(t, "the record never reached its pause", func() bool {
		var st chaos.Status
		doJSON(t, "GET", srv.URL+"/chaos", nil, &st)
		return st.Rules[0].Fired == 1
	})
	for _, mode := range []string{"warm", "faasnap"} {
		out, took := invoke(mode)
		if took > pause/2 {
			t.Fatalf("invoke %s took %v during a record paused for %v: it waited for the record", mode, took, pause)
		}
		if mode == "faasnap" && out.TotalMs != before.TotalMs {
			t.Fatalf("invoke during the record: total %v ms, want the previous snapshot's %v", out.TotalMs, before.TotalMs)
		}
	}
	select {
	case code := <-recorded:
		t.Fatalf("record returned %d before its pause was over; the invokes proved nothing", code)
	default:
	}
	if code := <-recorded; code != http.StatusOK {
		t.Fatalf("re-record = %d", code)
	}
	if after, _ := invoke("faasnap"); after.TotalMs == before.TotalMs {
		t.Fatalf("invoke after the re-record still serves the previous snapshot (total %v ms)", after.TotalMs)
	}
}

// TestNoGoroutineOutlivesClose: the dedup-gauge refresh a record leaves
// behind walks the chunk tree on the daemon's drain group, so after
// Close nothing of the daemon is running and its state dir can go.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{StateDir: dir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	casProvision(t, srv, "cas-alpha")
	srv.Close()
	d.Close()
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	for _, g := range stacks[1:] { // stacks[0] is this goroutine
		// One still inside the Done that released Close has finished its
		// work; the scheduler just has not retired it yet. A parallel test
		// parked until the serial ones finish is no daemon's.
		if strings.Contains(g, "faasnap/internal/daemon.") && !strings.Contains(g, "sync.(*WaitGroup).Done") &&
			!strings.Contains(g, "testing.(*T).Parallel") {
			t.Fatalf("a daemon goroutine outlived Close:\n%s", g)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatalf("state dir not removable after Close: %v", err)
	}
}

// TestLayering asserts the seams by construction: only store.go imports
// casstore, snapfile and atomicfile, only index.go imports statedir, and
// fnState is built, assigned and published in lifecycle.go alone.
func TestLayering(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil || pkgs["daemon"] == nil || pkgs["daemon"].Files["lifecycle.go"] == nil {
		t.Fatalf("parse: %v (lifecycle.go missing?)", err)
	}
	files := pkgs["daemon"].Files
	owner := map[string]string{
		"faasnap/internal/atomicfile": "store.go",
		"faasnap/internal/casstore":   "store.go",
		"faasnap/internal/snapfile":   "store.go",
		"faasnap/internal/statedir":   "index.go",
	}
	fields := map[string]bool{}
	ast.Inspect(files["lifecycle.go"], func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "fnState" {
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range f.Names {
					fields[name.Name] = true
				}
			}
		}
		return true
	})
	if !fields["pub"] || !fields["mu"] {
		t.Fatalf("fnState fields not found: %v", fields)
	}
	written := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && fields[sel.Sel.Name]
	}
	for name, f := range files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); owner[path] != "" && owner[path] != name {
				t.Errorf("%s imports %s; only %s may", name, path, owner[path])
			}
		}
		if name == "lifecycle.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			bad := false
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					bad = bad || written(lhs)
				}
			case *ast.IncDecStmt:
				bad = written(n.X)
			case *ast.CompositeLit:
				id, ok := n.Type.(*ast.Ident)
				bad = ok && id.Name == "fnState"
			case *ast.SelectorExpr:
				bad = n.Sel.Name == "pub" || n.Sel.Name == "publish"
			}
			if bad {
				t.Errorf("%s writes fnState; only lifecycle.go may", fset.Position(n.Pos()))
			}
			return true
		})
	}
}
