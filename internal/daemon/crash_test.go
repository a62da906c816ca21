package daemon

// The crash matrix, in process. Each case drives a daemon over an
// in-memory disk (disk_test.go), takes crashes after the disk's own
// operations — every one of a trigger's, or a seeded sample — and
// recovers a fresh New over both images each crash leaves against
// RESILIENCE.md's three invariants.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/fstest"

	"faasnap/internal/casstore"
	"faasnap/internal/chaos"
	"faasnap/internal/snapfile"
)

// The invariants a failure names.
const (
	ackedSurvive  = "acked writes survive"
	unackedAbsent = "unacked writes are absent or quarantined"
	neverCorrupt  = "corrupt state is never served"
)

// owned matches every file a recovered state directory may hold: the
// journal, snapfiles, chunks of either tier and quarantined evidence.
// Anything else — a temp file, a readiness probe — is a dropping a crash
// left and recovery failed to sweep.
var owned = regexp.MustCompile(`^(manifest\.log|[^/]+\.snap|cas/(packs|cold)/[0-9a-f]{16}\.pack|quarantine/[^/]+)$`)

// node is a daemon over a mounted disk, driven through its handler.
type node struct {
	d       *Daemon
	h       http.Handler
	disk    *disk
	unmount func()
}

// boot recovers a daemon over files, and fails on any dropping the
// recovery left.
func boot(t *testing.T, files fstest.MapFS) *node {
	t.Helper()
	disk, unmount := mount(files)
	d, err := New(Config{StateDir: disk.root, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		unmount()
		t.Fatal(err)
	}
	n := &node{d: d, h: d.Handler(), disk: disk, unmount: unmount}
	t.Cleanup(n.stop)
	disk.mu.Lock()
	defer disk.mu.Unlock()
	for name, f := range disk.files {
		if !f.Mode.IsDir() && !owned.MatchString(name) {
			t.Fatalf("%s: %s left after recovery", unackedAbsent, name)
		}
	}
	return n
}

func (n *node) stop() {
	if n.unmount != nil {
		n.d.Close()
		n.unmount()
		n.unmount = nil
	}
}

func (n *node) do(method, path string, body any) (int, []byte) {
	var rd io.Reader
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	}
	rec := httptest.NewRecorder()
	n.h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

// The operations a crash can interrupt.
const (
	opRegister = iota
	opRecord
	opInvoke
	opDelete
	opGC     // POST /gc
	opDemote // POST /gc {"demote":true}
	opSync   // an eager sync from the node's peer (node.peer)
)

// clientOps is how many of the ops, from the first, make up
// TestRandomKillInvariants' mix.
const clientOps = opDelete + 1

var opNames = [...]string{"register", "record", "invoke", "delete", "gc", "demote", "sync"}

// op runs one operation on fn and returns its status.
func (n *node) op(op int, fn string) int {
	method, path, body := "POST", "/functions/"+fn, any(nil)
	switch op {
	case opRegister:
		method, body = "PUT", customSpec(fn, 1)
	case opRecord:
		path, body = path+"/record", map[string]string{"input": "A"}
	case opInvoke:
		path, body = path+"/invoke", map[string]string{"mode": "faasnap", "input": "B"}
	case opDelete:
		method = "DELETE"
	case opGC, opDemote:
		path, body = "/gc", map[string]bool{"demote": op == opDemote}
	case opSync:
		path, body = path+"/sync", map[string]any{"source": "peer", "eager": true}
	}
	code, _ := n.do(method, path, body)
	return code
}

// peer gives n the source its syncs pull from: a daemon on a disk of its
// own that has recorded fn, answering n's peer requests in process.
func (n *node) peer(t *testing.T, fn string) {
	t.Helper()
	src := boot(t, fstest.MapFS{})
	for _, op := range []int{opRegister, opRecord} {
		if code := src.op(op, fn); code != http.StatusOK {
			t.Fatalf("source %s = %d", opNames[op], code)
		}
	}
	n.d.store.peer.Transport = served{src.h}
}

// get returns GET /functions/{fn}'s status and has_snapshot.
func (n *node) get(fn string) (int, bool) {
	code, body := n.do("GET", "/functions/"+fn, nil)
	var info FunctionInfo
	json.Unmarshal(body, &info)
	return code, info.HasSnapshot
}

// deficit returns fn's chunks_missing from GET /status.
func (n *node) deficit(fn string) int {
	_, body := n.do("GET", "/status", nil)
	var st StatusResponse
	json.Unmarshal(body, &st)
	for _, f := range st.Functions {
		if f.Name == fn {
			return f.ChunksMissing
		}
	}
	return 0
}

// count returns how many files on the disk have the path prefix.
func (n *node) count(prefix string) (c int) {
	n.disk.mu.Lock()
	defer n.disk.mu.Unlock()
	for name, f := range n.disk.files {
		if !f.Mode.IsDir() && strings.HasPrefix(name, prefix) {
			c++
		}
	}
	return c
}

const crashFn = "crash-fn"

// crashTrigger is one row of the matrix: the acknowledged ops before the
// crash, the op the crash interrupts, and the ops the recovered daemon
// must then run.
type crashTrigger struct {
	name    string
	prep    []int
	trigger int
	then    []int
}

var crashTriggers = []crashTrigger{
	// The durable image can keep a torn prefix of the registration, which
	// recovery truncates; the name must then provision anew.
	{name: "register", trigger: opRegister, then: []int{opRegister, opRecord, opInvoke}},
	// Chunks, then the snapfile, then the journal record: whatever the
	// record wrote before its journal record is durable is swept or
	// quarantined.
	{name: "record", prep: []int{opRegister}, trigger: opRecord},
	// The tombstone comes first: a leftover snapfile cannot resurrect
	// the function, and a registration of the name starts clean.
	{name: "delete", prep: []int{opRegister, opRecord}, trigger: opDelete, then: []int{opRegister}},
	// Every chunk stays in at least one tier, so the snapshot serves
	// whole and a second demotion finishes the first.
	{name: "gc-demote", prep: []int{opRegister, opRecord}, trigger: opDemote, then: []int{opInvoke, opDemote}},
	// Whatever the sweep had not removed, recovery does.
	{name: "gc-after-delete", prep: []int{opRegister, opRecord, opDelete}, trigger: opGC, then: []int{opRegister, opRecord, opInvoke}},
	// Every chunk, fetched a window at a time, is durable before the
	// snapfile that references it; a synced function can then be
	// registered and recorded here.
	{name: "sync", trigger: opSync, then: []int{opRegister, opRecord, opInvoke}},
}

// instant is one crash the matrix recovers: the disk operation it came
// after, what it left, what acknowledgements promised of crashFn, and
// the chunks the live store counted present.
type instant struct {
	at    string
	crash *crash
	want  expect
	held  []casstore.Digest
}

// trace runs tr's prep and trigger on a fresh daemon and crashes after
// every mutating disk operation the trigger makes and once more after its
// reply: instants[i] is the crash after ops[i], instants[len(ops)] the
// one after the reply.
func (tr crashTrigger) trace(t *testing.T) (ops []string, instants []instant) {
	n := boot(t, fstest.MapFS{})
	defer n.stop()
	if tr.trigger == opSync {
		n.peer(t, crashFn)
	}
	var model expect
	for _, op := range tr.prep {
		if code := n.op(op, crashFn); code/100 != 2 {
			t.Fatalf("%s = %d", opNames[op], code)
		}
		model = model.after(op, false)
	}
	rng := rand.New(rand.NewSource(1))
	n.disk.mu.Lock()
	n.disk.afterOp = func() {
		ops = append(ops, n.disk.ops[len(n.disk.ops)-1])
		instants = append(instants, instant{"after " + ops[len(ops)-1], n.disk.capture(rng), model.after(tr.trigger, true), n.d.store.cas.Digests()})
	}
	n.disk.mu.Unlock()
	if code := n.op(tr.trigger, crashFn); code/100 != 2 {
		t.Fatalf("%s = %d", opNames[tr.trigger], code)
	}
	n.disk.mu.Lock()
	defer n.disk.mu.Unlock()
	n.disk.afterOp = nil
	return ops, append(instants, instant{"after the reply", n.disk.capture(rng), model.after(tr.trigger, false), n.d.store.cas.Digests()})
}

// holds fails unless img, opened as a chunk store without recovery,
// holds every chunk of held, which the live store counted present when
// the crash came at: a record or sync deduping against a chunk counted
// present before its pack was durable would lose it to the crash.
func holds(t *testing.T, at string, img fstest.MapFS, held []casstore.Digest) {
	t.Helper()
	disk, unmount := mount(maps.Clone(img))
	defer unmount()
	cas, err := casstore.Open(disk.root, nil)
	if err != nil {
		t.Fatalf("crashed %s: open the chunk store: %v", at, err)
	}
	for _, dg := range held {
		if !cas.Has(dg) {
			t.Fatalf("%s: the live store counted chunk %s present, and a crash %s loses it", ackedSurvive, dg, at)
		}
	}
}

// TestCrashMatrix crashes each trigger after every mutating disk
// operation it makes and once more after its reply, and recovers a fresh
// New over both images of every crash against the tri-state model.
func TestCrashMatrix(t *testing.T) {
	t.Parallel()
	for _, tr := range crashTriggers {
		t.Run(tr.name, func(t *testing.T) {
			ops, instants := tr.trace(t)
			t.Logf("%d instants mid-%s, 1 after its reply", len(ops), opNames[tr.trigger])
			for _, in := range instants {
				holds(t, in.at+", process image", in.crash.process, in.held)
				holds(t, in.at+", durable image", in.crash.durable, in.held)
				tr.verify(t, in.at+", process image", in.crash.process, in.want)
				tr.verify(t, in.at+", durable image", in.crash.durable, in.want)
			}
		})
	}
}

// crashpoint names one instant of a trigger that the write path's
// ordering fixes an exact outcome for, where TestCrashMatrix's model
// allows either side of the op in flight. at locates the disk operation
// the crash comes after in the trigger's log (len(ops): after the reply,
// -1: not found). On the process image (index 0) and the durable one
// (1), snapfile is whether the crash left crash-fn.snap and want what
// recovery must serve.
type crashpoint struct {
	trigger  string
	at       func(ops []string) int
	want     [2]expect
	snapfile [2]bool
}

// first locates the first op matching pattern.
func first(pattern string) func([]string) int {
	re := regexp.MustCompile(pattern)
	return func(ops []string) int {
		for i, op := range ops {
			if re.MatchString(op) {
				return i
			}
		}
		return -1
	}
}

// before locates the op just before the first one matching pattern.
func before(pattern string) func([]string) int {
	at := first(pattern)
	return func(ops []string) int {
		if i := at(ops); i > 0 {
			return i - 1
		}
		return -1
	}
}

func lastOp(ops []string) int  { return len(ops) - 1 }
func replied(ops []string) int { return len(ops) }

var (
	registered = [2]expect{{yes, no}, {yes, no}}
	recorded   = [2]expect{{yes, yes}, {yes, yes}}
)

var crashpoints = map[string]crashpoint{
	// A chunk's temp written and flushed, a chunk committed, every chunk
	// committed, the snapfile's temp written: no snapfile references what
	// the record wrote, so it is all swept.
	"cas.chunk-pre-rename":  {trigger: "record", at: first(`^fsync cas/packs/.*\.tmp$`), want: registered},
	"cas.chunk-post-rename": {trigger: "record", at: first(`^rename cas/packs/\S+ → cas/packs/`), want: registered},
	"record.post-chunks":    {trigger: "record", at: before(`^create crash-fn\.snap\.[0-9]+\.tmp$`), want: registered},
	"snapfile.pre-rename":   {trigger: "record", at: first(`^fsync crash-fn\.snap\.[0-9]+\.tmp$`), want: registered},
	// Snapfile renamed into place, directory not flushed: the process
	// image holds a complete orphan, which recovery quarantines, the
	// durable one no snapfile at all.
	"snapfile.post-rename": {trigger: "record", at: first(`^rename crash-fn\.snap\.[0-9]+\.tmp → crash-fn\.snap$`), want: registered, snapfile: [2]bool{true, false}},
	// Snapfile committed and flushed, record not journaled: an orphan on
	// both images.
	"record.pre-journal": {trigger: "record", at: before(`^write manifest\.log$`), want: registered, snapfile: [2]bool{true, true}},
	// Journal record written, not flushed: the process image keeps it
	// whole; the power cut keeps a torn prefix, which recovery truncates.
	"manifest.pre-sync": {trigger: "register", at: before(`^fsync manifest\.log$`), want: [2]expect{{yes, no}, {no, no}}},
	// Journal record flushed: durable though no reply was sent.
	"manifest.post-append":  {trigger: "register", at: first(`^fsync manifest\.log$`), want: registered},
	"register.post-journal": {trigger: "register", at: lastOp, want: registered},
	// Reply written: the record is acknowledged and survives whole — on a
	// fresh store, so every chunk shard it wrote into was new.
	"record.post-reply": {trigger: "record", at: replied, want: recorded, snapfile: [2]bool{true, true}},
	// Tombstone flushed, snapfile not yet unlinked: the function stays
	// deleted, the leftover file is quarantined rather than resurrecting
	// it, and a registration of the name starts clean.
	"delete.post-journal": {trigger: "delete", at: first(`^fsync manifest\.log$`), want: [2]expect{}, snapfile: [2]bool{true, true}},
}

// TestCrashpointMatrix crashes at each named instant and holds recovery
// to that instant's exact outcome on both images, on top of the checks
// TestCrashMatrix makes of every crash.
func TestCrashpointMatrix(t *testing.T) {
	t.Parallel()
	names := make([]string, 0, len(crashpoints))
	for name := range crashpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cp := crashpoints[name]
		t.Run(name, func(t *testing.T) {
			var tr crashTrigger
			for _, row := range crashTriggers {
				if row.name == cp.trigger {
					tr = row
				}
			}
			ops, instants := tr.trace(t)
			i := cp.at(ops)
			if i < 0 {
				t.Fatalf("the %s never passed %s: %q", cp.trigger, name, ops)
			}
			in := instants[i]
			for image, img := range [2]fstest.MapFS{in.crash.process, in.crash.durable} {
				t.Run([2]string{"process", "durable"}[image], func(t *testing.T) {
					holds(t, in.at, img, in.held)
					if has := img[crashFn+".snap"] != nil; has != cp.snapfile[image] {
						t.Fatalf("crashed %s: the image holds %s: %v, want %v", in.at, crashFn+".snap", has, cp.snapfile[image])
					}
					tr.verify(t, in.at, img, cp.want[image])
				})
			}
		})
	}
}

// verify recovers a daemon over img, left by the crash at, and checks it
// against want, the row's generic checks, and the row's then ops.
func (tr crashTrigger) verify(t *testing.T, at string, img fstest.MapFS, want expect) {
	defer func() {
		if t.Failed() {
			t.Logf("crashed %s", at)
		}
	}()
	r := boot(t, img)
	defer r.stop()
	got := want.check(t, r, crashFn)
	if got.snap == no {
		if r.count("cas/")+r.count(crashFn+".snap") > 0 {
			t.Fatalf("%s: chunks or a snapfile outlived recovery with no snapshot to serve", unackedAbsent)
		}
		if img[crashFn+".snap"] != nil && r.count("quarantine/"+crashFn+".snap") == 0 {
			t.Fatalf("%s: the snapfile recovery did not serve was not quarantined", unackedAbsent)
		}
	}
	for _, op := range tr.then {
		if code := r.op(op, crashFn); code/100 != 2 {
			t.Fatalf("%s after recovery = %d", opNames[op], code)
		}
		got = got.after(op, false)
	}
	got.check(t, r, crashFn)
}

// tri is what acknowledgements promised of a fact. maybe covers the op
// in flight at a crash: it may land on either side, never half-way.
type tri int

const (
	no tri = iota
	yes
	maybe
)

func (v tri) String() string { return [...]string{"no", "yes", "maybe"}[v] }

// expect is the model of one function: registered, with a snapshot.
type expect struct{ present, snap tri }

func (e expect) String() string { return fmt.Sprintf("present=%v snapshot=%v", e.present, e.snap) }

// after folds op into e: acknowledged, or interrupted by the crash.
func (e expect) after(op int, inflight bool) expect {
	next := e
	switch {
	case op == opRegister:
		next.present = yes
	case op == opRecord && e.present == yes, op == opInvoke && !inflight, // a 200 invoke proves a snapshot
		op == opSync:
		next = expect{yes, yes}
	case op == opDelete:
		next = expect{no, no}
	}
	if inflight {
		widen := func(a, b tri) tri { return map[bool]tri{true: a, false: maybe}[a == b] }
		next = expect{widen(e.present, next.present), widen(e.snap, next.snap)}
	}
	return next
}

// check verifies fn's recovered state against e and returns the state
// the daemon serves, the model anchored to it.
func (e expect) check(t *testing.T, r *node, fn string) expect {
	t.Helper()
	code, snap := r.get(fn)
	got := expect{map[bool]tri{true: yes, false: no}[code == http.StatusOK], map[bool]tri{true: yes, false: no}[snap]}
	switch {
	case code != http.StatusOK && code != http.StatusNotFound:
		t.Fatalf("get %s = %d", fn, code)
	case got.present == yes && e.present == no, got.snap == yes && e.snap == no:
		t.Fatalf("%s: %s recovered as %v, acknowledgements promised %v", unackedAbsent, fn, got, e)
	case got.present == no && e.present == yes, got.snap == no && e.snap == yes:
		t.Fatalf("%s: %s recovered as %v, acknowledgements promised %v", ackedSurvive, fn, got, e)
	case code == http.StatusOK && r.op(opInvoke, fn) != map[bool]int{true: http.StatusOK, false: http.StatusNotFound}[snap]:
		t.Fatalf("%s: %s has_snapshot = %v, and invoke disagrees", neverCorrupt, fn, snap)
	case snap && r.deficit(fn) > 0:
		// Every snapshot holds every chunk it references at its commit, so
		// a missing one is a chunk the crash lost.
		t.Fatalf("%s: %s lost %d chunks", ackedSurvive, fn, r.deficit(fn))
	}
	return got
}

// TestRandomKillInvariants crashes a daemon after seeded numbers of
// filesystem operations under a seeded op mix, and recovers every crash
// on both images against a tri-state model of what each acknowledgement
// promised. Rounds run over one lineage: each boots from an image of the
// previous round's final crash (process and durable in turn), so what a
// crash leaves — torn tails, quarantined evidence — is crashed again.
func TestRandomKillInvariants(t *testing.T) {
	t.Parallel()
	const rounds, opsPerRound, crashOneIn, minCrashes = 10, 16, 1, 200
	rng := rand.New(rand.NewSource(0xFAA5))
	fns := []string{"crash-a", "crash-b"}
	model := map[string]expect{fns[0]: {}, fns[1]: {}}
	// check recovers img against the model with fn's op in flight.
	check := func(img fstest.MapFS, fn string, op int) {
		t.Helper()
		r := boot(t, img)
		for name, e := range model {
			if name == fn {
				e = e.after(op, true)
			}
			e.check(t, r, name)
		}
		r.stop()
	}
	files, crashes := fstest.MapFS{}, 0
	for round := 0; round < rounds; round++ {
		n := boot(t, files)
		for fn, e := range model {
			model[fn] = e.check(t, n, fn)
		}
		var taken []*crash
		n.disk.afterOp = func() {
			if rng.Intn(crashOneIn) == 0 {
				taken = append(taken, n.disk.capture(rng))
			}
		}
		for i := 0; i < opsPerRound; i++ {
			fn, op := fns[rng.Intn(len(fns))], rng.Intn(clientOps)
			taken = taken[:0]
			code := n.op(op, fn)
			for _, c := range taken {
				check(c.process, fn, op)
				check(c.durable, fn, op)
			}
			crashes += len(taken)
			if code/100 == 2 {
				model[fn] = model[fn].after(op, false)
			}
		}
		// The round ends in a crash while idle; the next boots from it.
		n.disk.mu.Lock()
		end := n.disk.capture(rng)
		n.disk.mu.Unlock()
		n.stop()
		if files = end.process; round%2 == 1 {
			files = end.durable
		}
	}
	t.Logf("%d crashes", crashes)
	if crashes < minCrashes {
		t.Fatalf("%d crashes taken, want at least %d", crashes, minCrashes)
	}
}

// TestSIGTERMMidRecordDrainsCleanly is the graceful counterpart: a
// shutdown that lands inside a record drains it. No temp file is left,
// every snapfile verifies end to end, the acked record survives a fresh
// New over the same directory, and its snapshot invokes.
func TestSIGTERMMidRecordDrainsCleanly(t *testing.T) {
	dir := t.TempDir()
	d, srv := newTestDaemon(t, Config{StateDir: dir})
	srv.Config.RegisterOnShutdown(d.DrainStreams)
	fn := srv.URL + "/functions/" + crashFn
	if code := doJSON(t, "PUT", fn, customSpec(crashFn, 1), nil).StatusCode; code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	// Hold the record in its VM pause while the shutdown starts.
	if resp := doJSON(t, "PUT", srv.URL+"/chaos", chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointVMMAPI, Op: "/vm", Kind: chaos.KindDelay, DelayMs: 200, Count: 1},
	}}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("arm chaos = %d", resp.StatusCode)
	}
	recorded := make(chan int, 1)
	go func() { recorded <- doJSON(t, "POST", fn+"/record", map[string]string{"input": "A"}, nil).StatusCode }()
	waitFor(t, "the record never reached its pause", func() bool {
		var st chaos.Status
		doJSON(t, "GET", srv.URL+"/chaos", nil, &st)
		return st.Rules[0].Fired == 1
	})
	if err := srv.Config.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := <-recorded; code != http.StatusOK {
		t.Fatalf("record in flight at shutdown = %d, want it drained to 200", code)
	}
	d.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := filepath.Join(dir, e.Name()); strings.HasSuffix(name, ".tmp") {
			t.Fatalf("temp file %s left after the drain", name)
		} else if _, _, err := snapfile.LoadChunked(name); strings.HasSuffix(name, ".snap") && err != nil {
			t.Fatalf("snapfile %s fails verification after the drain: %v", name, err)
		}
	}
	_, again := newTestDaemon(t, Config{StateDir: dir})
	var info FunctionInfo
	if resp := doJSON(t, "GET", again.URL+"/functions/"+crashFn, nil, &info); !info.HasSnapshot {
		t.Fatalf("%s: drained record after restart: get = %d, has_snapshot = false", ackedSurvive, resp.StatusCode)
	}
	if code := doJSON(t, "POST", again.URL+"/functions/"+crashFn+"/invoke", map[string]string{"mode": "faasnap", "input": "B"}, nil).StatusCode; code != http.StatusOK {
		t.Fatalf("invoke of the drained snapshot = %d", code)
	}
}

// TestReadyzProbeLeavesNothing: a crash between the readiness probe's
// create and its remove leaves a file only recovery can remove.
func TestReadyzProbeLeavesNothing(t *testing.T) {
	t.Parallel()
	n := boot(t, fstest.MapFS{})
	var c *crash
	n.disk.afterOp = func() {
		if c == nil {
			c = n.disk.capture(rand.New(rand.NewSource(1)))
		}
	}
	if code, _ := n.do("GET", "/readyz", nil); code != http.StatusOK || c == nil {
		t.Fatalf("readyz = %d, crash taken: %v", code, c != nil)
	}
	n.stop()
	boot(t, c.process) // fails on the probe if recovery leaves it
}
