package daemon

// The crash matrix, in process. Each case drives a daemon over an
// in-memory disk (disk_test.go), takes a crash at a named crashpoint or
// after a seeded number of filesystem operations, and recovers a fresh
// New over both images the crash leaves against RESILIENCE.md's three
// invariants. Crashpoint observation is process-global, so none of
// these tests runs in parallel.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"
	"time"

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
var owned = regexp.MustCompile(`^(manifest\.log|[^/]+\.snap|cas/chunks/[0-9a-f]{2}/[0-9a-f]{64}|cas/cold/[0-9a-f]{2}/[0-9a-f]{64}\.z|quarantine/[^/]+)$`)

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
	var rd io.Reader = http.NoBody
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	}
	rec := httptest.NewRecorder()
	n.h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

// crashSpec is a custom function small enough to record in
// milliseconds; every one shares its base image, so boot chunks dedup.
func crashSpec(name string) map[string]interface{} {
	spec := casSpec(name)
	spec["boot_mb"] = 1
	return spec
}

// The client operations a crash can interrupt.
const (
	opRegister = iota
	opRecord
	opInvoke
	opDelete
	opCount
)

// op runs one client operation on fn and returns its status.
func (n *node) op(op int, fn string) int {
	path, body := "/functions/"+fn, any(nil)
	switch op {
	case opRegister:
		body = crashSpec(fn)
	case opRecord:
		path, body = path+"/record", map[string]string{"input": "A"}
	case opInvoke:
		path, body = path+"/invoke", map[string]string{"mode": "faasnap", "input": "B"}
	}
	code, _ := n.do([opCount]string{"PUT", "POST", "POST", "DELETE"}[op], path, body)
	return code
}

// get returns GET /functions/{fn}'s status and has_snapshot.
func (n *node) get(fn string) (int, bool) {
	code, body := n.do("GET", "/functions/"+fn, nil)
	var info FunctionInfo
	json.Unmarshal(body, &info)
	return code, info.HasSnapshot
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

// crashScenario is one row of the matrix: the acknowledged ops before
// the crash, the op the crash interrupts, and what recovery must show on
// the process image (index 0) and the durable one (1).
type crashScenario struct {
	prep    []int
	trigger int
	want    [2]expect
	// quarantined: the image held a complete snapfile the journal never
	// recorded, which recovery must have moved to quarantine.
	quarantined [2]bool
	// then runs on the recovered daemon, which must provision anew.
	then []int
}

var (
	registered = [2]expect{{yes, no}, {yes, no}}
	recorded   = [2]expect{{yes, yes}, {yes, yes}}
)

var crashScenarios = map[string]crashScenario{
	// A chunk's temp written, a chunk committed, every chunk committed,
	// the snapfile's temp written: no snapfile references what the record
	// wrote, so it is all swept.
	chaos.CrashChunkPreRename:    {prep: []int{opRegister}, trigger: opRecord, want: registered},
	chaos.CrashChunkPostRename:   {prep: []int{opRegister}, trigger: opRecord, want: registered},
	chaos.CrashRecordPostChunks:  {prep: []int{opRegister}, trigger: opRecord, want: registered},
	chaos.CrashSnapfilePreRename: {prep: []int{opRegister}, trigger: opRecord, want: registered},
	// Snapfile renamed into place, directory not flushed: the process
	// image holds a complete orphan, the durable one no snapfile at all.
	chaos.CrashSnapfilePostRename: {prep: []int{opRegister}, trigger: opRecord, want: registered, quarantined: [2]bool{true, false}},
	// Snapfile committed and flushed, record not journaled: an orphan on
	// both images.
	chaos.CrashRecordPreJournal: {prep: []int{opRegister}, trigger: opRecord, want: registered, quarantined: [2]bool{true, true}},
	// Journal record written, not flushed: the process image keeps it
	// whole; the power cut keeps a torn prefix, which recovery truncates.
	chaos.CrashManifestPreSync: {trigger: opRegister, want: [2]expect{{yes, no}, {no, no}}, then: []int{opRegister, opRecord, opInvoke}},
	// Journal record flushed: durable though no reply was sent.
	chaos.CrashManifestPostAppend:  {trigger: opRegister, want: registered},
	chaos.CrashRegisterPostJournal: {trigger: opRegister, want: registered},
	// Reply written: the record is acknowledged and survives whole — on a
	// fresh store, so every chunk shard it wrote into was new.
	chaos.CrashRecordPostReply: {prep: []int{opRegister}, trigger: opRecord, want: recorded},
	// Tombstone flushed, snapfile not yet unlinked: the function stays
	// deleted, the leftover file cannot resurrect it, and a registration
	// of the name starts clean.
	chaos.CrashDeletePostJournal: {prep: []int{opRegister, opRecord}, trigger: opDelete, want: [2]expect{}, then: []int{opRegister}},
}

func (sc crashScenario) verify(t *testing.T, r *node, image int) {
	want := sc.want[image]
	want.check(t, r, crashFn)
	if want.snap == no && r.count("cas/")+r.count(crashFn+".snap") > 0 {
		t.Fatalf("%s: the record's chunks or snapfile outlived recovery", unackedAbsent)
	}
	if sc.quarantined[image] && r.count("quarantine/"+crashFn+".snap") == 0 {
		t.Fatalf("%s: the unjournaled snapfile was not quarantined", unackedAbsent)
	}
	for _, op := range sc.then {
		if code := r.op(op, crashFn); code/100 != 2 {
			t.Fatalf("op %d after recovery = %d", op, code)
		}
		want = want.after(op, false)
	}
	want.check(t, r, crashFn)
}

func TestCrashpointMatrix(t *testing.T) {
	for _, point := range chaos.Crashpoints() {
		sc, ok := crashScenarios[point]
		if !ok {
			t.Errorf("crashpoint %q has no scenario — add one to crashScenarios", point)
			continue
		}
		t.Run(point, func(t *testing.T) {
			n := boot(t, fstest.MapFS{})
			for _, op := range sc.prep {
				n.op(op, crashFn)
			}
			rng := rand.New(rand.NewSource(1))
			var c *crash
			restore := chaos.ObserveCrashpoints(func(p string) {
				if p == point && c == nil {
					n.disk.mu.Lock()
					c = n.disk.capture(rng)
					n.disk.mu.Unlock()
				}
			})
			n.op(sc.trigger, crashFn)
			restore()
			n.stop()
			if c == nil {
				t.Fatalf("the trigger never passed %s", point)
			}
			t.Run("process", func(t *testing.T) { sc.verify(t, boot(t, c.process), 0) })
			t.Run("durable", func(t *testing.T) { sc.verify(t, boot(t, c.durable), 1) })
		})
	}
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
	case op == opRecord && e.present == yes, op == opInvoke && !inflight: // a 200 invoke proves a snapshot
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
	const rounds, opsPerRound, crashOneIn, minCrashes = 10, 16, 2, 200
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
			fn, op := fns[rng.Intn(len(fns))], rng.Intn(opCount)
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
	if code := post("PUT", fn, crashSpec(crashFn)); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	// Hold the record in its VM pause while the shutdown starts.
	if resp := doJSON(t, "PUT", srv.URL+"/chaos", chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointVMMAPI, Op: "/vm", Kind: chaos.KindDelay, DelayMs: 200, Count: 1},
	}}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("arm chaos = %d", resp.StatusCode)
	}
	recorded := make(chan int, 1)
	go func() { recorded <- post("POST", fn+"/record", map[string]string{"input": "A"}) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var st chaos.Status
		if doJSON(t, "GET", srv.URL+"/chaos", nil, &st); st.Rules[0].Fired == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the record never reached its pause")
		}
	}
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
	if code := post("POST", again.URL+"/functions/"+crashFn+"/invoke", map[string]string{"mode": "faasnap", "input": "B"}); code != http.StatusOK {
		t.Fatalf("invoke of the drained snapshot = %d", code)
	}
}

// TestReadyzProbeLeavesNothing: a crash between the readiness probe's
// create and its remove leaves a file only recovery can remove.
func TestReadyzProbeLeavesNothing(t *testing.T) {
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
