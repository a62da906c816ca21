package gateway

// The repair rule over every state of one function on three replicas.
// plan's repairs run on an ideal executor that keeps the daemon's
// journal rules, pass after pass, until plan has nothing left to do;
// the passes and the state they leave must keep every acknowledged
// mutation and leave the replicas agreeing. Nothing is sampled, unlike
// TestProtocolModel's seeded schedules: every combination of the
// replica alphabet is one case. The states today's rule leaves
// unconverged are listed under named gaps (ROADMAP item 7), which the
// test prints.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/bits"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"faasnap/internal/daemon"
	"faasnap/internal/statedir"
)

// entry is fn's entry in the view, for tests that read one.
func (v *backendView) entry(fn string) (daemon.StatusFunction, bool) {
	for _, e := range v.Functions {
		if e.Name == fn {
			return e, true
		}
	}
	return daemon.StatusFunction{}, false
}

// enumChunks is the chunk count of a recording: replica i may miss
// chunk i and owe chunk 3+i, so no two replicas lack the same chunk.
const (
	enumChunks = 6
	enumAll    = 1<<enumChunks - 1
)

// enumReplica is one replica of function "f": what its GET /status
// shows, and which chunks of its recording it holds (bit i is chunk i)
// and its lazy fetcher still owes.
type enumReplica struct {
	status        bool // the sweep has a current status from it
	present       bool
	deleted, snap bool
	gen           uint64
	rec           byte
	held, pending uint8
}

func (r enumReplica) live() bool { return r.status && r.present && !r.deleted }

// missing is what the replica lacks and nobody owes.
func (r enumReplica) missing() uint8 {
	if !r.snap {
		return 0
	}
	return enumAll &^ r.held &^ r.pending
}

func (r enumReplica) String() string {
	switch {
	case !r.status:
		return "no-status"
	case !r.present:
		return "absent"
	case r.deleted:
		return fmt.Sprintf("tombstone@%d", r.gen)
	case !r.snap:
		return fmt.Sprintf("live@%d", r.gen)
	}
	return fmt.Sprintf("%c@%d/k%d/j%d", r.rec, r.gen, bits.OnesCount8(r.missing()), bits.OnesCount8(r.pending))
}

// enumAlphabet lists the states replica i can be in: no status; absent;
// or a tombstone, a live entry without a snapshot, or a live entry with
// recording x or y missing k and owing j chunks, k, j in {0, 1}, each
// at generation 1+g for g in {0, 1, 2} (the journal mints the first
// generation at 1).
func enumAlphabet(i int) []enumReplica {
	out := []enumReplica{{}, {status: true}}
	for gen := uint64(1); gen <= 3; gen++ {
		out = append(out,
			enumReplica{status: true, present: true, deleted: true, gen: gen},
			enumReplica{status: true, present: true, gen: gen})
		for _, rec := range []byte("xy") {
			for k := 0; k < 2; k++ {
				for j := 0; j < 2; j++ {
					r := enumReplica{status: true, present: true, snap: true, gen: gen, rec: rec, held: enumAll}
					if k == 1 {
						r.held &^= 1 << i
					}
					if j == 1 {
						r.held &^= 1 << (3 + i)
						r.pending = 1 << (3 + i)
					}
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// enumViews is what a sweep over set would collect, with outside — a
// backend outside f's replica set — holding the newest copy of all.
func enumViews(set *[3]enumReplica, members []*Backend, outside *Backend) map[string]*backendView {
	views := make(map[string]*backendView, len(set)+1)
	for i, r := range append(set[:], enumReplica{status: true, present: true, snap: true, gen: 9, rec: 'z', held: enumAll}) {
		if !r.status {
			continue
		}
		v := &backendView{StatusResponse: daemon.StatusResponse{Ready: true, Digest: "enum"}}
		if r.present {
			e := daemon.StatusFunction{Entry: statedir.Entry{Name: "f", Generation: r.gen, Deleted: r.deleted, HasSnapshot: r.snap},
				ChunksPending: bits.OnesCount8(r.pending), ChunksMissing: bits.OnesCount8(r.missing())}
			if r.snap {
				e.RecordInput = string(r.rec)
			}
			if e.ChunksMissing > 0 {
				e.DeficitSeq = uint64(100 + i)
			}
			v.Functions = []daemon.StatusFunction{e}
		}
		if i == len(set) {
			views[outside.Addr] = v
		} else {
			views[members[i].Addr] = v
		}
	}
	return views
}

// The properties, by the name a failure is reported under.
const (
	propFixedPoint = "no fixed point after 2 passes"
	propNoStatus   = "repair reaches a replica with no status or outside the set"
	propNoSource   = "repair copies a state no replica in the set holds"
	propInFlight   = "repair targets a copy whose lazy fetcher owns all it lacks"
	propOutranks   = "copy outranks its source"
	propResurrects = "tombstone resurrects"
	propOneRec     = "live replicas hold different recordings"
	propChunks     = "chunk left missing that peers hold"
)

// enumApply runs one repair on set as an ideal daemon would: a register
// mints a generation unless the function is live (with the same spec:
// the enumeration's functions have none), a delete mints one, and a
// sync adopts max(local, source) along with the source's recording and
// every chunk of it the source holds. It returns the properties the
// repair breaks.
func enumApply(set *[3]enumReplica, at map[string]int, r repair) []string {
	var broken []string
	ti, ok := at[r.target.Addr]
	if !ok || !set[ti].status {
		return append(broken, propNoStatus)
	}
	t := &set[ti]
	holds := func(state func(enumReplica) bool) bool {
		for i, o := range set {
			if i != ti && o.status && o.present && state(o) {
				return true
			}
		}
		return false
	}
	switch r.kind {
	case repairDelete:
		if !holds(func(o enumReplica) bool { return o.deleted }) {
			return append(broken, propNoSource)
		}
		if t.live() {
			*t = enumReplica{status: true, present: true, deleted: true, gen: t.gen + 1}
		}
	case repairRegister:
		if !holds(enumReplica.live) {
			return append(broken, propNoSource)
		}
		if !t.live() {
			*t = enumReplica{status: true, present: true, gen: t.gen + 1}
		}
	case repairChunks, repairChunksEager:
		i, ok := at[r.source]
		if !ok || !set[i].status {
			return append(broken, propNoStatus)
		}
		s := set[i]
		if !s.live() || !s.snap {
			return append(broken, propNoSource)
		}
		if t.live() && t.snap && t.gen == s.gen && t.pending != 0 && t.missing() == 0 {
			broken = append(broken, propInFlight)
		}
		held := s.held
		if t.live() && t.snap && t.rec == s.rec {
			held |= t.held
		}
		*t = enumReplica{status: true, present: true, snap: true, gen: max(t.gen, s.gen), rec: s.rec, held: held}
		if t.gen > s.gen {
			broken = append(broken, propOutranks)
		}
	}
	return broken
}

// enumRun takes set to plan's fixed point and returns the final state
// and the properties broken on the way or by the end.
func enumRun(set [3]enumReplica, backends, members []*Backend, outside *Backend, at map[string]int) ([3]enumReplica, []string) {
	var broken []string
	// The newest acknowledged mutation is a delete when a tombstone
	// holds the highest generation any replica reports.
	var top uint64
	deleted := false
	for _, r := range set {
		if r.status && r.present && (r.gen > top || r.gen == top && r.deleted) {
			top, deleted = r.gen, r.deleted
		}
	}
	for pass := 0; ; pass++ {
		repairs := plan(enumViews(&set, members, outside), backends, len(members)-1)
		if len(repairs) == 0 {
			break
		}
		if pass == 2 {
			broken = append(broken, propFixedPoint)
			break
		}
		for _, r := range repairs {
			broken = append(broken, enumApply(&set, at, r)...)
		}
	}
	for i, r := range set {
		if deleted && r.live() {
			broken = append(broken, propResurrects)
		}
		for _, o := range set {
			if r.live() && o.live() && (r.snap != o.snap || r.rec != o.rec) {
				broken = append(broken, propOneRec)
			}
		}
		var peers uint8
		for j, o := range set {
			if j != i && o.live() && o.snap && o.rec == r.rec {
				peers |= o.held
			}
		}
		if r.live() && r.missing()&peers != 0 {
			broken = append(broken, propChunks)
		}
	}
	return set, broken
}

// enumGaps is the allow-list: the states today's rule does not
// converge, by the gap they fall in, each with the properties it
// excuses. ROADMAP item 7 tracks all three: a fix empties its entry,
// and the test then fails until the entry is deleted.
var enumGaps = []struct {
	name    string
	excuses []string
	holds   func(set [3]enumReplica) bool
}{
	{
		// Generations are per-replica counters: two replicas that each
		// missed a different mutation tie, and the loser's copy — its
		// chunk deficit included — is never repaired.
		name:    "item 7(i): live copies at one generation hold different recordings",
		excuses: []string{propOneRec, propChunks},
		holds: func(set [3]enumReplica) bool {
			for _, a := range set {
				for _, b := range set {
					if a.live() && b.live() && a.snap && b.snap && a.gen == b.gen && a.rec != b.rec {
						return true
					}
				}
			}
			return false
		},
	},
	{
		// A replica down while the function was deleted and registered
		// again rejoins live with its old recording at a lower generation;
		// the winner is live without a snapshot, so nothing is synced and
		// the old recording keeps serving the winner's 404s.
		name:    "item 7(iii), delete+re-register: the newest live copy has no snapshot, an older one has",
		excuses: []string{propOneRec, propChunks},
		holds: func(set [3]enumReplica) bool {
			for _, a := range set {
				for _, b := range set {
					if a.live() && b.live() && !a.snap && b.snap && a.gen > b.gen {
						return true
					}
				}
			}
			return false
		},
	},
	{
		// A repair fetches from one complete source; loss spread over the
		// replicas is never healed although every chunk is still held.
		name:    "item 7(ii): chunks missing on several copies, none complete",
		excuses: []string{propChunks},
		holds: func(set [3]enumReplica) bool {
			for _, a := range set {
				if !a.live() || a.missing() == 0 {
					continue
				}
				complete := false
				for _, b := range set {
					complete = complete || b.live() && b.gen == a.gen && b.rec == a.rec && b.held == enumAll
				}
				if !complete {
					return true
				}
			}
			return false
		},
	},
}

// enumExplain returns the index of the first gap that holds in final
// and excuses everything broken, -1 when none does.
func enumExplain(final [3]enumReplica, broken []string) int {
	for i, g := range enumGaps {
		if !g.holds(final) {
			continue
		}
		excused := true
		for _, p := range broken {
			excused = excused && slices.Contains(g.excuses, p)
		}
		if excused {
			return i
		}
	}
	return -1
}

// TestRepairRuleEveryState runs plan over every state of one function
// on three replicas, with a fourth backend outside the replica set
// holding a newer copy, and checks, for each: plan reaches a fixed
// point within 2 passes; no repair reaches a replica with no status or
// outside the set, or names one as source; every repair copies a state
// some replica in the set holds; no repair targets a
// copy at its source's generation whose lazy fetcher owes everything
// it lacks (pending > 0, nothing missing); no copy outranks its source;
// no tombstone at the highest generation resurrects; all live replicas
// end holding one recording; and none is left missing a chunk its
// peers hold. No sockets, goroutines or sleeps.
func TestRepairRuleEveryState(t *testing.T) {
	t.Parallel()
	backends := []*Backend{{Addr: "r0:1"}, {Addr: "r1:1"}, {Addr: "r2:1"}, {Addr: "r3:1"}}
	members := preference(backends, "f", 3)
	outside := backends[0]
	at := map[string]int{}
	for i, b := range members {
		at[b.Addr] = i
	}
	for _, b := range backends {
		if _, ok := at[b.Addr]; !ok {
			outside = b
		}
	}
	alphabet := [3][]enumReplica{enumAlphabet(0), enumAlphabet(1), enumAlphabet(2)}
	states, failures := 0, 0
	allowed := make([][]string, len(enumGaps))
	for _, a := range alphabet[0] {
		for _, b := range alphabet[1] {
			for _, c := range alphabet[2] {
				states++
				set := [3]enumReplica{a, b, c}
				final, broken := enumRun(set, backends, members, outside, at)
				if len(broken) == 0 {
					continue
				}
				line := fmt.Sprintf("%v -> %v", set, final)
				if g := enumExplain(final, broken); g >= 0 {
					allowed[g] = append(allowed[g], line)
					continue
				}
				if failures++; failures <= 20 {
					slices.Sort(broken)
					t.Errorf("%s: %s", line, strings.Join(slices.Compact(broken), "; "))
				}
			}
		}
	}
	t.Logf("%d states, %d outside the allow-list", states, failures)
	for i, g := range enumGaps {
		t.Logf("allowed, %s: %d states, e.g.", g.name, len(allowed[i]))
		for _, line := range allowed[i][:min(3, len(allowed[i]))] {
			t.Logf("  %s", line)
		}
		if len(allowed[i]) == 0 {
			t.Errorf("allow-list entry %q matches no state: delete it", g.name)
		}
	}
}

// TestRepairActionsDocumented lints the repair vocabulary against the
// docs, as TestGatewayMetricsLint does the metric families: the action
// labels faasnap_gw_resync_total books must equal GATEWAY.md's row for
// it, and the repair kinds — the repair event's fields.action — must
// equal OBSERVABILITY.md's repair row. A kind added without a doc row
// fails here.
func TestRepairActionsDocumented(t *testing.T) {
	counters, actions := map[string]bool{}, map[string]bool{}
	f, err := parser.ParseFile(token.NewFileSet(), "antientropy.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "repairKind" {
			return true
		}
		for _, v := range vs.Values {
			s, err := strconv.Unquote(v.(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			actions[s], counters[repairKind(s).counter()] = true, true
		}
		return true
	})
	documented := func(doc, row string) map[string]bool {
		raw, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(row) + `.*$`).FindString(string(raw))
		list := regexp.MustCompile(`\([^)]*\)`).FindString(line)
		out := map[string]bool{}
		for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(list, -1) {
			out[m[1]] = true
		}
		return out
	}
	for _, c := range []struct {
		doc, row string
		want     map[string]bool
	}{
		{"GATEWAY.md", "| `faasnap_gw_resync_total` |", counters},
		{"OBSERVABILITY.md", "| `repair` |", actions},
	} {
		got := documented(c.doc, c.row)
		if fmt.Sprint(got) != fmt.Sprint(c.want) || len(c.want) == 0 {
			t.Errorf("%s row %s lists %v; the executor books %v", c.doc, c.row, got, c.want)
		}
	}
}
