package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// quick returns fast options for CI-grade runs.
func quick() Options { return Options{Quick: true} }

// cell parses a numeric cell that may carry a ±std suffix.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	if i := strings.IndexRune(s, '±'); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSuffix(strings.TrimSpace(s), " ms")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

func findRow(t *testing.T, rep *Report, prefix ...string) []string {
	t.Helper()
	for _, row := range rep.Rows {
		if len(row) < len(prefix) {
			continue
		}
		ok := true
		for i, p := range prefix {
			if row[i] != p {
				ok = false
				break
			}
		}
		if ok {
			return row
		}
	}
	t.Fatalf("no row with prefix %v in %s", prefix, rep.Name)
	return nil
}

func colIndex(t *testing.T, rep *Report, name string) int {
	t.Helper()
	for i, h := range rep.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, rep.Header)
	return -1
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"fig1", "fig2", "table2", "fig6", "fig7", "fig8", "table3", "fig9", "fig10", "fig11", "footprint", "tiered", "coldstart", "policy", "ablations", "cluster", "claims"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Fatalf("experiment %d = %s, want %s", i, all[i].Name, name)
		}
	}
	if _, err := ByName("fig6"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName(bogus) succeeded")
	}
}

func TestFig1Shape(t *testing.T) {
	rep := Fig1(quick())
	warm := cell(t, findRow(t, rep, "hello-world", "warm")[4])
	fc := cell(t, findRow(t, rep, "hello-world", "firecracker")[4])
	cached := cell(t, findRow(t, rep, "hello-world", "cached")[4])
	reap := cell(t, findRow(t, rep, "hello-world", "reap")[4])
	if !(warm < cached && cached < fc) {
		t.Errorf("fig1 hello-world: warm %v cached %v fc %v", warm, cached, fc)
	}
	if warm > 10 {
		t.Errorf("warm hello-world = %v ms, want a few ms", warm)
	}
	if reap > fc {
		t.Errorf("reap (%v) slower than firecracker (%v) on same-input hello-world", reap, fc)
	}
	// image-diff: REAP degrades below Firecracker (§3.2).
	fcDiff := cell(t, findRow(t, rep, "image-diff", "firecracker")[4])
	reapDiff := cell(t, findRow(t, rep, "image-diff", "reap")[4])
	if reapDiff < fcDiff {
		t.Errorf("image-diff: reap (%v) should not beat firecracker (%v)", reapDiff, fcDiff)
	}
}

func TestFig2Shape(t *testing.T) {
	rep := Fig2(quick())
	means := findRow(t, rep, "mean (µs)")
	warm := cell(t, means[colIndex(t, rep, "warm")])
	cached := cell(t, means[colIndex(t, rep, "cached")])
	fc := cell(t, means[colIndex(t, rep, "firecracker")])
	if !(warm < cached && cached < fc) {
		t.Errorf("fig2 means: warm %v cached %v fc %v", warm, cached, fc)
	}
	if warm < 2 || warm > 3.5 {
		t.Errorf("warm mean fault %v µs, paper ≈2.5", warm)
	}
	if fc < 8 || fc > 25 {
		t.Errorf("firecracker mean fault %v µs, paper ≈13.3", fc)
	}
	totals := findRow(t, rep, "fault time (ms)")
	fcTotal := cell(t, totals[colIndex(t, rep, "firecracker")])
	if fcTotal < 60 || fcTotal > 220 {
		t.Errorf("firecracker fault time %v ms, paper ≈120", fcTotal)
	}
}

func TestTable2Shape(t *testing.T) {
	rep := Table2(quick())
	if len(rep.Rows) == 0 {
		t.Fatal("empty table 2")
	}
	for _, row := range rep.Rows {
		measured := cell(t, row[4])
		paper := cell(t, row[6])
		if measured < paper*0.5 || measured > paper*2 {
			t.Errorf("%s: measured WS A %.1f MB vs paper %.1f MB", row[0], measured, paper)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rep := Fig6(quick())
	fcCol := colIndex(t, rep, "firecracker")
	fsCol := colIndex(t, rep, "faasnap")
	cachedCol := colIndex(t, rep, "cached")
	var ratioSum float64
	var n int
	for _, row := range rep.Rows {
		fc := cell(t, row[fcCol])
		fs := cell(t, row[fsCol])
		cached := cell(t, row[cachedCol])
		if fs >= fc {
			t.Errorf("%s %s: faasnap (%v) not faster than firecracker (%v)", row[0], row[1], fs, fc)
		}
		if fs > cached*1.3 {
			t.Errorf("%s %s: faasnap (%v) more than 30%% over cached (%v)", row[0], row[1], fs, cached)
		}
		ratioSum += fc / fs
		n++
	}
	if avg := ratioSum / float64(n); avg < 1.4 {
		t.Errorf("mean firecracker/faasnap speedup %.2f, paper ≈2.0", avg)
	}
}

func TestFig7Shape(t *testing.T) {
	rep := Fig7(quick())
	fcCol := colIndex(t, rep, "firecracker")
	fsCol := colIndex(t, rep, "faasnap")
	cachedCol := colIndex(t, rep, "cached")
	mm := findRow(t, rep, "mmap")
	if cell(t, mm[fsCol]) >= cell(t, mm[cachedCol]) {
		t.Errorf("mmap: faasnap (%v) not faster than cached (%v)", mm[fsCol], mm[cachedCol])
	}
	hello := findRow(t, rep, "hello-world")
	if cell(t, hello[fsCol]) >= cell(t, hello[fcCol]) {
		t.Errorf("hello-world: faasnap not faster than firecracker")
	}
}

func TestFig8Shape(t *testing.T) {
	rep := Fig8(quick())
	fcCol := colIndex(t, rep, "firecracker")
	reapCol := colIndex(t, rep, "reap")
	fsCol := colIndex(t, rep, "faasnap")
	cachedCol := colIndex(t, rep, "cached")
	// At ratio 2 (the quick sweep's max), REAP must have degraded
	// relative to its sub-1 ratios while FaaSnap tracks Cached.
	low := findRow(t, rep, "image", "0.5")
	high := findRow(t, rep, "image", "2")
	lowRatio := cell(t, low[reapCol]) / cell(t, low[fsCol])
	highRatio := cell(t, high[reapCol]) / cell(t, high[fsCol])
	if highRatio <= lowRatio {
		t.Errorf("REAP/FaaSnap ratio did not grow with input size: %.2f → %.2f", lowRatio, highRatio)
	}
	for _, row := range rep.Rows {
		fs := cell(t, row[fsCol])
		cached := cell(t, row[cachedCol])
		if fs > cached*1.3 {
			t.Errorf("%s ratio %s: faasnap (%v) far from cached (%v)", row[0], row[1], fs, cached)
		}
		if fs >= cell(t, row[fcCol]) {
			t.Errorf("%s ratio %s: faasnap not faster than firecracker", row[0], row[1])
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rep := Table3(quick())
	reap := findRow(t, rep, "reap, image")
	fs := findRow(t, rep, "faasnap, image")
	if cell(t, fs[1]) >= cell(t, reap[1]) {
		t.Errorf("image: faasnap total (%v) not below reap (%v)", fs[1], reap[1])
	}
	if cell(t, fs[5]) >= cell(t, reap[5]) {
		t.Errorf("image: faasnap fault waiting (%v) not below reap (%v)", fs[5], reap[5])
	}
	// REAP's fetch blocks; the ratio total/fetch shows FaaSnap's fetch
	// overlapping execution (fetch can approach total without hurting).
	if cell(t, reap[2]) <= 0 {
		t.Error("reap fetch time missing")
	}
}

func TestFig9Shape(t *testing.T) {
	rep := Fig9(quick())
	if len(rep.Rows) != 4 {
		t.Fatalf("fig9 rows = %d", len(rep.Rows))
	}
	invoke := func(i int) float64 { return cell(t, rep.Rows[i][1]) }
	majors := func(i int) float64 { return cell(t, rep.Rows[i][2]) }
	blocks := func(i int) float64 { return cell(t, rep.Rows[i][4]) }
	if !(invoke(1) < invoke(0) && invoke(3) < invoke(1)) {
		t.Errorf("fig9 invoke not improving: %v %v %v %v", invoke(0), invoke(1), invoke(2), invoke(3))
	}
	// Full FaaSnap must minimize both fault-path disk requests and
	// major faults; every optimization step must beat the baseline.
	// (The relative order of the two intermediate steps depends on the
	// working-set size; see EXPERIMENTS.md.)
	for i := 1; i <= 3; i++ {
		if blocks(i) >= blocks(0) {
			t.Errorf("step %d block requests (%v) not below firecracker (%v)", i, blocks(i), blocks(0))
		}
		if majors(i) >= majors(0) {
			t.Errorf("step %d majors (%v) not below firecracker (%v)", i, majors(i), majors(0))
		}
	}
	if blocks(3) > blocks(1) || blocks(3) > blocks(2) {
		t.Errorf("full faasnap block requests (%v) not minimal: %v %v", blocks(3), blocks(1), blocks(2))
	}
}

func TestFig10Shape(t *testing.T) {
	rep := Fig10(quick())
	fcCol := colIndex(t, rep, "firecracker")
	reapCol := colIndex(t, rep, "reap")
	fsCol := colIndex(t, rep, "faasnap")
	for _, row := range rep.Rows {
		fs := cell(t, row[fsCol])
		reap := cell(t, row[reapCol])
		if row[1] == "same" && fs > reap*1.05 {
			t.Errorf("same-snapshot %s parallel %s: faasnap (%v) above reap (%v)", row[0], row[2], fs, reap)
		}
	}
	// Firecracker with different snapshots degrades as parallelism
	// grows.
	one := cell(t, findRow(t, rep, "hello-world", "different", "1")[fcCol])
	sixteen := cell(t, findRow(t, rep, "hello-world", "different", "16")[fcCol])
	if sixteen <= one {
		t.Errorf("firecracker different-snapshots did not degrade: %v → %v", one, sixteen)
	}
}

func TestFig11Shape(t *testing.T) {
	rep := Fig11(quick())
	fcCol := colIndex(t, rep, "firecracker")
	fsCol := colIndex(t, rep, "faasnap")
	var ratioSum float64
	for _, row := range rep.Rows {
		fc := cell(t, row[fcCol])
		fs := cell(t, row[fsCol])
		if fs >= fc {
			t.Errorf("EBS %s: faasnap (%v) not faster than firecracker (%v)", row[0], fs, fc)
		}
		ratioSum += fc / fs
	}
	if avg := ratioSum / float64(len(rep.Rows)); avg < 1.5 {
		t.Errorf("EBS mean firecracker/faasnap speedup %.2f, paper ≈2.06", avg)
	}
}

func TestFootprintShape(t *testing.T) {
	rep := Footprint(quick())
	var sum float64
	for _, row := range rep.Rows {
		ratio := cell(t, row[4])
		// FaaSnap can use less memory than Firecracker (the paper sees
		// this for 3 of 12 functions — mmap's anonymous regions avoid
		// page-cache bytes entirely) but never wildly more.
		if ratio < 0.3 || ratio > 1.6 {
			t.Errorf("%s: faasnap/firecracker footprint ratio %v, paper ≈1.06 mean", row[0], ratio)
		}
		sum += ratio
	}
	if mean := sum / float64(len(rep.Rows)); mean < 0.5 || mean > 1.4 {
		t.Errorf("mean footprint ratio %v, paper ≈1.06", mean)
	}
}

func TestTieredShape(t *testing.T) {
	rep := Tiered(quick())
	for _, row := range rep.Rows {
		local := cell(t, row[1])
		remote := cell(t, row[2])
		tiered := cell(t, row[3])
		if tiered > remote*1.01 {
			t.Errorf("%s: tiered (%v) worse than all-remote (%v)", row[0], tiered, remote)
		}
		if tiered < local*0.95 {
			t.Errorf("%s: tiered (%v) implausibly beats all-local (%v)", row[0], tiered, local)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	rep := Ablations(quick())
	if len(rep.Rows) < 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Unmerged (gap 0) must have strictly more regions and mmap calls
	// than the default 32-page merge.
	gap0 := findRow(t, rep, "merge gap 0 pages")
	gap32 := findRow(t, rep, "merge gap 32 pages")
	if cell(t, gap0[1]) <= cell(t, gap32[1]) {
		t.Errorf("gap 0 regions (%v) not above gap 32 (%v)", gap0[1], gap32[1])
	}
	if cell(t, gap0[3]) <= cell(t, gap32[3]) {
		t.Errorf("gap 0 mmap calls (%v) not above gap 32 (%v)", gap0[3], gap32[3])
	}
	// Merging never shrinks the loading-set bytes.
	if cell(t, gap32[2]) < cell(t, gap0[2]) {
		t.Errorf("gap 32 LS MB (%v) below gap 0 (%v)", gap32[2], gap0[2])
	}
}

func TestColdStartShape(t *testing.T) {
	rep := ColdStart(quick())
	for _, row := range rep.Rows {
		cold := cell(t, row[1])
		fs := cell(t, row[2])
		warm := cell(t, row[3])
		if !(warm < fs && fs < cold) {
			t.Errorf("%s: warm %v < faasnap %v < cold %v violated", row[0], warm, fs, cold)
		}
		if cold < 500 {
			t.Errorf("%s: cold start %v ms, want at least ~0.5s (boot + init)", row[0], cold)
		}
	}
}

func TestPolicyShape(t *testing.T) {
	rep := PolicyReport(quick())
	// For the rare-invocation trace, faasnap snapshots must cut the
	// p95 start latency below keep-alive-only (cold) and below vanilla
	// snapshots.
	ka := findRow(t, rep, "json", "30m0s", "keep-alive only")
	fc := findRow(t, rep, "json", "30m0s", "ka + firecracker")
	fs := findRow(t, rep, "json", "30m0s", "ka + faasnap")
	p95 := func(row []string) float64 { return cell(t, row[6]) }
	if !(p95(fs) < p95(fc) && p95(fc) < p95(ka)) {
		t.Errorf("p95 ordering violated: faasnap %v, firecracker %v, cold %v", p95(fs), p95(fc), p95(ka))
	}
	// The frequent trace stays warm regardless of policy.
	freq := findRow(t, rep, "json", "1m0s", "keep-alive only")
	warm := cell(t, freq[3])
	cold := cell(t, freq[5])
	if warm < cold*10 {
		t.Errorf("frequent function: warm %v vs cold %v, want overwhelmingly warm", warm, cold)
	}
}

func TestClusterShape(t *testing.T) {
	rep := ClusterReport(quick())
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	none := findRow(t, rep, "no-snapshots")
	pro := findRow(t, rep, "proactive")
	evict := findRow(t, rep, "evict-to-snapshot")
	// Snapshot policies must cut mean start latency hard.
	if cell(t, pro[4]) >= cell(t, none[4])/2 {
		t.Errorf("proactive mean start %v not far below no-snapshots %v", pro[4], none[4])
	}
	if cell(t, evict[4]) >= cell(t, none[4])/2 {
		t.Errorf("evict-to-snapshot mean start %v not far below no-snapshots %v", evict[4], none[4])
	}
	// Eviction-driven snapshots hold no more storage than proactive.
	if cell(t, evict[8]) > cell(t, pro[8]) {
		t.Errorf("evict-to-snapshot storage %v above proactive %v", evict[8], pro[8])
	}
	if cell(t, none[2]) != 0 {
		t.Errorf("no-snapshots served %v snapshot starts", none[2])
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		Name:   "x",
		Title:  "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "with,comma"}},
		Notes:  []string{"n"},
	}
	s := rep.String()
	if !strings.Contains(s, "== x: t ==") || !strings.Contains(s, "note: n") {
		t.Fatalf("render = %q", s)
	}
	csv := rep.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Fatalf("csv escaping broken: %q", csv)
	}
}

func TestTrialsOption(t *testing.T) {
	if (Options{}).trials(5) != 5 {
		t.Fatal("default trials")
	}
	if (Options{Trials: 2}).trials(5) != 2 {
		t.Fatal("override trials")
	}
	if (Options{Quick: true, Trials: 9}).trials(5) != 1 {
		t.Fatal("quick trials")
	}
}

func TestSampleStats(t *testing.T) {
	s := sample{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if s.mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", s.mean())
	}
	// Population std: sqrt(200/3) ms, truncated to the nanosecond.
	if s.std() != 8164965*time.Nanosecond {
		t.Fatalf("std = %v", s.std())
	}
	var empty sample
	if empty.mean() != 0 || empty.std() != 0 {
		t.Fatal("empty sample stats nonzero")
	}
}

// TestPaperTablesGolden regenerates the six sub-second reports in full
// mode and compares each, byte for byte, with its section of the
// committed bench_results.txt (`make experiments` writes that file), so
// a change that moves the virtual clock or the warm-pool simulator shows
// up as a diff of a paper table.
func TestPaperTablesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, section := range strings.Split(string(raw), "\n\n") {
		if name, _, ok := strings.Cut(strings.TrimPrefix(section, "== "), ":"); ok {
			golden[name] = section + "\n"
		}
	}
	for _, name := range []string{"fig2", "table3", "fig9", "policy", "ablations", "cluster"} {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Run(Options{}).String(); got != golden[name] {
			t.Errorf("%s differs from bench_results.txt:\n--- regenerated\n%s--- committed\n%s", name, got, golden[name])
		}
	}
}
