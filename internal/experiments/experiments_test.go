package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := "fig1 fig2 table2 fig6 fig7 fig8 table3 fig9 fig10 fig11 footprint tiered coldstart policy ablations cluster claims"
	if got := strings.Join(Names(), " "); got != want {
		t.Fatalf("experiments = %s, want %s", got, want)
	}
	if _, err := ByName("fig6"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName(bogus) succeeded")
	}
}

// checkShapes evaluates the predicates of section's paperRows on the
// quick reports (smaller function sets, single trials), held to the
// same bounds as the full run. A row that reads cells only the full run
// has is checked by TestExperimentsDoc alone.
func checkShapes(t *testing.T, section string) {
	n := 0
	for _, p := range paperRows {
		if p.section != section || p.fullOnly {
			continue
		}
		n++
		if measured, holds := p.eval(reports(Options{Quick: true})); !holds && p.deviation == 0 {
			t.Errorf("%s %q does not hold: measured %s", section, p.claim, measured)
		}
	}
	if n == 0 {
		t.Fatalf("no quick rows in section %s", section)
	}
}

func TestFig1Shape(t *testing.T)      { checkShapes(t, "fig1") }
func TestFig2Shape(t *testing.T)      { checkShapes(t, "fig2") }
func TestTable2Shape(t *testing.T)    { checkShapes(t, "table2") }
func TestFig6Shape(t *testing.T)      { checkShapes(t, "fig6") }
func TestFig7Shape(t *testing.T)      { checkShapes(t, "fig7") }
func TestFig8Shape(t *testing.T)      { checkShapes(t, "fig8") }
func TestTable3Shape(t *testing.T)    { checkShapes(t, "table3") }
func TestFig9Shape(t *testing.T)      { checkShapes(t, "fig9") }
func TestFig10Shape(t *testing.T)     { checkShapes(t, "fig10") }
func TestFig11Shape(t *testing.T)     { checkShapes(t, "fig11") }
func TestFootprintShape(t *testing.T) { checkShapes(t, "footprint") }
func TestTieredShape(t *testing.T)    { checkShapes(t, "tiered") }
func TestAblationsShape(t *testing.T) { checkShapes(t, "ablations") }
func TestColdStartShape(t *testing.T) { checkShapes(t, "coldstart") }
func TestPolicyShape(t *testing.T)    { checkShapes(t, "policy") }
func TestClusterShape(t *testing.T)   { checkShapes(t, "cluster") }

// committed parses bench_results.txt, as `make experiments` wrote it.
func committed(t *testing.T) (string, meter) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	reps := parseReports(string(raw))
	return string(raw), func(name string) *Report { return reps[name] }
}

// TestParseReports checks that parseReports inverts Report.String on
// every section of bench_results.txt, notes included, and that the
// committed claims section is the C1–C4 rows rebuilt from the parsed
// figure sections.
func TestParseReports(t *testing.T) {
	raw, reps := committed(t)
	sections := strings.Split(strings.TrimSuffix(raw, "\n\n"), "\n\n")
	if len(sections) != len(All()) {
		t.Fatalf("%d sections, want %d", len(sections), len(All()))
	}
	for i, section := range sections {
		if got := reps(Names()[i]).String(); got != section+"\n" {
			t.Errorf("%s does not round-trip:\n--- parsed and rendered\n%s--- committed\n%s\n", Names()[i], got, section)
		}
	}
	if got := claimsReport(reps).String(); got != reps("claims").String() {
		t.Errorf("claims is not the rows of the committed figures:\n--- rebuilt\n%s--- committed\n%s", got, reps("claims"))
	}
}

// TestExperimentsDoc renders every section's paperRows from the
// committed bench_results.txt, with no rerun, and fails when
// EXPERIMENTS.md's copy between the section's markers differs, printing
// the block to paste, or when a row fails its shape with no deviation
// to cite.
func TestExperimentsDoc(t *testing.T) {
	_, reps := committed(t)
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		begin, end := "<!-- paperRows "+name+" -->\n", "<!-- end paperRows -->"
		want := paperMarkdown(name, reps)
		_, rest, _ := strings.Cut(string(doc), begin)
		if got, _, _ := strings.Cut(rest, end); got != want && strings.Count(want, "\n") > 2 {
			t.Errorf("EXPERIMENTS.md's %s rows differ from bench_results.txt; paste:\n%s%s%s", name, begin, want, end)
		}
		if strings.Contains(want, "| ✘") || strings.Contains(want, "%!") || strings.Contains(want, "NaN") {
			t.Errorf("%s: a row fails its shape and cites no deviation, or misformats its Measured text:\n%s", name, want)
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{Name: "x", Title: "t", Header: []string{"a", "b"}, Rows: [][]string{{"1", "with,comma"}}, Notes: []string{"n"}}
	if s := rep.String(); !strings.Contains(s, "== x: t ==") || !strings.Contains(s, "note: n") {
		t.Fatalf("render = %q", s)
	}
	if csv := rep.CSV(); !strings.Contains(csv, `"with,comma"`) {
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
	_, golden := committed(t)
	for _, name := range []string{"fig2", "table3", "fig9", "policy", "ablations", "cluster"} {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Run(Options{}).String(); got != golden(name).String() {
			t.Errorf("%s differs from bench_results.txt:\n--- regenerated\n%s--- committed\n%s", name, got, golden(name))
		}
	}
}
