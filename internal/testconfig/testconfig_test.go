// The tests sit outside the package so the matrix tests can drive a
// parsed config through experiments.Matrix, which imports testconfig.
package testconfig_test

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"faasnap/internal/experiments"
	"faasnap/internal/testconfig"
)

func minimalJSON() string {
	return `{
		"name": "t",
		"functions": ["hello-world"],
		"record_input": "A",
		"test_inputs": ["B"],
		"modes": ["faasnap"],
		"trials": 1
	}`
}

func TestParseMinimal(t *testing.T) {
	c, err := testconfig.Parse([]byte(minimalJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "t" || len(c.Functions) != 1 || c.Trials != 1 {
		t.Fatalf("config = %+v", c)
	}
}

func TestParseDefaults(t *testing.T) {
	c, err := testconfig.Parse([]byte(`{"name":"d","test_inputs":["B"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Functions) != 12 {
		t.Fatalf("default functions = %d", len(c.Functions))
	}
	if len(c.Modes) != 4 || c.RecordInput != "A" || c.Trials != 1 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestParseRejections(t *testing.T) {
	bad := []string{
		`{`,
		`{"name":"x","test_inputs":["B"],"bogus":1}`,
		`{"test_inputs":["B"]}`,
		`{"name":"x","test_inputs":[]}`,
		`{"name":"x","test_inputs":["C"]}`,
		`{"name":"x","test_inputs":["ratio:-2"]}`,
		`{"name":"x","test_inputs":["B"],"functions":["nope"]}`,
		`{"name":"x","test_inputs":["B"],"modes":["nope"]}`,
		`{"name":"x","test_inputs":["B"],"record_input":"C"}`,
		`{"name":"x","test_inputs":["B"],"trials":100}`,
		`{"name":"x","test_inputs":["B"],"parallel":1000}`,
		`{"name":"x","test_inputs":["B"],"disk":"floppy"}`,
	}
	for i, raw := range bad {
		if _, err := testconfig.Parse([]byte(raw)); err == nil {
			t.Errorf("case %d accepted: %s", i, raw)
		}
	}
}

func TestRunMinimalMatrix(t *testing.T) {
	c, err := testconfig.Parse([]byte(minimalJSON()))
	if err != nil {
		t.Fatal(err)
	}
	var progress []string
	res, err := experiments.Matrix(c, func(s string) { progress = append(progress, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	row := res.Rows[0]
	if row.Function != "hello-world" || row.Mode != "faasnap" || row.Input != "B" {
		t.Fatalf("row = %+v", row)
	}
	if row.MeanMs <= 0 || row.Faults == 0 {
		t.Fatalf("row metrics = %+v", row)
	}
	if len(progress) == 0 {
		t.Fatal("no progress reported")
	}
	if !strings.Contains(res.Table(), "hello-world") {
		t.Fatal("table rendering broken")
	}
}

func TestRunBurstMatrix(t *testing.T) {
	c, err := testconfig.Parse([]byte(`{
		"name": "b",
		"functions": ["hello-world"],
		"test_inputs": ["A"],
		"modes": ["faasnap"],
		"parallel": 4
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Matrix(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Parallel != 4 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestRunModeComparisonShape(t *testing.T) {
	c, err := testconfig.Parse([]byte(`{
		"name": "cmp",
		"functions": ["json"],
		"test_inputs": ["B"],
		"modes": ["firecracker", "faasnap"],
		"trials": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Matrix(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]testconfig.Row{}
	for _, r := range res.Rows {
		byMode[r.Mode] = r
	}
	if byMode["faasnap"].MeanMs >= byMode["firecracker"].MeanMs {
		t.Fatalf("faasnap (%v) not faster than firecracker (%v)",
			byMode["faasnap"].MeanMs, byMode["firecracker"].MeanMs)
	}
}

func TestShippedConfigsParse(t *testing.T) {
	for _, name := range []string{"test-2inputs.json", "test-6inputs.json", "test-burst.json"} {
		c, err := testconfig.LoadFile(filepath.Join("..", "..", "configs", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name == "" || len(c.TestInputs) == 0 {
			t.Fatalf("%s: incomplete config %+v", name, c)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := testconfig.LoadFile(filepath.Join(t.TempDir(), "no.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	res := &testconfig.Results{
		Name:    "x",
		Started: time.Now(),
		Elapsed: time.Second,
		Rows:    []testconfig.Row{{Function: "f", Mode: "faasnap", Input: "B", MeanMs: 12.5}},
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back testconfig.Results
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rows[0].MeanMs != 12.5 {
		t.Fatalf("round trip = %+v", back)
	}
}
