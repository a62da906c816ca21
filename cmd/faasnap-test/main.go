// Command faasnap-test runs a JSON-described test matrix, mirroring
// the paper artifact's `test.py test-2inputs.json` workflow (App. A.4).
//
//	faasnap-test configs/test-2inputs.json
//	faasnap-test -json results.json configs/test-6inputs.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"faasnap/internal/experiments"
	"faasnap/internal/testconfig"
)

func main() {
	var (
		jsonOut = flag.String("json", "", "also write results as JSON to this file")
		quiet   = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: faasnap-test [-json out.json] <config.json>")
		os.Exit(2)
	}
	cfg, err := testconfig.LoadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	report := func(s string) { fmt.Fprintln(os.Stderr, s) }
	if *quiet {
		report = nil
	}
	res, err := experiments.Matrix(cfg, report)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", *jsonOut)
	}
}
