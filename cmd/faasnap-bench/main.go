// Command faasnap-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	faasnap-bench -exp fig6            # one experiment
//	faasnap-bench -exp all             # everything, paper order
//	faasnap-bench -exp fig8 -quick     # reduced smoke run
//	faasnap-bench -exp fig11 -csv      # CSV output
//	faasnap-bench -exp all -parallel 8 # fan independent simulations across 8 workers
//
// Simulations are deterministic: every (experiment, trial) cell runs
// with a fixed seed on its own virtual host, so the tables are
// byte-identical at any -parallel setting. Wall-clock lines go to
// stderr, so stdout of `-exp all` is bench_results.txt exactly.
//
// Each experiment prints the same rows/series the corresponding paper
// table or figure reports, with a note describing the expected shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/core"
	"faasnap/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments to run ("+strings.Join(experiments.Names(), ", ")+", or all)")
		quick    = flag.Bool("quick", false, "reduced function sets and single trials")
		trials   = flag.Int("trials", 0, "override trial count (0 = paper defaults)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		svgDir   = flag.String("svg", "", "also write figure SVGs into this directory")
		disk     = flag.String("disk", "nvme", "snapshot storage device: nvme or ebs")
		cores    = flag.Int("cores", 0, "host cores (0 = default)")
		parallel = flag.Int("parallel", 0, "worker goroutines for independent simulations (0 = all cores); results are identical at any setting")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	opt := experiments.Options{Quick: *quick, Trials: *trials, Parallel: *parallel}
	host := core.DefaultHostConfig()
	switch *disk {
	case "nvme":
	case "ebs":
		host.Disk = blockdev.EBSRemote()
	default:
		fmt.Fprintf(os.Stderr, "unknown disk %q (nvme or ebs)\n", *disk)
		os.Exit(2)
	}
	if *cores > 0 {
		host.Cores = *cores
	}
	opt.Host = host

	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiments.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	suiteStart := time.Now()
	for _, e := range todo {
		start := time.Now()
		rep := e.Run(opt)
		if *csv {
			fmt.Print(rep.CSV())
		} else {
			fmt.Print(rep.String())
		}
		if *svgDir != "" {
			for _, c := range rep.Charts {
				path := filepath.Join(*svgDir, c.Name+".svg")
				if err := os.WriteFile(path, []byte(c.SVG), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("(wrote %s)\n", path)
			}
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v)\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if len(todo) > 1 {
		fmt.Fprintf(os.Stderr, "(%d experiments in %v, %d workers)\n",
			len(todo), time.Since(suiteStart).Round(time.Millisecond), workers)
	}
}
