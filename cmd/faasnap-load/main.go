// Command faasnap-load is the open-loop load harness: it synthesizes
// (or replays) a seeded Poisson/Zipf arrival schedule over a fleet of
// registered functions, fires it at a daemon or gateway without ever
// waiting for responses, and writes the machine-readable
// BENCH_open_loop.json digest (p50/p99/p999, goodput under SLO, shed
// and degraded rates) that later PRs regress against.
//
// Fire at an already-running tier:
//
//	faasnap-load -target http://127.0.0.1:8710 -functions 100 -rps 500 -duration 30s
//
// Or let the harness stand up its own cluster — N in-process daemons
// on real TCP listeners behind a faasnap-gw routing tier (N=1 skips
// the gateway) — register the fleet, fire, and report:
//
//	faasnap-load -cluster 3 -functions 60 -tenants 16 -rps 1000 -duration 20s -out BENCH_open_loop.json
//
// -mutexprofile captures the in-process mutex contention profile of
// the whole run (daemons included in -cluster mode), which is how the
// sharded-registry work is verified: at ≥1k rps the registry must not
// appear in the top contended mutexes — only the admission limiter
// path should be left.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/daemon"
	"faasnap/internal/gateway"
	"faasnap/internal/loadgen"
	"faasnap/internal/slo"
)

func main() {
	logger := log.New(os.Stderr, "faasnap-load: ", log.LstdFlags)
	if err := run(logger); err != nil {
		logger.Fatal(err)
	}
}

func run(logger *log.Logger) error {
	var (
		target    = flag.String("target", "", "base URL of a running daemon or gateway (mutually exclusive with -cluster)")
		cluster   = flag.Int("cluster", 0, "start N in-process daemons (behind a gateway when N>1) and fire at them")
		functions = flag.Int("functions", 24, "registered synthetic functions the trace draws from")
		tenants   = flag.Int("tenants", 8, "tenants sharing the platform (Zipf-skewed load split)")
		skew      = flag.Float64("skew", 1.2, "Zipf s parameter for tenant and function popularity (>1)")
		rps       = flag.Float64("rps", 200, "mean Poisson arrival rate")
		duration  = flag.Duration("duration", 10*time.Second, "open-loop firing window")
		seed      = flag.Int64("seed", 1, "schedule seed; same seed + config replays the same schedule")
		mode      = flag.String("mode", "faasnap", "invocation mode each arrival requests")
		input     = flag.String("input", "A", "invocation input name")
		slo       = flag.Duration("slo", 500*time.Millisecond, "latency SLO for goodput accounting")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request client deadline")
		maxOut    = flag.Int("max-outstanding", 4096, "outstanding-request window; arrivals beyond it are dropped, not queued")
		out       = flag.String("out", "BENCH_open_loop.json", "report path (empty = stdout only)")
		tracePath = flag.String("trace", "", "replay this trace file instead of synthesizing")
		saveTrace = flag.String("save-trace", "", "save the synthesized trace here for later replay")
		noSetup   = flag.Bool("no-setup", false, "skip fleet registration/recording (functions already exist)")
		maxInFl   = flag.Int64("max-inflight", 0, "-cluster daemons' admission window (0 = daemon default)")
		mutexProf = flag.String("mutexprofile", "", "write a mutex contention profile (debug=1 text) of the whole run")
		sloReport = flag.String("slo-report", "", "after the run, fetch the serving tier's SLO report (/cluster/slo or /slo) and write it here")
		sloCheck  = flag.Bool("slo-check", false, "fail if the SLO engine's attainment disagrees with client-side goodput-under-SLO by more than 1 point")
		evReport  = flag.String("events-report", "", "after the run, fetch the cluster event ledger (/cluster/events or /events) and write it here")
	)
	flag.Parse()

	if (*target == "") == (*cluster == 0) {
		return fmt.Errorf("exactly one of -target or -cluster is required")
	}

	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(5)
	}

	ctx := context.Background()

	base := *target
	casAddrs := []string{*target}
	if *cluster > 0 {
		addr, daemons, cleanup, err := startCluster(*cluster, *maxInFl, *slo, logger)
		if err != nil {
			return err
		}
		defer cleanup()
		base = addr
		casAddrs = daemons
	}

	// Build the schedule first: replay beats synthesis, and synthesis is
	// deterministic in (seed, config).
	var tr *loadgen.Trace
	if *tracePath != "" {
		var err error
		if tr, err = loadgen.Load(*tracePath); err != nil {
			return err
		}
		logger.Printf("replaying %s: %d arrivals over %v", *tracePath, len(tr.Arrivals), tr.Config.Duration)
	} else {
		tr = loadgen.Synthesize(loadgen.TraceConfig{
			Seed: *seed, Duration: *duration, RPS: *rps,
			Tenants: *tenants, Functions: *functions, Skew: *skew,
			Mode: *mode, Input: *input,
		})
		logger.Printf("synthesized schedule: %d arrivals, %d functions, %d tenants, skew %.2f, seed %d",
			len(tr.Arrivals), tr.Config.Functions, tr.Config.Tenants, tr.Config.Skew, tr.Config.Seed)
	}
	if *saveTrace != "" {
		if err := tr.Save(*saveTrace); err != nil {
			return err
		}
		logger.Printf("trace saved to %s", *saveTrace)
	}

	if !*noSetup {
		setupStart := time.Now()
		if err := loadgen.Setup(ctx, base, tr.Config.Functions, tr.Config.Mode, tr.Config.Input, 8); err != nil {
			return fmt.Errorf("fleet setup: %w", err)
		}
		logger.Printf("fleet ready: %d functions registered and recorded in %v",
			tr.Config.Functions, time.Since(setupStart).Round(time.Millisecond))
	}

	logger.Printf("firing open-loop at %s: %.0f rps for %v (SLO %v)", base, tr.Config.RPS, tr.Config.Duration, *slo)
	rep, err := loadgen.Run(ctx, loadgen.RunConfig{
		Target: base, SLO: *slo, Timeout: *timeout, MaxOutstanding: *maxOut,
	}, tr)
	if err != nil {
		return err
	}

	if *mutexProf != "" {
		f, err := os.Create(*mutexProf)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("mutex").WriteTo(f, 1); err != nil {
			f.Close()
			return err
		}
		f.Close()
		logger.Printf("mutex profile written to %s", *mutexProf)
	}

	// Fold the serving daemons' chunk-store accounting into the bench
	// artifact; a tier without a chunk store contributes zeros.
	rep.CASDedupRatio, rep.CASRestoreBytesSaved = casStats(casAddrs)
	if rep.CASDedupRatio > 0 {
		logger.Printf("chunk store: dedup ratio %.3f, %d restore bytes saved",
			rep.CASDedupRatio, rep.CASRestoreBytesSaved)
	}

	raw, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(raw))
	if *out != "" {
		if err := rep.Save(*out); err != nil {
			return err
		}
		logger.Printf("report written to %s", *out)
	}
	logger.Printf("p50=%.2fms p99=%.2fms p999=%.2fms goodput=%.1f rps (%.1f%% of offered) shed=%d degraded=%d",
		rep.Latency.P50Ms, rep.Latency.P99Ms, rep.Latency.P999Ms,
		rep.GoodputRPS, 100*rep.GoodputRatio, rep.Shed, rep.Degraded)

	if *sloReport != "" || *sloCheck {
		if err := sloArtifact(base, *sloReport, *sloCheck, rep, logger); err != nil {
			return err
		}
	}
	if *evReport != "" {
		if err := eventsArtifact(base, *evReport, logger); err != nil {
			return err
		}
	}
	return nil
}

// eventsArtifact fetches the serving tier's event ledger — the merged
// /cluster/events view on a gateway, the single-daemon /events ledger
// otherwise — and writes it as a bench artifact next to the report, so
// a run leaves behind what the control plane did (repairs, GC sweeps,
// breaker trips, SLO pages) alongside how fast it served.
func eventsArtifact(base, path string, logger *log.Logger) error {
	var raw []byte
	for _, p := range []string{"/cluster/events", "/events"} {
		resp, err := http.Get(base + p)
		if err != nil {
			return fmt.Errorf("events report: %w", err)
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if rerr != nil {
			return fmt.Errorf("events report: %w", rerr)
		}
		if resp.StatusCode == http.StatusNotFound {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("events report: %s answered %d", p, resp.StatusCode)
		}
		raw = body
		break
	}
	if raw == nil {
		return fmt.Errorf("events report: no event ledger endpoint at %s", base)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	logger.Printf("event ledger written to %s", path)
	return nil
}

// sloArtifact fetches the serving tier's SLO report, optionally writes
// it as the second bench artifact, and — with check — cross-validates
// the engine's attainment against the client's own goodput-under-SLO.
// The two measure the same thing from opposite ends of the wire (the
// engine judges server wall time, the client judges response time), so
// more than a point of disagreement means one of them is lying.
func sloArtifact(base, path string, check bool, rep *loadgen.Report, logger *log.Logger) error {
	raw, report, err := tierSLO(base)
	if err != nil {
		return fmt.Errorf("slo report: %w", err)
	}
	if path != "" {
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		logger.Printf("SLO report written to %s", path)
	}
	if !check {
		return nil
	}
	var good, bad int64
	for _, f := range report.Functions {
		good += f.Good
		bad += f.Bad
	}
	if good+bad == 0 {
		return fmt.Errorf("slo-check: engine counted no requests")
	}
	engine := float64(good) / float64(good+bad)
	// The client-side equivalent: good (200-within-SLO) over the
	// requests the server actually answered. Client-dropped arrivals,
	// transport errors, and other 4xx never reach (or are excluded by)
	// the engine, so they stay out of the denominator here too.
	clientGood := rep.GoodputRatio * float64(rep.Offered)
	clientCounted := float64(rep.OK + rep.Shed + rep.DeadlineExceeded + rep.Unroutable)
	if clientCounted == 0 {
		return fmt.Errorf("slo-check: client counted no requests")
	}
	client := clientGood / clientCounted
	diff := engine - client
	if diff < 0 {
		diff = -diff
	}
	logger.Printf("slo-check: engine attainment %.4f (good=%d bad=%d), client goodput-under-SLO %.4f, diff %.4f",
		engine, good, bad, client, diff)
	if diff > 0.01 {
		return fmt.Errorf("slo-check failed: engine attainment %.4f vs client goodput %.4f differ by %.4f (> 0.01)",
			engine, client, diff)
	}
	return nil
}

// casStats aggregates GET /cas across the serving daemons: the fleet
// dedup ratio is 1 - sum(physical)/sum(logical), and restore savings
// sum. Backends without a chunk store (404, or a gateway address that
// doesn't proxy /cas) are skipped.
func casStats(bases []string) (float64, int64) {
	var logical, physical, saved int64
	for _, b := range bases {
		if b == "" {
			continue
		}
		resp, err := http.Get(b + "/cas")
		if err != nil {
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var doc struct {
			Stats struct {
				LocalBytes int64 `json:"local_bytes"`
				ColdBytes  int64 `json:"cold_bytes"`
			} `json:"stats"`
			LogicalBytes      int64 `json:"logical_bytes"`
			RestoreBytesSaved int64 `json:"restore_bytes_saved"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			continue
		}
		logical += doc.LogicalBytes
		physical += doc.Stats.LocalBytes + doc.Stats.ColdBytes
		saved += doc.RestoreBytesSaved
	}
	if logical <= 0 {
		return 0, saved
	}
	ratio := 1 - float64(physical)/float64(logical)
	if ratio < 0 {
		ratio = 0
	}
	return ratio, saved
}

// tierSLO GETs the tier's SLO report: /cluster/slo on a gateway
// (using its merged "cluster" view), falling back to /slo on a daemon.
func tierSLO(base string) ([]byte, *slo.Report, error) {
	for _, p := range []string{"/cluster/slo", "/slo"} {
		resp, err := http.Get(base + p)
		if err != nil {
			return nil, nil, err
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			continue
		}
		var doc struct {
			Cluster   *slo.Report          `json:"cluster"`
			Functions []slo.FunctionReport `json:"functions"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, nil, fmt.Errorf("parse %s: %w", p, err)
		}
		if doc.Cluster != nil {
			return raw, doc.Cluster, nil
		}
		return raw, &slo.Report{Functions: doc.Functions}, nil
	}
	return nil, nil, fmt.Errorf("no SLO endpoint (/cluster/slo or /slo) at %s", base)
}

// startCluster brings up n in-process daemons on real TCP listeners;
// with n>1 a gateway tier fronts them and its address is returned.
// The daemons' SLO engines judge against sloLat — the same objective
// the client's goodput accounting uses, so -slo-check compares like
// with like. Everything runs with HTTP request logging off — at
// open-loop rates the log write is itself a contention point.
// The daemon base URLs come back separately so the chunk-store
// accounting can be scraped per host after the run.
func startCluster(n int, maxInFlight int64, sloLat time.Duration, logger *log.Logger) (string, []string, func(), error) {
	quiet := log.New(io.Discard, "", 0)
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}

	var addrs, bases []string
	for i := 0; i < n; i++ {
		// Each daemon gets a real state dir so recordings flow through
		// the content-addressed chunk store and the bench artifact's
		// dedup accounting measures the same path production runs.
		state, err := os.MkdirTemp("", "faasnap-load-state-*")
		if err != nil {
			cleanup()
			return "", nil, nil, err
		}
		cleanups = append(cleanups, func() { os.RemoveAll(state) })
		d, err := daemon.New(daemon.Config{
			Host:      core.DefaultHostConfig(),
			Logger:    quiet,
			QuietHTTP: true,
			StateDir:  state,
			SLO:       slo.Config{Default: slo.Objective{Latency: sloLat}},
			Resilience: daemon.ResilienceConfig{
				MaxInFlight: maxInFlight,
			},
		})
		if err != nil {
			cleanup()
			return "", nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.Close()
			cleanup()
			return "", nil, nil, err
		}
		srv := &http.Server{Handler: d.Handler()}
		go srv.Serve(ln)
		addrs = append(addrs, ln.Addr().String())
		bases = append(bases, "http://"+ln.Addr().String())
		cleanups = append(cleanups, func() { srv.Close(); d.Close() })
	}
	logger.Printf("cluster: %d daemons on %v", n, addrs)
	if n == 1 {
		return "http://" + addrs[0], bases, cleanup, nil
	}

	// The gateway here is a router, not the admission point: the
	// daemons' limiters are what the open-loop baseline is probing, so
	// the per-backend spillover cap is lifted out of the way and 429s
	// come back from the daemons with occupancy-scaled Retry-After.
	gw, err := gateway.New(gateway.Config{
		Backends:       addrs,
		Logger:         quiet,
		HealthInterval: 500 * time.Millisecond,
		MaxPerBackend:  1 << 20,
	})
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		cleanup()
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: gw.Handler()}
	go srv.Serve(ln)
	cleanups = append(cleanups, func() { srv.Close(); gw.Close() })
	logger.Printf("cluster: gateway on %s", ln.Addr().String())
	return "http://" + ln.Addr().String(), bases, cleanup, nil
}
