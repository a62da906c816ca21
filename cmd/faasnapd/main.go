// Command faasnapd runs the FaaSnap daemon: a REST control plane for
// function registration, snapshot recording, and invocation serving.
//
//	faasnapd -listen :8700 -state /var/lib/faasnap -kv 127.0.0.1:6379
//
// With -kv-embedded it also starts the bundled Redis-like kvstore and
// wires the daemon to it.
//
// SIGINT/SIGTERM drains in-flight requests, then shuts every VMM down
// via daemon.Close, so snapshot state on disk stays consistent.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/chaos"
	"faasnap/internal/core"
	"faasnap/internal/daemon"
	"faasnap/internal/kvstore"
	"faasnap/internal/slo"
)

func main() {
	logger := log.New(os.Stderr, "faasnapd: ", log.LstdFlags)
	if err := run(logger); err != nil {
		logger.Fatal(err)
	}
}

// run carries the daemon's whole lifetime so that deferred cleanup
// (kvstore, VMMs) executes on every exit path, which logger.Fatal in
// main would skip.
func run(logger *log.Logger) error {
	var (
		listen        = flag.String("listen", "127.0.0.1:8700", "daemon listen address")
		state         = flag.String("state", "", "state directory for snapshot persistence (empty = none)")
		kvAddr        = flag.String("kv", "", "kvstore address for input descriptors (empty = none)")
		kvEmbedded    = flag.Bool("kv-embedded", false, "start an embedded kvstore and use it")
		disk          = flag.String("disk", "nvme", "snapshot storage device: nvme or ebs")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		chaosPath     = flag.String("chaos", "", "JSON chaos config armed at start (also settable live via PUT /chaos)")
		invokeTimeout = flag.Duration("invoke-timeout", 0, "per-request deadline for /invoke and /burst (0 = default 30s)")
		maxInFlight   = flag.Int64("max-inflight", 0, "admission window: in-flight invocations plus burst widths, and the widest burst accepted (0 = default 256)")
		quietHTTP     = flag.Bool("quiet-http", false, "drop the per-request access log line (for load benchmarks; telemetry still counts every request)")
		sloLatency    = flag.Duration("slo-latency", 0, "per-request latency objective for GET /slo (0 = default 500ms)")
		sloTarget     = flag.Float64("slo-target", 0, "SLO attainment target in (0,1) (0 = default 0.99)")
	)
	flag.Parse()
	if *sloTarget < 0 || *sloTarget >= 1 {
		return fmt.Errorf("-slo-target must be in [0,1), got %g", *sloTarget)
	}

	var chaosCfg *chaos.Config
	if *chaosPath != "" {
		raw, err := os.ReadFile(*chaosPath)
		if err != nil {
			return fmt.Errorf("chaos config: %w", err)
		}
		var cc chaos.Config
		if err := json.Unmarshal(raw, &cc); err != nil {
			return fmt.Errorf("chaos config %s: %w", *chaosPath, err)
		}
		chaosCfg = &cc
	}

	if *pprofAddr != "" {
		// A dedicated mux keeps the profiler off the API listener and
		// away from http.DefaultServeMux.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	host := core.DefaultHostConfig()
	switch *disk {
	case "nvme":
	case "ebs":
		host.Disk = blockdev.EBSRemote()
	default:
		return fmt.Errorf("unknown disk %q (nvme or ebs)", *disk)
	}

	if *kvEmbedded {
		kv := kvstore.NewServer()
		addr, err := kv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer kv.Close()
		*kvAddr = addr
		logger.Printf("embedded kvstore listening on %s", addr)
	}

	d, err := daemon.New(daemon.Config{
		StateDir: *state,
		Host:     host,
		KVAddr:   *kvAddr,
		Logger:   logger,
		Chaos:    chaosCfg,
		// Serve /readyz (503, recovering) while manifest replay and
		// snapshot re-deployment run in the background, so a host with
		// many snapshots starts answering health checks immediately.
		AsyncRecovery: true,
		QuietHTTP:     *quietHTTP,
		SLO:           slo.Objective{Latency: *sloLatency, Target: *sloTarget},
		Resilience: daemon.ResilienceConfig{
			InvokeTimeout: *invokeTimeout,
			MaxInFlight:   *maxInFlight,
		},
	})
	if err != nil {
		return err
	}
	defer d.Close()

	srv := &http.Server{
		Addr:              *listen,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// Fault-watch streams never end on their own; drop them when
	// Shutdown starts so draining doesn't wait out its whole deadline.
	srv.RegisterOnShutdown(d.DrainStreams)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("FaaSnap daemon listening on %s (disk=%s state=%q)", *listen, *disk, *state)
		fmt.Fprintf(os.Stderr, "try: curl -X PUT http://%s/functions/hello-world\n", *listen)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("shutting down VMMs")
	return nil
}
