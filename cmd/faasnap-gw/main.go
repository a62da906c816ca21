// Command faasnap-gw runs the FaaSnap gateway: the multi-host serving
// tier that load-balances invocations across N faasnapd backends with
// snapshot-locality-aware placement (see GATEWAY.md).
//
//	faasnap-gw -listen 127.0.0.1:8800 \
//	    -backends 127.0.0.1:8700,127.0.0.1:8701,127.0.0.1:8702
//
// The gateway exposes the same function API as the daemon, so
// faasnapctl works unchanged with -addr pointed here, plus GET /cluster
// for topology and GET /metrics for gateway telemetry.
//
// Each health sweep (one GET /status per backend) also runs the
// anti-entropy pass: the manifests those replies carry are compared
// across every function's replica set,
// and a rejoined-but-stale backend is repaired — missing registrations
// and snapshots re-replicated, missed deletes propagated — before
// placement stops trying it last (see GATEWAY.md, "Anti-entropy
// re-sync").
//
// SIGINT/SIGTERM drains in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"faasnap/internal/gateway"
)

func main() {
	logger := log.New(os.Stderr, "faasnap-gw: ", log.LstdFlags)
	if err := run(logger); err != nil {
		logger.Fatal(err)
	}
}

// run carries the gateway's whole lifetime so deferred cleanup (the
// health-check loop) executes on every exit path.
func run(logger *log.Logger) error {
	var (
		listen         = flag.String("listen", "127.0.0.1:8800", "gateway listen address")
		backends       = flag.String("backends", "", "comma-separated daemon addresses (host:port), required")
		replicas       = flag.Int("replicas", 1, "standby backends receiving registration and snapshot replication")
		healthInterval = flag.Duration("health-interval", time.Second, "backend GET /status sweep period")
		requestTimeout = flag.Duration("request-timeout", 0, "per-request deadline across all backend attempts (0 = default 30s)")
		quietHTTP      = flag.Bool("quiet-http", false, "drop the per-request access log line (for load benchmarks; telemetry still counts every request)")
	)
	flag.Parse()

	if *backends == "" {
		return fmt.Errorf("-backends is required (e.g. -backends 127.0.0.1:8700,127.0.0.1:8701)")
	}
	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}

	gw, err := gateway.New(gateway.Config{
		Backends:       addrs,
		Logger:         logger,
		Replicas:       *replicas,
		HealthInterval: *healthInterval,
		RequestTimeout: *requestTimeout,
		QuietHTTP:      *quietHTTP,
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	srv := &http.Server{
		Addr:              *listen,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("FaaSnap gateway listening on %s (backends=%d replicas=%d)",
			*listen, len(addrs), *replicas)
		fmt.Fprintf(os.Stderr, "try: curl http://%s/cluster\n", *listen)
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
	return nil
}
