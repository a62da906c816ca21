package daemon

import (
	"fmt"
	"net/http"
	"time"

	"faasnap/internal/telemetry"
)

// statusWriter records the status code while passing everything else
// through. Unwrap lets http.ResponseController reach the underlying
// writer's Flush, which the fault-watch streaming endpoint needs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// statusClass buckets a status code into its Prometheus-conventional
// class label ("2xx", "4xx", ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", code/100)
}

// instrument wraps one route with the per-route HTTP metrics: request
// counts by status class, latency histogram, and in-flight gauge. The
// route label is the registered pattern, not the raw path, to keep
// series cardinality bounded.
func (d *Daemon) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	labels := telemetry.L("route", route)
	inFlight := d.telemetry.Gauge("faasnap_http_in_flight",
		"Requests currently being served, by route.", labels)
	latency := d.telemetry.Histogram("faasnap_http_request_seconds",
		"HTTP request latency, by route.", labels)
	// Pre-resolve the per-class request counters: statusClass has only
	// six values, and resolving the series at wrap time keeps the
	// registry's family lock off the per-request path.
	byClass := make(map[string]*telemetry.Counter)
	for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx", "other"} {
		byClass[class] = d.telemetry.Counter("faasnap_http_requests_total",
			"HTTP requests served, by route and status class.",
			telemetry.L("route", route, "class", class))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		inFlight.Inc()
		defer inFlight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next(sw, r)
		latency.Observe(time.Since(start))
		byClass[statusClass(sw.status)].Inc()
	}
}

// logRequests is the outermost middleware: one log line per request
// with method, path, status, and wall time. QuietHTTP removes it
// entirely — request accounting still happens in instrument.
func (d *Daemon) logRequests(next http.Handler) http.Handler {
	if d.cfg.QuietHTTP {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Scrape and liveness probes arrive every sweep interval from
		// every monitor; logging them would drown real traffic.
		if r.URL.Path == "/metrics" || r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		d.log.Printf("%s %s -> %d (%v)", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
	})
}
