package daemon

// The daemon half of the observability plane: the per-invocation
// flight recorder (GET /profiles) and the SLO burn-rate engine
// (GET /slo). Every invoke/burst request appends one obs.Profile on
// the way out — including shed, not-found, and deadline outcomes — and
// feeds the SLO engine with its real wall time, the measurement a
// client's own goodput-under-SLO is judged against.

import (
	"net/http"
	"strconv"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/events"
	"faasnap/internal/metrics"
	"faasnap/internal/obs"
	"faasnap/internal/slo"
	"faasnap/internal/telemetry"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recordProfile finalizes and appends one flight record, then feeds the
// SLO engine. Deferred from the invoke/burst handlers so every exit
// path — shed, not-found, deadline, success — leaves a record.
func (d *Daemon) recordProfile(p *obs.Profile, status int, wall time.Duration) {
	if status == 0 {
		status = http.StatusOK
	}
	p.Status = status
	p.WallMs = ms(wall)
	p.UnixMs = time.Now().UnixMilli()
	d.profiles.Append(p)
	if counted, good := d.slo.Judge(status, wall); counted {
		d.slo.Record(p.Function, good, d.observeSLO)
	}
}

// observeSLO publishes one SLO evaluation: the burn-rate and
// attainment gauges, and a slo_page event when the outcome moved the
// page condition. The engine calls it under its lock, so gauges and
// events land in the order the engine decided them.
func (d *Daemon) observeSLO(fr slo.FunctionReport, pageChanged bool) {
	for _, w := range fr.Windows {
		d.telemetry.Gauge("faasnap_slo_burn_rate",
			"Error-budget burn rate per function and window (1 = burning exactly the budget).",
			telemetry.L("function", fr.Function, "window", w.Window)).Set(w.BurnRate)
	}
	d.telemetry.Gauge("faasnap_slo_attainment",
		"Lifetime SLO attainment per function (good fraction of counted requests).",
		telemetry.L("function", fr.Function)).Set(fr.Attainment)
	if pageChanged {
		d.events.Append(events.Event{
			Type: events.SLOPage, Function: fr.Function,
			Fields: map[string]string{"burning": strconv.FormatBool(fr.Burning)},
		})
	}
}

// fillProfile copies one simulated invocation's measurements into the
// flight record: virtual phase timings, fault counts by kind, the
// page-cache delta, and the prefetch-effectiveness join when present.
func fillProfile(p *obs.Profile, r *core.InvokeResult) {
	p.ServedMode = r.Mode.String()
	p.SetupMs = ms(r.Setup)
	p.FetchMs = ms(r.Fetch)
	p.ExecMs = ms(r.Invoke)
	p.TotalMs = ms(r.Total)
	if r.Faults != nil {
		p.FaultsByKind = make(map[string]int64, int(metrics.NumFaultKinds))
		for k := metrics.FaultKind(0); k < metrics.NumFaultKinds; k++ {
			if n := r.Faults.Count[k]; n > 0 {
				p.FaultsByKind[k.String()] = n
			}
		}
		p.MajorFaultMs = ms(r.Faults.Time[metrics.FaultMajor])
	}
	p.Cache = &obs.CacheDelta{
		MinorHits:      r.CacheStats.MinorHits,
		Misses:         r.CacheStats.Misses,
		ReadaheadPages: r.CacheStats.ReadaheadPages,
		PopulatedPages: r.CacheStats.PopulatedPages,
	}
	if r.Prefetch != nil {
		p.Prefetch = &obs.PrefetchDelta{
			PrefetchedPages: r.Prefetch.PrefetchedPages,
			UsedPages:       r.Prefetch.UsedPages,
			HitPages:        r.Prefetch.HitPages,
			Precision:       r.Prefetch.Precision,
			Recall:          r.Prefetch.Recall,
			WastedBytes:     r.Prefetch.WastedBytes,
			MissedMajorMs:   ms(r.Prefetch.MissedMajorTime),
		}
	}
	if r.LSDegraded {
		p.Degraded = true
		if p.DegradedReason == "" {
			p.DegradedReason = "loading-set-io"
		}
	}
}

// handleProfiles serves the flight recorder: raw records (newest
// first, `limit`), `summary=1` per-function aggregation, or
// `slowest=N` top-K by wall time; `fn`/`function` and `mode` filter.
func (d *Daemon) handleProfiles(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.Filter{Function: q.Get("fn"), Mode: q.Get("mode")}
	if f.Function == "" {
		f.Function = q.Get("function")
	}
	if q.Get("summary") == "1" {
		writeJSON(w, http.StatusOK, obs.Summarize(d.profiles.Query(f, 0)))
		return
	}
	if q.Get("slowest") != "" {
		if n, ok := queryCount(w, r, "slowest", 0); ok {
			writeJSON(w, http.StatusOK, map[string]interface{}{"profiles": d.profiles.Slowest(f, n)})
		}
		return
	}
	if limit, ok := queryCount(w, r, "limit", 100); ok {
		writeJSON(w, http.StatusOK, map[string]interface{}{"profiles": d.profiles.Query(f, limit)})
	}
}

// sloReport is the burn-rate engine's per-function report.
func (d *Daemon) sloReport(*http.Request) (*slo.Report, error) { return d.slo.Report(), nil }
