package hostmm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"faasnap/internal/metrics"
	"faasnap/internal/telemetry"
)

// ObserveFaults adds one invocation's fault statistics to the
// telemetry registry: per-kind counts, summed service time, and the
// per-kind latency histograms the exposition exports alongside the
// paper's Figure 2 bucketing.
func ObserveFaults(reg *telemetry.Registry, s *metrics.FaultStats) {
	for k := metrics.FaultKind(0); k < metrics.NumFaultKinds; k++ {
		if s.Count[k] == 0 {
			continue
		}
		labels := telemetry.L("kind", k.String())
		reg.Counter("faasnap_faults_total",
			"Guest page faults by resolution kind.", labels).
			Add(float64(s.Count[k]))
		reg.Counter("faasnap_fault_seconds_total",
			"Summed fault service time by resolution kind.", labels).
			Add(s.Time[k].Seconds())
		reg.Histogram("faasnap_fault_latency_seconds",
			"Per-fault service latency by resolution kind.", labels).
			ObserveBucketed(&s.KindHist[k])
	}
	if s.VCPUBloc > 0 {
		reg.Counter("faasnap_vcpu_blocked_seconds_total",
			"Extra vCPU blocked time beyond fault service (kvm_vcpu_block).", nil).
			Add(s.VCPUBloc.Seconds())
	}
}

// FaultTimeline is one traced invocation's faults with the header
// fields that identify it: the unit of the NDJSON fault-timeline format
// that GET /functions/{name}/faults serves, faasnap-trace -jsonl writes,
// and faasnap-trace -daemon reads.
type FaultTimeline struct {
	Function, Mode, Input, TraceID string
	Setup, Total                   time.Duration
	Events                         []FaultEvent
}

// Encode renders tl as NDJSON lines joined by '\n' (none trailing): an
// "invocation" header, one "fault" line per event, and an "end" line
// that marks the group boundary for watch-mode consumers. The bytes are
// what encoding/json makes of a map with these keys — sorted keys, its
// string escaping, its float format — written directly, because a
// timeline is tens of thousands of lines.
func (tl *FaultTimeline) Encode() []byte {
	b := make([]byte, 0, 256+len(tl.Events)*104)
	b = append(b, `{"event":"invocation","function":`...)
	b = appendJSONString(b, tl.Function)
	b = append(b, `,"input":`...)
	b = appendJSONString(b, tl.Input)
	b = append(b, `,"mode":`...)
	b = appendJSONString(b, tl.Mode)
	b = append(b, `,"setup_us":`...)
	b = strconv.AppendInt(b, tl.Setup.Microseconds(), 10)
	b = append(b, `,"total_us":`...)
	b = strconv.AppendInt(b, tl.Total.Microseconds(), 10)
	b = append(b, `,"trace_id":`...)
	b = appendJSONString(b, tl.TraceID)
	b = append(b, "}\n"...)
	for _, ev := range tl.Events {
		b = append(b, `{"at_us":`...)
		b = strconv.AppendInt(b, ev.At.Microseconds(), 10)
		// A duration is whole nanoseconds, so in microseconds it is 0 or
		// at least 0.001 and far below 1e21: the range where
		// encoding/json prints a float64 in %f form, shortest digits.
		b = append(b, `,"dur_us":`...)
		b = strconv.AppendFloat(b, float64(ev.Duration)/float64(time.Microsecond), 'f', -1, 64)
		b = append(b, `,"event":"fault","kind":`...)
		b = appendJSONString(b, ev.Kind.String())
		b = append(b, `,"page":`...)
		b = strconv.AppendInt(b, ev.Page, 10)
		b = append(b, `,"write":`...)
		b = strconv.AppendBool(b, ev.Write)
		b = append(b, "}\n"...)
	}
	b = append(b, `{"event":"end","faults":`...)
	b = strconv.AppendInt(b, int64(len(tl.Events)), 10)
	return append(b, '}')
}

// appendJSONString appends s as encoding/json encodes a string. The
// plain case — printable ASCII with nothing JSON or HTML escapes — is
// copied; anything else goes through encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// DecodeFaultTimelines reads what Encode writes — one timeline, or a
// watch stream of them, newline-terminated or not — and calls each with
// every timeline as its end line arrives. Times come back at the
// format's resolution: At and the header durations in whole
// microseconds. It stops at the first line it cannot read, or at the
// first error each returns.
func DecodeFaultTimelines(r io.Reader, each func(*FaultTimeline) error) error {
	type line struct {
		Event    string  `json:"event"`
		Function string  `json:"function"`
		Mode     string  `json:"mode"`
		Input    string  `json:"input"`
		TraceID  string  `json:"trace_id"`
		SetupUs  int64   `json:"setup_us"`
		TotalUs  int64   `json:"total_us"`
		AtUs     int64   `json:"at_us"`
		Page     int64   `json:"page"`
		Kind     string  `json:"kind"`
		DurUs    float64 `json:"dur_us"`
		Write    bool    `json:"write"`
	}
	var ln line
	var tl *FaultTimeline
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		ln = line{}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return fmt.Errorf("hostmm: fault timeline line: %w", err)
		}
		if ln.Event != "invocation" && tl == nil {
			return fmt.Errorf("hostmm: fault timeline: %q line before its invocation line", ln.Event)
		}
		switch ln.Event {
		case "invocation":
			tl = &FaultTimeline{
				Function: ln.Function, Mode: ln.Mode, Input: ln.Input, TraceID: ln.TraceID,
				Setup: time.Duration(ln.SetupUs) * time.Microsecond,
				Total: time.Duration(ln.TotalUs) * time.Microsecond,
			}
		case "fault":
			kind, err := metrics.ParseFaultKind(ln.Kind)
			if err != nil {
				return fmt.Errorf("hostmm: fault timeline: %w", err)
			}
			tl.Events = append(tl.Events, FaultEvent{
				At:       time.Duration(ln.AtUs) * time.Microsecond,
				Page:     ln.Page,
				Kind:     kind,
				Duration: time.Duration(math.Round(ln.DurUs * float64(time.Microsecond))),
				Write:    ln.Write,
			})
		case "end":
			if err := each(tl); err != nil {
				return err
			}
			tl = nil
		}
	}
	return sc.Err()
}
