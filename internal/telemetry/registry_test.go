package telemetry

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-fetching the series each iteration exercises the
			// registration path under contention too.
			for j := 0; j < iters; j++ {
				reg.Counter("reqs_total", "requests", L("route", "/x")).Inc()
				g := reg.Gauge("in_flight", "in flight", nil)
				g.Inc()
				reg.Histogram("latency_seconds", "latency", nil).
					Observe(time.Duration(j) * time.Microsecond)
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("reqs_total", "requests", L("route", "/x")).Value(); got != workers*iters {
		t.Fatalf("counter = %v, want %d", got, workers*iters)
	}
	if got := reg.Gauge("in_flight", "in flight", nil).Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
	if got := reg.Histogram("latency_seconds", "latency", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %v, want %d", got, workers*iters)
	}
}

func TestSameSeriesReturnsSameInstance(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", "h", L("x", "1"))
	b := reg.Counter("c", "h", L("x", "1"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	if c := reg.Counter("c", "h", L("x", "2")); c == a {
		t.Fatal("different labels must return a different series")
	}
}

// Finding an existing series allocates nothing: its key is rendered on
// the stack and looked up without a string conversion, whatever order
// its labels were given in. (A value that needs escaping costs its
// escaped copy.)
func TestSeriesLookupAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	labels := L("route", "/functions/{name}/invoke", "code", "200", "mode", "faasnap")
	reversed := Labels{labels[2], labels[1], labels[0]}
	c := reg.Counter("reqs_total", "requests", labels)
	h := reg.Histogram("latency_seconds", "latency", labels)
	r := reg.RatioHistogram("hit_ratio", "hits", labels)
	g := reg.Gauge("up", "up", nil)
	allocs := testing.AllocsPerRun(100, func() {
		if reg.Counter("reqs_total", "requests", reversed) != c ||
			reg.Histogram("latency_seconds", "latency", labels) != h ||
			reg.RatioHistogram("hit_ratio", "hits", reversed) != r ||
			reg.Gauge("up", "up", nil) != g {
			t.Fatal("a lookup created a new series")
		}
	})
	if allocs != 0 {
		t.Fatalf("a lookup of existing series allocates %.1f objects", allocs)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name must panic")
		}
	}()
	reg.Gauge("m", "h", nil)
}

func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("faasnap_invocations_total", "Invocations served.", L("mode", "faasnap")).Add(3)
	reg.Counter("faasnap_invocations_total", "Invocations served.", L("mode", "reap")).Inc()
	reg.Gauge("faasnap_vmm_active", "Live VMM instances.", nil).Set(2)
	h := reg.Histogram("faasnap_fault_latency_seconds", "Fault latency.", L("kind", "minor"))
	h.Observe(600 * time.Nanosecond) // [0.5µs, 1µs) bucket
	h.Observe(3 * time.Microsecond)  // [2µs, 4µs) bucket

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	want := `# HELP faasnap_fault_latency_seconds Fault latency.
# TYPE faasnap_fault_latency_seconds histogram
faasnap_fault_latency_seconds_bucket{kind="minor",le="5e-07"} 0
faasnap_fault_latency_seconds_bucket{kind="minor",le="1e-06"} 1
faasnap_fault_latency_seconds_bucket{kind="minor",le="2e-06"} 1
faasnap_fault_latency_seconds_bucket{kind="minor",le="4e-06"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="8e-06"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="1.6e-05"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="3.2e-05"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="6.4e-05"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.000128"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.000256"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.000512"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.001024"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.002048"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.004096"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.008192"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.016384"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.032768"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.065536"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.131072"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.262144"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="0.524288"} 2
faasnap_fault_latency_seconds_bucket{kind="minor",le="+Inf"} 2
faasnap_fault_latency_seconds_sum{kind="minor"} 3.6e-06
faasnap_fault_latency_seconds_count{kind="minor"} 2
# HELP faasnap_invocations_total Invocations served.
# TYPE faasnap_invocations_total counter
faasnap_invocations_total{mode="faasnap"} 3
faasnap_invocations_total{mode="reap"} 1
# HELP faasnap_vmm_active Live VMM instances.
# TYPE faasnap_vmm_active gauge
faasnap_vmm_active 2
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestExpositionStableAcrossScrapes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "a", L("x", "1")).Add(7)
	reg.Gauge("b", "b", nil).Set(1.5)
	reg.Histogram("c_seconds", "c", nil).Observe(time.Millisecond)

	var one, two bytes.Buffer
	reg.WritePrometheus(&one)
	reg.WritePrometheus(&two)
	if one.String() != two.String() {
		t.Fatalf("scrapes differ with no traffic:\n%s\nvs\n%s", one.String(), two.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "", L("v", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	want := `esc_total{v="a\"b\\c\nd"} 1`
	if !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("escaped series missing:\n%s", buf.String())
	}
}
