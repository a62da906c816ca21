package main

// The benchmark's declared surface: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root repeats
// these names for the driver; TestSpecMatchesBenchmarkJSON keeps the
// two in step.

// Workload names.
const (
	wlSmallGateway = "small-gateway"
	wlPaperDirect  = "paper-direct"
	wlBurstDirect  = "burst-direct"
	wlRecordSync   = "record-sync"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wlSmallGateway, "24 small functions behind a 3-daemon gateway, Zipf mix: fixed per-request cost (hop, HTTP, RPCs, bookkeeping) is its largest share"},
	{wlPaperDirect, "the nine Figure-6 functions x 4 restore modes on one daemon, no gateway: core+sim do nearly all the work; carries the paper's ratios"},
	{wlBurstDirect, "POST /burst of 8-16 contending VMs in one simulation: same sim/core layers used for many-process hand-off, not a VM alone"},
	{wlRecordSync, "record, eager chunk sync to a fresh daemon, recover, invoke: the casstore/snapfile/statedir write side the invoke workloads never touch"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// virtBound is the bound on exact virtual-clock metrics: the golden's
// relative tolerance, i.e. "may not move".
const virtBound = 1e-9

// clockBound is the bound on metrics read off a clock. It is the
// widest the driver allows: the 2-vCPU sandbox the bounds were set on
// has slow spells lasting minutes, and ten seeds in a row spread by up
// to 19 % (README.md, "End-to-end metrics").
const clockBound = 0.25

// endToEnd lists the gated metrics. Every workload reports every one;
// an "op" is an invoke (small-gateway, paper-direct), a burst request
// (burst-direct) or one function's record+sync+invoke cycle
// (record-sync).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", clockBound},
	{"ops_per_s", "1/s", "higher", clockBound},
	{"wall_p50_ms", "ms", "lower", clockBound},
	{"cpu_ms_per_op", "ms", "lower", clockBound},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"virt_total_ms", "virt_ms", "lower", virtBound},
}

// perLayer lists the attribution metrics, in print order. A metric a
// workload does not exercise reads 0 there. Direction is the reading
// aid the driver asks for; none of these is gated.
var perLayer = []metricDef{
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.wall_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.wall_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "gateway.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.sticky_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gateway.retries", Unit: "count", Better: "lower"},
	{Name: "gateway.sweep_cpu_ms_per_s", Unit: "ms/s", Better: "lower"},

	{Name: "daemon.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.self_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.self_share", Unit: "ratio", Better: "lower"},
	{Name: "daemon.http_transport_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.shed", Unit: "count", Better: "lower"},
	{Name: "daemon.degraded", Unit: "count", Better: "lower"},
	{Name: "daemon.record_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.record_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "daemon.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.sync_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "daemon.sync_ack_ms.lazy", Unit: "ms", Better: "lower"},
	{Name: "daemon.recover_s", Unit: "s", Better: "lower"},
	{Name: "daemon.recover_ms_per_fn", Unit: "ms", Better: "lower"},
	{Name: "daemon.gc_ms", Unit: "ms", Better: "lower"},

	{Name: "vmm.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "guestagent.invoke_ms", Unit: "ms", Better: "lower"},

	{Name: "core.invoke_ms", Unit: "ms", Better: "lower"},
	{Name: "core.invoke_ms.faasnap", Unit: "ms", Better: "lower"},
	{Name: "core.invoke_ms.firecracker", Unit: "ms", Better: "lower"},
	{Name: "core.invoke_ms.reap", Unit: "ms", Better: "lower"},
	{Name: "core.invoke_ms.cached", Unit: "ms", Better: "lower"},
	{Name: "core.invoke_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.invoke_allocs", Unit: "count", Better: "lower"},
	{Name: "core.trace_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "core.share", Unit: "ratio", Better: "lower"},
	{Name: "core.record_ms", Unit: "ms", Better: "lower"},
	{Name: "core.burst_ms_per_vm", Unit: "ms", Better: "lower"},
	{Name: "core.prefetch_precision", Unit: "ratio", Better: "higher"},
	{Name: "core.prefetch_recall", Unit: "ratio", Better: "higher"},
	{Name: "core.virt_fc_over_fs", Unit: "ratio", Better: "higher"},
	{Name: "core.virt_reap_over_fs", Unit: "ratio", Better: "higher"},

	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_handoff", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_acquire", Unit: "ns", Better: "lower"},
	{Name: "pagecache.ns_per_fault", Unit: "ns", Better: "lower"},

	{Name: "hostmm.faults_per_op", Unit: "count", Better: "lower"},
	{Name: "hostmm.major_faults_per_op", Unit: "count", Better: "lower"},
	{Name: "hostmm.fault_time_virt_ms", Unit: "virt_ms", Better: "lower"},
	{Name: "blockdev.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "blockdev.fetch_mb_per_op", Unit: "MB", Better: "lower"},

	{Name: "snapfile.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "snapfile.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "casstore.build_chunks_ms", Unit: "ms", Better: "lower"},
	{Name: "casstore.build_chunks_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "casstore.put_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "casstore.put_dup_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "casstore.get_mb_per_s.local", Unit: "MB/s", Better: "higher"},
	{Name: "casstore.get_mb_per_s.cold", Unit: "MB/s", Better: "higher"},
	{Name: "casstore.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "casstore.sync_fetch_ratio", Unit: "ratio", Better: "lower"},
	{Name: "statedir.appends_per_s", Unit: "1/s", Better: "higher"},
	{Name: "statedir.open_replay_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.append_us", Unit: "us", Better: "lower"},
	{Name: "trace.build_put_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.observe_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_per_s", Unit: "1/s", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
}
