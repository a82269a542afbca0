package main

import (
	"fmt"
	"io"
	"regexp"

	"cloudmap"
)

// metricSpec declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions; TestSpecsMatchManifest
// keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed relative regression of the median
	Why    string
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// endToEnd are the metrics a user of the system sees, measured on untraced
// runs. Every workload reports every one of them; the definitions below say
// what each means per workload.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Why: "untimed preparation, median of several per run: world generation (fresh); daemon boot through its first published epoch (churn); agent worlds, listeners and first healthy heartbeat (fleet)"},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25,
		Why: "median wall time of one pipeline pass: a RunPipeline call to return (fresh, fleet); the interval between consecutive /v1/watch epoch events (churn)"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Why: "bytes the process allocates per run (fresh, fleet, agents included) or per epoch (churn, readers included)"},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Why: "highest live heap (marked live by the last GC) sampled every 2 ms while timed work ran"},
}

// routes are the /v1 reads in the churn reader mix, with their share of the
// mix in percent. The shares are even: no record of real read traffic
// exists to weight them by, so each route gets the same load and its own
// percentiles.
var routes = []struct {
	Name  string
	Share int
}{
	{"peerings_as", 25},
	{"peerings_cbi", 25},
	{"deltas", 25},
	{"status", 25},
}

// perLayer are the per-layer metrics of traced runs, named after the
// repository's modules. Every traced run reports every one of them: the
// workload's own traced run fills the layers it exercises and a shared
// layer suite fills the rest (see layers.go).
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{Name: "route.trace_at.ns", Unit: "ns", Better: "lower", Why: "Forwarder.TraceAt per call, haversine included"},
		{Name: "route.trace_at.allocs", Unit: "count", Better: "lower", Why: "heap allocations per TraceAt call"},
		{Name: "route.trace_at.bytes", Unit: "B", Better: "lower", Why: "bytes allocated per TraceAt call"},
		{Name: "probe.traceroute_at.self_ns", Unit: "ns", Better: "lower", Why: "TracerouteAt minus TraceAt on identical arguments"},
		{Name: "probe.traceroute_at.allocs", Unit: "count", Better: "lower", Why: "heap allocations per TracerouteAt call"},
		{Name: "probe.traceroute_at.bytes", Unit: "B", Better: "lower", Why: "bytes allocated per TracerouteAt call"},
		{Name: "probe.hops_per_trace", Unit: "count", Better: "lower", Why: "mean hops per traceroute, the unit of route and probe work"},
		{Name: "probe.campaign.traces_per_s.w1", Unit: "1/s", Better: "higher", Why: "round-1 campaign throughput at 1 worker"},
		{Name: "probe.campaign.traces_per_s.w2", Unit: "1/s", Better: "higher", Why: "round-1 campaign throughput at 2 workers"},
		{Name: "probe.campaign.speedup", Unit: "ratio", Better: "higher", Why: "campaign throughput at nproc workers over 1 worker"},
		{Name: "border.consume.ns", Unit: "ns", Better: "lower", Why: "Inference.Consume per trace"},
		{Name: "border.consume.allocs", Unit: "count", Better: "lower", Why: "heap allocations per consumed trace"},
		{Name: "border.consume.bytes", Unit: "B", Better: "lower", Why: "bytes allocated per consumed trace"},
		{Name: "tracefile.encode.ns_per_trace", Unit: "ns", Better: "lower", Why: "binary Writer.Write plus Finish per trace"},
		{Name: "tracefile.encode.bytes_per_trace", Unit: "B", Better: "lower", Why: "encoded size per trace"},
		{Name: "tracefile.replay.ns_per_trace.w1", Unit: "ns", Better: "lower", Why: "ReplayFileParallel at 1 worker"},
		{Name: "tracefile.replay.ns_per_trace.w2", Unit: "ns", Better: "lower", Why: "ReplayFileParallel at 2 workers"},
		{Name: "tracefile.replay.speedup", Unit: "ratio", Better: "higher", Why: "replay throughput at nproc workers over 1 worker"},
		{Name: "tracefile.scan_ms", Unit: "ms", Better: "lower", Why: "ScanFile over the encoded sample"},
	}
	for _, st := range cloudmap.StageNames() {
		m = append(m,
			metricSpec{Name: "stage." + st + ".wall_ms", Unit: "ms", Better: "lower", Why: "stage wall time per run or epoch"},
			metricSpec{Name: "stage." + st + ".alloc_mb", Unit: "MB", Better: "lower", Why: "stage allocation per run or epoch"})
	}
	m = append(m,
		metricSpec{Name: "pipeline.skip_ratio", Unit: "ratio", Better: "higher", Why: "share of stages hash-skipped per pass"},
		metricSpec{Name: "api.ms_p50", Unit: "ms", Better: "lower", Why: "client-observed /v1 read latency during epochs, median"},
		metricSpec{Name: "api.ms_p99", Unit: "ms", Better: "lower", Why: "client-observed /v1 read latency during epochs, 99th percentile (at least 1000 reads)"},
		metricSpec{Name: "api.samples", Unit: "count", Better: "higher", Why: "reads behind the api percentiles"},
	)
	for _, r := range routes {
		m = append(m,
			metricSpec{Name: "api." + r.Name + ".ms_p50", Unit: "ms", Better: "lower", Why: "read latency of this route, median"},
			metricSpec{Name: "api." + r.Name + ".ms_p99", Unit: "ms", Better: "lower", Why: "read latency of this route, 99th percentile (at least 1000 reads)"})
	}
	m = append(m,
		metricSpec{Name: "service.epoch_ms_p50", Unit: "ms", Better: "lower", Why: "daemon epoch interval under the reader mix, median"},
		metricSpec{Name: "service.epoch_overhead_ms", Unit: "ms", Better: "lower", Why: "epoch interval minus the stage wall sum: WAL, snapshot, diff, publish, store checkpoint"},
		metricSpec{Name: "service.snapshot_ms", Unit: "ms", Better: "lower", Why: "SnapshotFrom on a Session result"},
		metricSpec{Name: "service.diff_ms", Unit: "ms", Better: "lower", Why: "Diff between two churned Session snapshots"},
		metricSpec{Name: "service.publish_ms", Unit: "ms", Better: "lower", Why: "Store.Publish of the second snapshot"},
		metricSpec{Name: "dispatch.lease_serve_ms_p50", Unit: "ms", Better: "lower", Why: "agent handler time per lease, median"},
		metricSpec{Name: "dispatch.lease_serve_ms_p99", Unit: "ms", Better: "lower", Why: "agent handler time per lease, 99th percentile (at least 1000 leases)"},
		metricSpec{Name: "dispatch.lease_bytes", Unit: "B", Better: "lower", Why: "lease response bytes per lease"},
		metricSpec{Name: "dispatch.leases", Unit: "count", Better: "lower", Why: "leases granted per run (Controller stats)"},
		metricSpec{Name: "dispatch.rehedged", Unit: "count", Better: "lower", Why: "chunks hedged per run"},
		metricSpec{Name: "dispatch.chunks_local", Unit: "count", Better: "lower", Why: "chunks that fell back to local execution per run"},
		metricSpec{Name: "topo.generate_ms", Unit: "ms", Better: "lower", Why: "topo.Generate at SmallConfig"},
		metricSpec{Name: "registry.build_ms", Unit: "ms", Better: "lower", Why: "registry.Build over the generated topology"},
		metricSpec{Name: "route.new_forwarder_ms", Unit: "ms", Better: "lower", Why: "route.NewForwarder over the generated topology"},
		metricSpec{Name: "trace.unaccounted_pct", Unit: "%", Better: "lower", Why: "share of the untraced wall time the traced per-layer busy sum does not cover"},
		metricSpec{Name: "trace.spans", Unit: "count", Better: "higher", Why: "spans the traced run recorded"},
		metricSpec{Name: "fail_ratio", Unit: "ratio", Better: "lower", Why: "failed over attempted operations: runs, epochs, reads, leases and output checks"},
	)
	return m
}

var specByName = func() map[string]metricSpec {
	out := map[string]metricSpec{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		out[s.Name] = s
	}
	return out
}()

// listMetrics prints every metric with its unit, direction and meaning.
func listMetrics(w io.Writer) {
	for _, group := range []struct {
		title string
		specs []metricSpec
	}{{"end-to-end (--trace 0)", endToEnd}, {"per-layer (--trace 1)", perLayer}} {
		fmt.Fprintf(w, "%s:\n", group.title)
		for _, s := range group.specs {
			bound := ""
			if s.Bound > 0 {
				bound = fmt.Sprintf(" bound %.2f", s.Bound)
			}
			fmt.Fprintf(w, "  %-36s %-6s %-6s%s  %s\n", s.Name, s.Unit, s.Better, bound, s.Why)
		}
	}
}
