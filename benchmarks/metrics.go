package main

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// metricDef names one metric of BENCHMARK.json. The tables below are the
// single list the program prints from; TestBenchmarkJSONMatchesTables keeps
// BENCHMARK.json equal to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system waits for or pays. Every workload
// reports every one of them; what the foreground ("op") and the second
// ("side") operation are on each workload is in workloads below and in
// README.md. Every bound is the contract's maximum: see "The bounds" in
// README.md for what this host was seen to do.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"side_p50_ms", "ms", "lower", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer is one row per thing a single package does, measured from outside
// it. "probe" rows time calls into the package on the workload's graph and
// are filled by every traced run; "trace" rows come from the traced pass of
// the workload itself and read 0 on a workload that leaves the layer idle.
var perLayer = []metricDef{
	// probes
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "graph.pack_s", Unit: "s", Better: "lower"},
	{Name: "graph.open_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.lgz_bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "graph.heap.scan_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "graph.lgz.scan_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "graph.apply_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "graph.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "ligra.sparse.ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "ligra.dense.ns_per_edge.p1", Unit: "ns", Better: "lower"},
	{Name: "ligra.dense.ns_per_edge.pN", Unit: "ns", Better: "lower"},
	{Name: "ligra.dense.accumulate_ns_per_edge.p1", Unit: "ns", Better: "lower"},
	{Name: "ligra.dense.accumulate_ns_per_edge.pN", Unit: "ns", Better: "lower"},
	{Name: "sparse.dense.add_ns.p1", Unit: "ns", Better: "lower"},
	{Name: "sparse.dense.add_ns.pN", Unit: "ns", Better: "lower"},
	{Name: "sparse.map.add_ns", Unit: "ns", Better: "lower"},
	{Name: "sparse.lanes.add_ns", Unit: "ns", Better: "lower"},
	{Name: "parallel.sort_ns_per_elem.p1", Unit: "ns", Better: "lower"},
	{Name: "parallel.sort_ns_per_elem.pN", Unit: "ns", Better: "lower"},
	{Name: "parallel.filter_ns_per_elem.pN", Unit: "ns", Better: "lower"},
	{Name: "core.nibble.diffuse_s.pN", Unit: "s", Better: "lower"},
	{Name: "core.randhk.diffuse_s.pN", Unit: "s", Better: "lower"},
	{Name: "core.hkpr.diffuse_s.p1", Unit: "s", Better: "lower"},
	{Name: "core.hkpr.diffuse_s.pN", Unit: "s", Better: "lower"},
	{Name: "core.local.diffuse_us", Unit: "us", Better: "lower"},
	{Name: "core.sweep_local_us", Unit: "us", Better: "lower"},
	{Name: "core.batch64_s", Unit: "s", Better: "lower"},
	{Name: "core.fanout64_s", Unit: "s", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	// trace: global-diffusion
	{Name: "core.prnibble.diffuse_s.p1", Unit: "s", Better: "lower"},
	{Name: "core.prnibble.diffuse_s.pN", Unit: "s", Better: "lower"},
	{Name: "core.sweep_s.p1", Unit: "s", Better: "lower"},
	{Name: "core.sweep_s.pN", Unit: "s", Better: "lower"},
	{Name: "core.speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.round.dense_ns_per_edge.pN", Unit: "ns", Better: "lower"},
	{Name: "core.round.sparse_ns_per_edge.pN", Unit: "ns", Better: "lower"},
	{Name: "core.prnibble.rounds", Unit: "count", Better: "lower"},
	{Name: "core.prnibble.dense_rounds", Unit: "count", Better: "lower"},
	{Name: "core.prnibble.edges_touched", Unit: "count", Better: "lower"},
	{Name: "core.attributed_share", Unit: "ratio", Better: "higher"},
	// trace: serve-*
	{Name: "workspace.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "workspace.bytes_recycled_per_query", Unit: "B", Better: "higher"},
	{Name: "api.encode_us", Unit: "us", Better: "lower"},
	{Name: "api.response_bytes", Unit: "B", Better: "lower"},
	{Name: "sched.queue_wait_ms.interactive.p50", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_wait_ms.interactive.p99", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_wait_ms.batch.p50", Unit: "ms", Better: "lower"},
	{Name: "sched.rejected", Unit: "count", Better: "lower"},
	{Name: "sched.deadline_missed", Unit: "count", Better: "lower"},
	{Name: "service.admission_us", Unit: "us", Better: "lower"},
	{Name: "service.graph_load_us", Unit: "us", Better: "lower"},
	{Name: "service.kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "service.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "service.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "service.latency_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "service.cold_start_ms", Unit: "ms", Better: "lower"},
	{Name: "service.batch.lanes_filled_share", Unit: "ratio", Better: "higher"},
	{Name: "service.batch.seeds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.batch.first_result_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "service.ingest_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "service.compactions", Unit: "count", Better: "higher"},
	{Name: "wal.fsyncs_per_batch", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "load.late_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "load.loadavg_start", Unit: "count", Better: "lower"},
}

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"global-diffusion", "library, heap CSR, eps so small the support is the whole graph: dense EdgeMap rounds, CAS accumulation and the sweep's parallel sort work at procs 1 (side) and P (op); server, WAL and .lgz decode idle"},
	{"serve-local", "lgc-serve on the mmap'd .lgz, P closed-loop clients, uniform seeds, eps=1e-5: sparse rounds, hash vectors, small sweeps, all cache misses; side = one client alone; the dense path does nothing"},
	{"serve-mixed", "same server with 64-lane batching: an interactive client on zipfian hot seeds (cache hits, op) beside a batch client streaming 64 seeds per request (side); scheduler classes, cache and NDJSON carry it"},
	{"serve-ingest", "same server with a WAL fsynced per batch: an open-loop writer of 10 batches/s (side, timed from due) beside a closed-loop reader (op), compaction cycles, then SIGKILL and recovery (restart_s)"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values is what a workload hands back: metric name to value, before the
// units of the tables are attached.
type values map[string]float64

// fill builds the reported metric set from defs, in which a value the
// workload did not produce reads 0 (the layer was idle) and a value outside
// defs is a programming error.
func fill(defs []metricDef, vals values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not in the tables of metrics.go", name)
		}
	}
	return out, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return string(b)
}

// printMetrics writes one "name value unit" row per metric, in table order.
func printMetrics(w io.Writer, title string, defs []metricDef, m map[string]metric) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tvalue\tunit\n", title)
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.Name, v.Value, v.Unit)
		}
	}
	tw.Flush()
}
