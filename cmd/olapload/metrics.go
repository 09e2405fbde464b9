package main

import (
	"encoding/json"
	"math"
	"slices"
)

// metricDef declares one metric of the benchmark. For end-to-end metrics
// bound is the share of the parent's median by which the metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// defaultSeconds is the timed window T of every round, and run_seconds of
// BENCHMARK.json.
const defaultSeconds = 26

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from untraced rounds only.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"deadline_hit_rate", "share", "higher", 0.02},
	{"mem_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers (layer = module name), from
// the traced round. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "dict.translate_us", Unit: "us", Better: "lower"},
	{Name: "dict.lookups_per_query", Unit: "count", Better: "lower"},
	{Name: "dict.translated_share", Unit: "share", Better: "lower"},
	{Name: "engine.estimate_us", Unit: "us", Better: "lower"},
	{Name: "engine.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "engine.cache_subsumed_share", Unit: "share", Better: "higher"},
	{Name: "engine.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "engine.cache_epoch_invalidations", Unit: "count", Better: "lower"},
	{Name: "engine.fused_share", Unit: "share", Better: "higher"},
	{Name: "engine.fusion_fan_in_mean", Unit: "count", Better: "higher"},
	{Name: "engine.fusion_fallbacks", Unit: "count", Better: "lower"},
	{Name: "engine.cached_serve_us", Unit: "us", Better: "lower"},
	{Name: "engine.serve_residual_us", Unit: "us", Better: "lower"},
	{Name: "engine.grouped_us", Unit: "us", Better: "lower"},
	{Name: "sched.place_us", Unit: "us", Better: "lower"},
	{Name: "sched.cpu_share", Unit: "share", Better: "higher"},
	{Name: "sched.gpu_1sm_share", Unit: "share", Better: "higher"},
	{Name: "sched.gpu_2sm_share", Unit: "share", Better: "higher"},
	{Name: "sched.gpu_4sm_share", Unit: "share", Better: "higher"},
	{Name: "sched.predicted_late_share", Unit: "share", Better: "lower"},
	{Name: "sched.resubmitted", Unit: "count", Better: "lower"},
	{Name: "sched.estimate_error_gpu", Unit: "ratio", Better: "lower"},
	{Name: "sched.estimate_error_cpu", Unit: "ratio", Better: "lower"},
	{Name: "gpusim.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "gpusim.scan_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "gpusim.stream_share", Unit: "share", Better: "higher"},
	{Name: "cube.aggregate_us", Unit: "us", Better: "lower"},
	{Name: "cube.subcube_kb", Unit: "KB", Better: "lower"},
	{Name: "cube.gbps", Unit: "GB/s", Better: "higher"},
	{Name: "ingest.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.ack_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.batch_us", Unit: "us", Better: "lower"},
	{Name: "ingest.rows_per_s_busy", Unit: "rows/s", Better: "higher"},
	{Name: "ingest.wal_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "ingest.compactions", Unit: "count", Better: "lower"},
	{Name: "ingest.compacted_rows_per_row", Unit: "ratio", Better: "lower"},
	{Name: "ingest.delta_stripes_end", Unit: "count", Better: "lower"},
	{Name: "ingest.stripes_end", Unit: "count", Better: "lower"},
	{Name: "ingest.replay_s", Unit: "s", Better: "lower"},
	{Name: "cluster.sub_queries_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.remote_share", Unit: "share", Better: "lower"},
	{Name: "cluster.bytes_moved_per_query", Unit: "B", Better: "lower"},
	{Name: "cluster.move_s_per_query", Unit: "s", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "olapd.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "olapd.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "olapd.shed_share", Unit: "share", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.error_rate", Unit: "share", Better: "lower"},
	{Name: "client.gen_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "client.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "membench.cube_stream_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "olapload.triad_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "olapload.scalar_ns", Unit: "ns", Better: "lower"},
}

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads and the program that prints the metrics cannot disagree.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // bound 0 is omitted: they carry none
	}{
		Command:    []string{"bash", "cmd/olapload/bench.sh"},
		Paths:      []string{"cmd/olapload"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if !w.ungated {
			m.Workloads = append(m.Workloads, wl{w.name, w.why})
		}
	}
	buf, err := json.MarshalIndent(&m, "", "  ")
	return append(buf, '\n'), err
}

// quantile is the nearest-rank q-quantile of xs (0 when empty); it sorts
// a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
