package main

// metricDef describes one metric: its unit, which direction is better,
// and, for end-to-end metrics, the bound by which a change's median may
// be worse than the parent's before it counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is a share of the parent's median, or, when Abs is set, an
	// absolute amount in Unit.
	Bound float64
	Abs   bool
	// Failure marks the failure share: any rise of its mean over the runs
	// is worse, whatever the spread, because failures are not noise.
	Failure bool
	// Sim and RTI say which workload families report the metric.
	Sim, RTI bool
	// Declared metrics are the ones BENCHMARK.json lists as end_to_end:
	// every workload reports them and they are never 0.
	Declared bool
}

// e2eMetrics are the end-to-end metrics, measured with tracing off. The
// bounds of the declared ones are sized to the spread measured on a
// shared 2-vCPU virtual machine, where the speed of the same run drifts
// by 10-40% within minutes, and to the two peak-RSS modes of the 100k
// workload, 16% apart (README.md, "Bounds").
var e2eMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Sim: true, RTI: true, Declared: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Sim: true, RTI: true, Declared: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.2, Sim: true, RTI: true, Declared: true},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Bound: 0, Abs: true, Failure: true, Sim: true, RTI: true},
	{Name: "traffic_reduction_pct", Unit: "%", Better: "higher", Bound: 0.3, Abs: true, Sim: true},
	{Name: "rmse_with_le_m", Unit: "m", Better: "lower", Bound: 0.02, Sim: true},
	{Name: "err_p99_with_le_m", Unit: "m", Better: "lower", Bound: 0.02, Sim: true},
	{Name: "lu_per_s", Unit: "LU/s", Better: "higher", Bound: 0.05, RTI: true},
	{Name: "lu_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, RTI: true},
	{Name: "lu_latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10, RTI: true},
	{Name: "wire_bytes_per_lu", Unit: "B", Better: "lower", Bound: 0.01, RTI: true},
}

// appliesTo reports whether workload w reports metric m.
func (m metricDef) appliesTo(w workload) bool {
	return (w.sim != nil && m.Sim) || (w.rti != nil && m.RTI)
}

// layerExtras are the per-layer metrics beyond the four every span
// yields: tick latency, layer outcome ratios, counts, RTI call latency,
// frame size and the cost of tracing itself.
var layerExtras = []metricDef{
	{Name: "engine.tick_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.tick_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.delivered_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.transmit_ratio", Unit: "ratio", Better: "lower"},
	{Name: "broker.estimated_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.clusters", Unit: "count", Better: "lower"},
	{Name: "engine.churn_events", Unit: "count", Better: "lower"},
	{Name: "hla.send_p50_us", Unit: "us", Better: "lower"},
	{Name: "hla.send_p99_us", Unit: "us", Better: "lower"},
	{Name: "hla.advance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "hla.advance_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// layerMetrics returns every per-layer metric: the four derived from
// each span name, then the extras.
func layerMetrics() []metricDef {
	var out []metricDef
	for _, s := range spanNames {
		out = append(out,
			metricDef{Name: s + ".calls", Unit: "count", Better: "lower"},
			metricDef{Name: s + ".self_s", Unit: "s", Better: "lower"},
			metricDef{Name: s + ".ns_per_call", Unit: "ns", Better: "lower"},
			metricDef{Name: s + ".share_pct", Unit: "%", Better: "lower"},
		)
	}
	return append(out, layerExtras...)
}
