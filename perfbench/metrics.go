package main

// The metric catalogue. BENCHMARK.json lists the same names, units,
// directions and bounds (TestCatalogueMatchesBenchmarkJSON holds the two
// together); this table additionally records, for every per-layer
// metric, the end-to-end metric and workload it should move, and which
// figure of the older BENCH_*.json files a metric supersedes.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero for
	// per-layer metrics, which have no bound.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move. METRICS.md says which workloads measure it; the
	// others report 0, the layer not being on their path.
	Moves string
	// Supersedes names the older BENCH_*.json figure this metric replaces.
	Supersedes string
}

const (
	wStream = "stream-1disk"
	wFleet  = "fleet-capped"
	wSim    = "sim-sweep"
)

// workloads lists the benchmark's workloads with the reason each exists.
var workloads = []struct{ Name, Why string }{
	{wStream, "one disk over loopback TCP through ServeListener at jointpmd defaults; decode, ring, LRU stack and manager ingest dominate, boundaries are rare"},
	{wFleet, "256 capped shards fed in-process with timed FinishTo; decide over a speed slate and a fleet epoch at every boundary dominate, decode is bypassed"},
	{wSim, "one Fig. 7 quick-scale point: Record once per memory config, Replay every compared method, fused joint run with batch Decide; no serve code"},
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (see METRICS.md for what each means on
// each workload).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "refs_per_s", Unit: "1/s", Better: "higher", Bound: 0.24,
		Supersedes: "BENCH_fleet.json refs_per_s (fleet-capped); BENCH_fig7.json, BENCH_fig8rate.json and BENCH_fig8pop.json wall_s (sim-sweep)"},
	{Name: "boundary_p50_ms", Unit: "ms", Better: "lower", Bound: 0.24,
		Supersedes: "BENCH_fleet.json decide_p50_ms (fleet-capped)"},
	{Name: "boundary_p90_ms", Unit: "ms", Better: "lower", Bound: 0.24,
		Supersedes: "BENCH_fleet.json decide_p99_ms (fleet-capped)"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{Name: "trace.decode_ns_per_ref", Unit: "ns/ref", Better: "lower", Moves: "refs_per_s on stream-1disk"},
	{Name: "trace.bytes_per_ref", Unit: "B/ref", Better: "lower", Moves: "refs_per_s on stream-1disk"},

	{Name: "serve.ring_blocked_s", Unit: "s", Better: "lower", Moves: "refs_per_s on stream-1disk"},
	{Name: "serve.ring_occupancy_mean", Unit: "ratio", Better: "lower", Moves: "refs_per_s on stream-1disk"},
	{Name: "serve.shard_ingest_ns_per_ref", Unit: "ns/ref", Better: "lower", Moves: "refs_per_s on stream-1disk and fleet-capped"},
	{Name: "serve.boundary_plain_p50_ms", Unit: "ms", Better: "lower", Moves: "boundary_p90_ms and refs_per_s on fleet-capped"},
	{Name: "serve.boundary_epoch_p50_ms", Unit: "ms", Better: "lower", Moves: "boundary_p90_ms and refs_per_s on fleet-capped"},
	{Name: "serve.boundary_ckpt_p50_ms", Unit: "ms", Better: "lower", Moves: "none timed (the cadence cost of a -snapshot daemon)"},
	{Name: "serve.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "none timed (the cadence cost of a -snapshot daemon)"},
	{Name: "serve.snapshot_bytes", Unit: "B", Better: "lower", Moves: "serve.restart_s on stream-1disk"},
	{Name: "serve.checkpoints", Unit: "count", Better: "lower", Moves: "none timed (the cadence cost of a -snapshot daemon)"},
	{Name: "serve.restore_ms", Unit: "ms", Better: "lower", Moves: "serve.restart_s on stream-1disk"},
	{Name: "serve.restart_s", Unit: "s", Better: "lower", Moves: "daemon restart time (serve.New + Restore) on stream-1disk"},

	{Name: "lrusim.reference_ns_per_ref", Unit: "ns/ref", Better: "lower", Moves: "refs_per_s on stream-1disk"},
	{Name: "lrusim.cold_ratio", Unit: "ratio", Better: "lower", Moves: "none (workload property)"},

	{Name: "core.ingest_ns_per_ref", Unit: "ns/ref", Better: "lower", Moves: "refs_per_s on stream-1disk"},
	{Name: "core.decide_incremental_p50_ms", Unit: "ms", Better: "lower", Moves: "boundary_p50_ms on fleet-capped",
		Supersedes: "BENCH_decide.json wall_s"},
	{Name: "core.decide_incremental_p99_ms", Unit: "ms", Better: "lower", Moves: "boundary_p90_ms on fleet-capped"},
	{Name: "core.decide_batch_ms", Unit: "ms", Better: "lower", Moves: "refs_per_s on sim-sweep",
		Supersedes: "BENCH_decide.json wall_s_before"},
	{Name: "core.fallbacks", Unit: "count", Better: "lower", Moves: "none (decision quality)"},
	{Name: "core.over_budget", Unit: "count", Better: "lower", Moves: "none (decision quality)"},

	{Name: "fleet.reallocations", Unit: "count", Better: "lower", Moves: "refs_per_s on fleet-capped"},
	{Name: "fleet.epoch_extra_ms", Unit: "ms", Better: "lower", Moves: "boundary_p90_ms on fleet-capped"},
	{Name: "fleet.cap_violations", Unit: "count", Better: "lower", Moves: "none (must stay 0)",
		Supersedes: "BENCH_fleet.json cap_violations"},
	{Name: "fleet.jain_index", Unit: "ratio", Better: "higher", Moves: "none (fairness)",
		Supersedes: "BENCH_fleet.json fairness_index"},

	{Name: "sim.record_ns_per_ref", Unit: "ns/ref", Better: "lower", Moves: "refs_per_s on sim-sweep"},
	{Name: "sim.replay_ns_per_ref", Unit: "ns/ref", Better: "lower", Moves: "refs_per_s on sim-sweep"},
	{Name: "sim.replay_joint_ns_per_ref", Unit: "ns/ref", Better: "lower", Moves: "refs_per_s on sim-sweep",
		Supersedes: "BENCH_drpm.json wall_s"},
	{Name: "sim.joint_energy_pct", Unit: "%", Better: "lower", Moves: "none (the paper's energy result)",
		Supersedes: "BENCH_fig7.json joint_energy_pct"},
	{Name: "sim.delayed_per_s", Unit: "1/s", Better: "lower", Moves: "none (the paper's latency result)",
		Supersedes: "BENCH_fig7.json delayed_per_s"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "none (workload property)"},
	{Name: "disk.requests", Unit: "count", Better: "lower", Moves: "none (workload property)"},
	{Name: "disk.spinups", Unit: "count", Better: "lower", Moves: "none (decision quality)"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none (tracing cost)"},
}
