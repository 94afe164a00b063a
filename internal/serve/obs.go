package serve

import (
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
)

// serveMetrics are the daemon-level instruments. All nil-safe: with no
// registry every hook is a no-op.
type serveMetrics struct {
	uptime           *obs.Gauge   // serve.uptime_s
	shards           *obs.Gauge   // serve.shards
	streamLag        *obs.Gauge   // serve.stream_lag_s
	decisions        *obs.Counter // serve.decisions
	periodsClosed    *obs.Counter // serve.periods_closed
	checkpoints      *obs.Counter // serve.checkpoints
	checkpointErrors *obs.Counter // serve.checkpoint_errors
	checkpointBytes  *obs.Gauge   // serve.checkpoint_bytes
	restores         *obs.Counter // serve.restores
	lastBanks        *obs.Gauge   // serve.last_banks
	fallbacks        *obs.Counter // serve.fallbacks
	fleetEpochs      *obs.Counter // serve.fleet_epochs

	// Period-lifecycle latency histograms (tentpole): Decide wall time,
	// per-reference ingest cost, and boundary-close-to-emit latency, all
	// with p50/p99 estimates on /metrics.
	decideWall     *obs.Histogram // serve.decide_wall_s
	ingestPerRef   *obs.Histogram // serve.ingest_ns_per_ref
	boundaryToEmit *obs.Histogram // serve.boundary_to_emit_s
	checkpointWall *obs.Histogram // serve.checkpoint_wall_s
	// fleetEpochWall (serve.fleet_epoch_wall_s) times the reallocation
	// epochs shard boundaries run; registered only on a capped server,
	// so uncapped /metrics output is unchanged.
	fleetEpochWall *obs.Histogram

	// Energy-attribution ledger accumulated across every shard's closed
	// periods (priced split; see core.Decision.PricedLedger).
	memActiveJ   *obs.Gauge // serve.energy.mem_active_j
	memNapJ      *obs.Gauge // serve.energy.mem_nap_j
	memTransJ    *obs.Gauge // serve.energy.mem_transition_j
	diskActiveJ  *obs.Gauge // serve.energy.disk_active_j
	diskStandbyJ *obs.Gauge // serve.energy.disk_standby_j
	diskSpinJ    *obs.Gauge // serve.energy.disk_spin_j
	delayS       *obs.Gauge // serve.energy.delay_s
	totalJ       *obs.Gauge // serve.energy.total_j
}

func newServeMetrics(r *obs.Registry) serveMetrics {
	decideBounds := []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}
	return serveMetrics{
		uptime:           r.Gauge("serve.uptime_s"),
		shards:           r.Gauge("serve.shards"),
		streamLag:        r.Gauge("serve.stream_lag_s"),
		decisions:        r.Counter("serve.decisions"),
		periodsClosed:    r.Counter("serve.periods_closed"),
		checkpoints:      r.Counter("serve.checkpoints"),
		checkpointErrors: r.Counter("serve.checkpoint_errors"),
		checkpointBytes:  r.Gauge("serve.checkpoint_bytes"),
		restores:         r.Counter("serve.restores"),
		lastBanks:        r.Gauge("serve.last_banks"),
		fallbacks:        r.Counter("serve.fallbacks"),
		fleetEpochs:      r.Counter("serve.fleet_epochs"),

		decideWall:     r.Histogram("serve.decide_wall_s", decideBounds),
		ingestPerRef:   r.Histogram("serve.ingest_ns_per_ref", []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000}),
		boundaryToEmit: r.Histogram("serve.boundary_to_emit_s", decideBounds),
		checkpointWall: r.Histogram("serve.checkpoint_wall_s", []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),

		memActiveJ:   r.Gauge("serve.energy.mem_active_j"),
		memNapJ:      r.Gauge("serve.energy.mem_nap_j"),
		memTransJ:    r.Gauge("serve.energy.mem_transition_j"),
		diskActiveJ:  r.Gauge("serve.energy.disk_active_j"),
		diskStandbyJ: r.Gauge("serve.energy.disk_standby_j"),
		diskSpinJ:    r.Gauge("serve.energy.disk_spin_j"),
		delayS:       r.Gauge("serve.energy.delay_s"),
		totalJ:       r.Gauge("serve.energy.total_j"),
	}
}

// addEnergy folds one period's ledger into the cumulative energy split.
func (m *serveMetrics) addEnergy(l flight.Ledger) {
	m.memActiveJ.Add(l.MemActiveJ)
	m.memNapJ.Add(l.MemNapJ)
	m.memTransJ.Add(l.MemTransitionJ)
	m.diskActiveJ.Add(l.DiskActiveJ)
	m.diskStandbyJ.Add(l.DiskStandbyJ)
	m.diskSpinJ.Add(l.DiskSpinJ)
	m.delayS.Add(l.DelayS)
	m.totalJ.Add(l.TotalJ())
}
