package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/policy"
	"jointpm/internal/sim"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// parityTrace is a 64 MB data set streamed at rate for 15 two-minute
// periods.
func parityTrace(t testing.TB, rate float64, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     64 * simtime.KB,
		Rate:         rate * float64(simtime.MB),
		Popularity:   0.1,
		Duration:     1800,
		Classes:      workload.SPECWeb99Classes(64),
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// journalLines runs fn with a decision journal attached and returns one
// line per journaled decision.
func journalLines(t testing.TB, fn func(*obs.DecisionSink)) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewDecisionSink(&buf, 64)
	fn(sink)
	if err := sink.Close(); err != nil || sink.Dropped() != 0 {
		t.Fatalf("journal: %v, %d dropped", err, sink.Dropped())
	}
	return bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
}

// journalObs decodes a journal record's observation.
func journalObs(t testing.TB, line []byte) obs.ObservationSummary {
	t.Helper()
	var rec obs.DecisionRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Observation
}

// TestDaemonMatchesSimulator pins the two hosts of core.Controller
// together: the same trace through sim.Run and a serve.Shard of the same
// geometry journals the same decisions, record for record. The one input
// the hosts measure differently is the coalesce factor — the simulator
// takes it from its cache and disk models, the daemon predicts it from
// stack depth against the applied cache size — so a record may differ
// only where its coalesce factors differ, and then every other
// observation input must still agree. It covers the
// single-speed and 4-level ladders, the drift hold off and on, and the
// warmup mapping: a daemon holding W periods matches a simulator whose
// warmup window is W+1 periods long.
func TestDaemonMatchesSimulator(t *testing.T) {
	const period = 120
	rates, seeds := []float64{0.3, 1, 4}, []int64{1, 2}
	if testing.Short() {
		rates, seeds = rates[1:2], seeds[:1]
	}
	for _, rate := range rates {
		for _, seed := range seeds {
			tr := parityTrace(t, rate, seed)
			for _, levels := range []int{1, 4} {
				for _, drift := range []float64{0, core.DefaultRefitDriftFrac} {
					for _, warmup := range []int{-1, 2} {
						name := fmt.Sprintf("rate=%g/seed=%d/levels=%d/drift=%g/warmup=%d", rate, seed, levels, drift, warmup)
						t.Run(name, func(t *testing.T) {
							daemonWarmup, simWarmup := 0, simtime.Seconds(0)
							if warmup >= 0 {
								daemonWarmup, simWarmup = warmup, simtime.Seconds(warmup+1)*period
							}
							simJ := journalLines(t, func(sink *obs.DecisionSink) {
								_, err := sim.Run(sim.Config{
									Trace:          tr,
									Method:         policy.Joint(128 * simtime.MB),
									InstalledMem:   128 * simtime.MB,
									BankSize:       simtime.MB,
									Period:         period,
									Warmup:         simWarmup,
									SpeedLevels:    levels,
									RefitDriftFrac: drift,
									DecisionTrace:  sink,
								})
								if err != nil {
									t.Fatal(err)
								}
							})
							daemonJ := journalLines(t, func(sink *obs.DecisionSink) {
								cfg := testConfig(nil)
								cfg.WarmupPeriods = daemonWarmup
								cfg.SpeedLevels = levels
								cfg.RefitDriftFrac = drift
								cfg.DecisionTrace = sink
								runUninterrupted(t, tr, cfg)
							})
							if len(simJ) != len(daemonJ) {
								t.Fatalf("simulator journaled %d decisions, daemon %d", len(simJ), len(daemonJ))
							}
							for i := range simJ {
								if bytes.Equal(simJ[i], daemonJ[i]) {
									continue
								}
								so, do := journalObs(t, simJ[i]), journalObs(t, daemonJ[i])
								if so.CoalesceFactor == do.CoalesceFactor {
									t.Fatalf("decision %d differs with equal inputs\nsim:    %s\ndaemon: %s", i+1, simJ[i], daemonJ[i])
								}
								so.CoalesceFactor = do.CoalesceFactor
								if so != do {
									t.Fatalf("decision %d: observations differ beyond the coalesce factor\nsim:    %+v\ndaemon: %+v", i+1, so, do)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestFlightWarmupMeansNoDecision: a shard's flight record is flagged
// warmup exactly when its period was discarded, i.e. when no decision
// was journaled for it.
func TestFlightWarmupMeansNoDecision(t *testing.T) {
	tr := parityTrace(t, 1, 5)
	var srv *Server
	lines := journalLines(t, func(sink *obs.DecisionSink) {
		cfg := testConfig(nil)
		cfg.OnDecision = nil
		cfg.WarmupPeriods = 3
		cfg.FlightRecorder = 64
		cfg.DecisionTrace = sink
		var err error
		if srv, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		sh, err := srv.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.IngestBatch(tr.Requests); err != nil {
			t.Fatal(err)
		}
		if err := sh.FinishTo(tr.Duration); err != nil {
			t.Fatal(err)
		}
	})
	sh, _ := srv.Shard("d0")
	checkWarmupFlags(t, sh.Flight().Last(0), lines, 3)
}

// checkWarmupFlags holds each flight record's Warmup flag to whether the
// journal carries a decision ending at the record's period end.
func checkWarmupFlags(t *testing.T, recs []flight.PeriodRecord, journal [][]byte, warmups int) {
	t.Helper()
	decided := map[float64]bool{}
	for _, line := range journal {
		var rec obs.DecisionRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		decided[float64(rec.Observation.PeriodEnd)] = true
	}
	n := 0
	for _, r := range recs {
		if r.Warmup == decided[float64(r.EndS)] {
			t.Errorf("period %d: warmup %v, decision journaled %v", r.Period, r.Warmup, decided[float64(r.EndS)])
		}
		if r.Warmup {
			n++
		}
	}
	if n != warmups {
		t.Errorf("%d warmup records, want %d", n, warmups)
	}
}
