package core

import (
	"reflect"
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
)

// shiftObservation rebases a generated period to start at t0 so one
// generator can feed a multi-period sequence with increasing bounds.
func shiftObservation(o Observation, t0 simtime.Seconds) Observation {
	span := o.PeriodEnd - o.PeriodStart
	log := make([]lrusim.DepthRecord, len(o.Log))
	for i, r := range o.Log {
		r.Time += t0 - o.PeriodStart
		log[i] = r
	}
	o.Log = log
	o.PeriodStart = t0
	o.PeriodEnd = t0 + span
	return o
}

// feedIncremental streams one period's log into the manager and strips
// the log from the returned observation, the way an incremental host
// hands over only the scalar calibration inputs.
func feedIncremental(m *Manager, o Observation) Observation {
	for i := range o.Log {
		m.Ingest(o.Log[i])
	}
	o.Log = nil
	return o
}

// TestDecideIncrementalMatchesBatch is the manager-level equivalence
// proof: a manager handed full period logs through Decide and a twin
// ingesting the same records one at a time must produce bit-identical
// decisions period after period — including the carried state the next
// period's decision depends on (hysteresis reference, refill accounting,
// last decision) — and every candidate either prices must match the
// replay oracle. Exercised across parameter shapes that steer the kernel
// down different paths: zero aggregation window (zero-length gaps are
// emitted), raised MinBanks (shallow-event dropping), hysteresis on and
// off, and an empty period in the stream.
func TestDecideIncrementalMatchesBatch(t *testing.T) {
	shapes := []struct {
		name string
		mut  func(*Params)
	}{
		{"default", func(p *Params) {}},
		{"pure-optimiser", func(p *Params) { p.HysteresisFrac = -1 }},
		{"zero-window", func(p *Params) { p.Window = 0 }},
		{"min-banks-4", func(p *Params) { p.MinBanks = 4 }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			p := testParams()
			p.HysteresisFrac = 0.05 // exercise carried-state coupling by default
			shape.mut(&p)
			batch, err := NewManager(p)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := NewManager(p)
			if err != nil {
				t.Fatal(err)
			}
			t0 := simtime.Seconds(0)
			for period := 0; period < 4; period++ {
				o := zipfObservation(p, 3000+500*period, 1<<14, int64(10*period+1))
				if period == 2 {
					o.Log = nil // an empty period mid-stream
					o.CacheAccesses = 0
				}
				o.CurrentBanks = batch.Last().Banks
				o = shiftObservation(o, t0)
				t0 = o.PeriodEnd

				want := decideChecked(t, batch, o)
				got := inc.DecideIncremental(feedIncremental(inc, o))
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s period %d: incremental decision diverges\nbatch: %+v\nincr:  %+v",
						shape.name, period, want, got)
				}
			}
		})
	}
}

// TestDecideIncrementalSurvivesSnapshotCut replays the same stream with a
// snapshot/restore cut at a period boundary: the restored manager must
// continue exactly where the uninterrupted run was, so its remaining
// decisions match the whole-log twin (itself held to the replay oracle)
// bit for bit.
func TestDecideIncrementalSurvivesSnapshotCut(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	batch, _ := NewManager(p)
	inc, _ := NewManager(p)

	t0 := simtime.Seconds(0)
	for period := 0; period < 5; period++ {
		o := zipfObservation(p, 2500, 1<<14, int64(period+21))
		o.CurrentBanks = batch.Last().Banks
		o = shiftObservation(o, t0)
		t0 = o.PeriodEnd

		want := decideChecked(t, batch, o)
		got := inc.DecideIncremental(feedIncremental(inc, o))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: diverged", period)
		}

		if period == 2 {
			// Warm-restart cut: serialise, rebuild, restore. Periods end
			// with the ingested state consumed, so the snapshot carries
			// everything the next period needs.
			st := inc.Snapshot()
			fresh, err := NewManager(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(st); err != nil {
				t.Fatal(err)
			}
			inc = fresh
		}
	}
}

// TestDiscardPeriodMatchesWarmupSkip pins the warmup contract: periods
// discarded unexamined by a streaming host must leave the manager in the
// same state as a manager that never saw those references.
func TestDiscardPeriodMatchesWarmupSkip(t *testing.T) {
	p := testParams()
	batch, _ := NewManager(p)
	inc, _ := NewManager(p)

	warm := zipfObservation(p, 2000, 1<<14, 3)
	for i := range warm.Log {
		inc.Ingest(warm.Log[i])
	}
	inc.DiscardPeriod() // batch twin: the log is simply dropped

	o := zipfObservation(p, 3000, 1<<14, 4)
	o = shiftObservation(o, warm.PeriodEnd)
	want := decideChecked(t, batch, o)
	got := inc.DecideIncremental(feedIncremental(inc, o))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-warmup decision diverges\nbatch: %+v\nincr:  %+v", want, got)
	}
}

// TestDecideIsIngestBatchPlusDecideIncremental pins Decide's definition:
// Decide(o) is exactly IngestBatch(o.Log) followed by
// DecideIncremental(o). A twin driven through the two calls must match
// decision for decision with the drift hold enabled (which Decide now
// honours), and references ingested before the Decide call must count
// towards its period.
func TestDecideIsIngestBatchPlusDecideIncremental(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	p.RefitDriftFrac = DefaultRefitDriftFrac
	whole, _ := NewManager(p)
	split, _ := NewManager(p)

	t0 := simtime.Seconds(0)
	held := 0
	for period := 0; period < 6; period++ {
		// A stationary workload after the first two periods, so the drift
		// hold engages.
		seed := int64(period + 41)
		if period >= 2 {
			seed = 17
		}
		o := zipfObservation(p, 2500, 1<<14, seed)
		o.CurrentBanks = whole.Last().Banks
		o = shiftObservation(o, t0)
		t0 = o.PeriodEnd

		want := whole.Decide(o)
		// Half the period arrives before the boundary; Decide hands over
		// the rest.
		half := len(o.Log) / 2
		split.IngestBatch(o.Log[:half])
		rest := o
		rest.Log = o.Log[half:]
		var got Decision
		if period%2 == 0 {
			got = split.Decide(rest)
		} else {
			split.IngestBatch(rest.Log)
			rest.Log = nil
			got = split.DecideIncremental(rest)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: Decide and IngestBatch+DecideIncremental diverge\nwhole: %+v\nsplit: %+v",
				period, want, got)
		}
		if period > 0 && want.Evaluated == 1 {
			held++
		}
	}
	if held == 0 {
		t.Fatal("the drift hold never engaged through Decide")
	}
}
