package serve

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"jointpm/internal/fleet"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// publishTrace is one shard's traffic for the publication tests: rate
// in MB per stream second, over the given number of golden periods.
func publishTrace(t testing.TB, rateMB, popularity float64, seed int64, periods int) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 4 * goldenMem,
		PageSize:     64 * simtime.KB,
		Rate:         rateMB * float64(simtime.MB),
		Popularity:   popularity,
		Duration:     simtime.Seconds(periods) * goldenPeriod,
		Classes:      workload.SPECWeb99Classes(8),
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// before returns the requests of reqs strictly before time t.
func before(reqs []trace.Request, t simtime.Seconds) []trace.Request {
	i := 0
	for i < len(reqs) && reqs[i].Time < t {
		i++
	}
	return reqs[:i]
}

// statusBudgets reads /debug/status and returns each shard's budget.
func statusBudgets(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/status", nil))
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, sh := range st.Shards {
		out[sh.Disk] = sh.BudgetW
	}
	return out
}

// snapshotBudgets cuts a checkpoint and reads each shard's budget back
// out of the file.
func snapshotBudgets(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	states, err := readSnapshotFile(srv.cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, st := range states {
		out[st.Name] = st.BudgetW
	}
	return out
}

// TestFleetPublishedBudgetReachesReaders publishes budgets while every
// shard is mid-period and checks that the budget is the one each
// shard's next decision, flight record, snapshot and /debug/status
// report — whichever of them reads it first. Each round adds a shard,
// so every round's solve splits the cap differently from the last.
func TestFleetPublishedBudgetReachesReaders(t *testing.T) {
	log := &decisionLog{}
	cfg := goldenFleetConfig(log, nil)
	cfg.FleetEpoch = 1 << 40 // only the explicit epochs below run
	cfg.FlightRecorder = flight.DefaultDepth
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "fleet.snap")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const periods = 6
	rates := []float64{4, 0.5, 2}
	var shards []*Shard
	var traces []*trace.Trace
	prevA := 0.0
	for round, first := range []string{"decision", "snapshot", "status"} {
		sh, err := srv.Shard(string(rune('a' + round)))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
		traces = append(traces, publishTrace(t, rates[round], 0.2, 50+int64(round), periods))

		// Every shard closes one more period, then stops mid-period.
		for i, sh := range shards {
			end := (simtime.Seconds(sh.Periods()) + 1.5) * goldenPeriod
			if err := sh.IngestBatch(before(traces[i].Requests, end)[sh.Consumed():]); err != nil {
				t.Fatal(err)
			}
		}
		asg := srv.FleetReallocate()
		want := map[string]float64{}
		for i, a := range asg {
			if a.Disk != shards[i].Name() {
				t.Fatalf("round %d: assignment %d is %s, want %s", round, i, a.Disk, shards[i].Name())
			}
			want[a.Disk] = a.BudgetW
		}

		check := func(what string, got map[string]float64) {
			t.Helper()
			for d, w := range want {
				if got[d] != w {
					t.Fatalf("round %d: %s reports %s's budget %g, want the published %g", round, what, d, got[d], w)
				}
			}
		}
		closeAll := func() {
			t.Helper()
			n := len(log.list())
			for _, sh := range shards {
				if err := sh.FinishTo(simtime.Seconds(sh.Periods()+1) * goldenPeriod); err != nil {
					t.Fatal(err)
				}
			}
			decided := map[string]float64{}
			for _, d := range log.list()[n:] {
				decided[d.Disk] = d.Decision.BudgetW
			}
			check("the next decision", decided)
			recorded := map[string]float64{}
			for _, sh := range shards {
				recorded[sh.Name()] = sh.Flight().Last(1)[0].BudgetW
			}
			check("the flight record", recorded)
		}
		switch first {
		case "decision":
			closeAll()
			check("the snapshot", snapshotBudgets(t, srv))
			check("/debug/status", statusBudgets(t, srv))
		case "snapshot":
			check("the snapshot", snapshotBudgets(t, srv))
			closeAll()
			check("/debug/status", statusBudgets(t, srv))
		case "status":
			check("/debug/status", statusBudgets(t, srv))
			check("the snapshot", snapshotBudgets(t, srv))
			closeAll()
		}
		if want["a"] == prevA {
			t.Fatalf("round %d: shard a's budget %g did not move; the round proves nothing", round, prevA)
		}
		prevA = want["a"]
	}
}

// TestFleetConcurrentBudgetPublication is the -race half: two shards
// ingest on their own goroutines while a third publishes budgets,
// checkpoints and reads /debug/status. Every decision must carry a
// budget some epoch published, and its flight record the same one.
func TestFleetConcurrentBudgetPublication(t *testing.T) {
	log := &decisionLog{}
	cfg := goldenFleetConfig(log, nil)
	cfg.FleetEpoch = 1 << 40 // the publisher below runs every epoch
	cfg.FlightRecorder = flight.DefaultDepth
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "fleet.snap")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const periods = 12
	names := []string{"a", "b"}
	shards := make([]*Shard, len(names))
	for i, n := range names {
		if shards[i], err = srv.Shard(n); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	published := map[float64]bool{}
	note := func(asg []fleet.Assignment) {
		mu.Lock()
		for _, a := range asg {
			published[a.BudgetW] = true
		}
		mu.Unlock()
	}
	note(srv.FleetReallocate())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			note(srv.FleetReallocate())
			if err := srv.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			srv.Status()
		}
	}()
	for i, sh := range shards {
		wg.Add(1)
		go func(sh *Shard, tr *trace.Trace) {
			defer wg.Done()
			for j := 0; j < len(tr.Requests); j += 16 {
				if err := sh.IngestBatch(tr.Requests[j:min(j+16, len(tr.Requests))]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := sh.FinishTo(tr.Duration); err != nil {
				t.Error(err)
			}
		}(sh, publishTrace(t, 2+2*float64(i), 0.2, 60+int64(i), periods))
	}
	wg.Wait()
	close(stop)
	<-done

	decs := log.list()
	if len(decs) != periods*len(shards) {
		t.Fatalf("%d decisions, want %d", len(decs), periods*len(shards))
	}
	for _, d := range decs {
		sh, _ := srv.Shard(d.Disk)
		var rec *flight.PeriodRecord
		recs := sh.Flight().Last(0)
		for i := range recs {
			if recs[i].Period == d.Period {
				rec = &recs[i]
			}
		}
		if rec == nil {
			t.Fatalf("%s period %d: no flight record", d.Disk, d.Period)
		}
		if rec.BudgetW != d.Decision.BudgetW {
			t.Fatalf("%s period %d: decision budget %g, flight record %g", d.Disk, d.Period, d.Decision.BudgetW, rec.BudgetW)
		}
		if !published[d.Decision.BudgetW] {
			t.Fatalf("%s period %d: budget %g was never published", d.Disk, d.Period, d.Decision.BudgetW)
		}
	}
}

// TestFleetRestoredDemandVisibleToFirstEpoch checkpoints a capped fleet
// mid-period and restores it twice. The first epoch after Restore must
// solve every restored shard as fresh, at the demand its restored
// manager publishes. A v5 snapshot does not carry the last decision's
// priced power, so that demand is the floor until the shard decides
// again. Once every restored shard has closed its period under the
// snapshot's budget, the next epoch must see exactly the demands and
// budgets of the fleet that never stopped.
func TestFleetRestoredDemandVisibleToFirstEpoch(t *testing.T) {
	names := []string{"a", "b", "c"}
	config := func(snap string) Config {
		cfg := goldenFleetConfig(&decisionLog{}, nil)
		cfg.PowerCapW *= float64(len(names)) / goldenShards
		cfg.FleetEpoch = 1 << 40 // only the explicit epochs below run
		cfg.SnapshotPath = snap
		return cfg
	}
	snap := filepath.Join(t.TempDir(), "fleet.snap")
	srv1, err := New(config(snap))
	if err != nil {
		t.Fatal(err)
	}
	shards1 := make([]*Shard, len(names))
	traces := make([]*trace.Trace, len(names))
	for i, n := range names {
		if shards1[i], err = srv1.Shard(n); err != nil {
			t.Fatal(err)
		}
		traces[i] = publishTrace(t, 1+2*float64(i), 0.3, 70+int64(i), 5)
	}
	srv1.FleetReallocate()
	for i, sh := range shards1 {
		if err := sh.IngestBatch(before(traces[i].Requests, 3.5*goldenPeriod)); err != nil {
			t.Fatal(err)
		}
	}
	srv1.FleetReallocate()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	restore := func() (*Server, []*Shard) {
		t.Helper()
		srv, err := New(config(snap))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Restore(); err != nil {
			t.Fatal(err)
		}
		shards := make([]*Shard, len(names))
		for i, n := range names {
			if shards[i], err = srv.Shard(n); err != nil {
				t.Fatal(err)
			}
		}
		return srv, shards
	}

	srv2, shards2 := restore()
	defer srv2.Close()
	for i, a := range srv2.FleetReallocate() {
		want := math.Max(srv2.floorW, shards2[i].ctl.Manager().LastPowerW())
		if a.Disk != names[i] || a.Stale || a.DemandW != want {
			t.Fatalf("first epoch after restore: %+v, want %s fresh at %g W", a, names[i], want)
		}
	}

	srv3, shards3 := restore()
	defer srv3.Close()
	aboveFloor := false
	for i := range names {
		for _, sh := range []*Shard{shards1[i], shards3[i]} {
			if err := sh.IngestBatch(before(traces[i].Requests, 4.5*goldenPeriod)[sh.Consumed():]); err != nil {
				t.Fatal(err)
			}
		}
		aboveFloor = aboveFloor || shards1[i].ctl.Manager().LastPowerW() > srv1.floorW
	}
	if !aboveFloor {
		t.Fatal("every shard demands only its floor; the test cannot tell a published demand from the default")
	}
	want, got := srv1.FleetReallocate(), srv3.FleetReallocate()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch after the restored fleet decided: %+v, want %+v", got[i], want[i])
		}
	}
}

// TestFleetEpochTiming checks the live epoch timing: a capped server
// with a flight recorder amends every boundary's epoch wall time onto
// the record that armed it and fills serve.fleet_epoch_wall_s; an
// uncapped one records no epoch time and registers no such histogram.
func TestFleetEpochTiming(t *testing.T) {
	tr := publishTrace(t, 2, 0.2, 80, 6)
	for _, capped := range []bool{false, true} {
		reg := obs.NewRegistry()
		cfg := goldenFleetConfig(&decisionLog{}, nil)
		if !capped {
			cfg.PowerCapW = 0
		}
		cfg.Metrics = reg
		cfg.Heartbeat = -1
		cfg.FlightRecorder = flight.DefaultDepth
		srv, err := New(cfg)
		if err != nil {
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
		recs := sh.Flight().Last(0)
		if len(recs) != 6 {
			t.Fatalf("capped=%t: %d flight records, want 6", capped, len(recs))
		}
		for _, r := range recs {
			if capped != (r.EpochNs > 0) {
				t.Fatalf("capped=%t: period %d epoch_ns %d", capped, r.Period, r.EpochNs)
			}
		}
		var hist *obs.HistogramSnapshot
		hs := reg.Snapshot().Histograms
		for i := range hs {
			if hs[i].Name == "serve.fleet_epoch_wall_s" {
				hist = &hs[i]
			}
		}
		switch {
		case !capped && hist != nil:
			t.Fatal("uncapped server registered serve.fleet_epoch_wall_s")
		case capped && (hist == nil || hist.Count != int64(len(recs))):
			t.Fatalf("capped server: serve.fleet_epoch_wall_s %+v, want %d epochs", hist, len(recs))
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
