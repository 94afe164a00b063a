package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/fault"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

var updateFleetGolden = flag.Bool("update", false, "rewrite the capped-fleet golden instead of diffing against it")

// Golden fleet geometry: 24 shards on a 4-level speed ladder under a cap
// of 1.02 x the sum of their fairness floors, re-solved at every
// boundary (FleetEpoch 1) for 40 periods. Shards cycle through four
// rates and popularities, so demands are uneven and the water-fill
// squeezes the heaviest shards below what they would choose uncapped.
const (
	goldenShards        = 24
	goldenPeriods       = 40
	goldenPeriod        = simtime.Seconds(10)
	goldenMem           = 64 * simtime.MB
	goldenBank          = simtime.MB
	goldenCapOverFloors = 1.02
)

var goldenRates = []struct{ rateMB, popularity float64 }{
	{0.125, 0.05}, {0.5, 0.1}, {2, 0.2}, {4, 0.4},
}

func goldenFleetConfig(log *decisionLog, inj *fault.Injector) Config {
	floorW := float64(mem.RDRAM(goldenBank).NapPower())*float64(goldenMem/goldenBank) +
		float64(disk.Barracuda().StaticPower())
	return Config{
		PageSize:     64 * simtime.KB,
		BankSize:     goldenBank,
		InstalledMem: goldenMem,
		Period:       goldenPeriod,
		SpeedLevels:  4,
		PowerCapW:    goldenCapOverFloors * floorW * goldenShards,
		FleetEpoch:   1,
		Injector:     inj,
		OnDecision:   log.add,
	}
}

// goldenFleetTraces cuts one trace per shard into its periods.
func goldenFleetTraces(t testing.TB) [][][]trace.Request {
	t.Helper()
	out := make([][][]trace.Request, goldenShards)
	for i := range out {
		rc := goldenRates[i%len(goldenRates)]
		tr, err := workload.Generate(workload.Config{
			DataSetBytes: 4 * goldenMem,
			PageSize:     64 * simtime.KB,
			Rate:         rc.rateMB * float64(simtime.MB),
			Popularity:   rc.popularity,
			Duration:     goldenPeriods * goldenPeriod,
			Classes:      workload.SPECWeb99Classes(8),
			Seed:         900 + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cut := make([][]trace.Request, goldenPeriods)
		j := 0
		for p := range cut {
			end := simtime.Seconds(p+1) * goldenPeriod
			k := j
			for k < len(tr.Requests) && tr.Requests[k].Time < end {
				k++
			}
			cut[p] = tr.Requests[j:k]
			j = k
		}
		out[i] = cut
	}
	return out
}

// runGoldenFleet drives the golden fleet from one goroutine — every
// shard ingests period p, then every shard closes it in creation order —
// so the epochs see one deterministic sequence of demands, and returns
// the decision stream and the final assignments as text.
func runGoldenFleet(t testing.TB, traces [][][]trace.Request, inj *fault.Injector) []byte {
	t.Helper()
	log := &decisionLog{}
	srv, err := New(goldenFleetConfig(log, inj))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shards := make([]*Shard, goldenShards)
	for i := range shards {
		if shards[i], err = srv.Shard(fmt.Sprintf("g%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	srv.FleetReallocate()
	for p := 0; p < goldenPeriods; p++ {
		for i, sh := range shards {
			if err := sh.IngestBatch(traces[i][p]); err != nil {
				t.Fatal(err)
			}
		}
		for _, sh := range shards {
			if err := sh.FinishTo(simtime.Seconds(p+1) * goldenPeriod); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	for _, d := range log.list() {
		dec := d.Decision
		fmt.Fprintf(&buf, "%s %d banks=%d timeout=%x level=%d budget=%x power=%x over=%t\n",
			d.Disk, d.Period, dec.Banks, float64(dec.Timeout), dec.Level,
			dec.BudgetW, float64(dec.Chosen.TotalPower), dec.OverBudget)
	}
	for _, a := range srv.coord.Assignments() {
		fmt.Fprintf(&buf, "assign %s budget=%x demand=%x floor=%x stale=%t\n",
			a.Disk, a.BudgetW, a.DemandW, a.FloorW, a.Stale)
	}
	return buf.Bytes()
}

// TestFleetCappedGolden pins the capped fleet's decisions and budgets
// bit for bit: every decision's (m, t_o, level), the budget it was
// decided under, its priced power and over-budget flag, and the final
// solve's assignments with their stale flags — once fault-free and once
// with 30% of the summaries dropped and 30% late. Regenerate with:
//
//	go test ./internal/serve/ -run TestFleetCappedGolden -args -update
func TestFleetCappedGolden(t *testing.T) {
	traces := goldenFleetTraces(t)
	for _, tc := range []struct {
		name string
		inj  *fault.Injector
	}{
		{"clean", nil},
		{"drop-late", fault.NewInjector(fault.Plan{
			Seed:  7,
			Fleet: fault.FleetPlan{SummaryDropProb: 0.3, SummaryLateProb: 0.3},
		}, goldenPeriod, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runGoldenFleet(t, traces, tc.inj)
			path := filepath.Join("testdata", "fleet_capped_"+tc.name+".golden")
			if *updateFleetGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("golden length differs: got %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}
