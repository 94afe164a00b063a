package jointpm

import (
	"os"
	"testing"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/experiments"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

// TestWriteDecideBenchSummary regenerates BENCH_decide.json: the
// machine-readable before/after record of the incremental-Decide work,
// measured on the same paper-scale decision shape as the core package's
// BenchmarkDecide (128 GB of 16 MB banks, a 256k-reference Zipf period).
// wall_s is the streamed period-boundary cost (DecideIncremental after
// the period was ingested); wall_s_before is Decide over the whole period
// log on identical input — ingest plus decide, the cost a host pays when
// it hands over the log at the boundary. The checked-in file predates the
// single decision path: its wall_s_before timed the retired batch
// reduction. Only runs when JOINTPM_BENCH_JSON names an output directory:
//
//	JOINTPM_BENCH_JSON=. go test -run TestWriteDecideBenchSummary .
func TestWriteDecideBenchSummary(t *testing.T) {
	dir := os.Getenv(experiments.BenchJSONEnv)
	if dir == "" {
		t.Skipf("set %s to a directory to write BENCH_decide.json", experiments.BenchJSONEnv)
	}

	p := core.DefaultParams(64*simtime.KB, 16*simtime.MB, 8192, disk.Barracuda(), mem.RDRAM(16*simtime.MB))
	p.HysteresisFrac = -1 // pure optimiser: identical work every iteration

	const refs, universe = 1 << 18, 1 << 20
	rng := stats.NewRNG(42)
	z := stats.NewZipf(stats.NewRNG(43), universe, 0.9)
	sim := lrusim.NewStackSim(1 << 20)
	log := make([]lrusim.DepthRecord, 0, refs)
	tm := 0.0
	for i := 0; i < refs; i++ {
		page := int64(z.Next())
		d := sim.Reference(page)
		log = append(log, lrusim.DepthRecord{Time: simtime.Seconds(tm), Page: page, Depth: d, Bytes: p.PageSize})
		tm += rng.Pareto(1.4, 0.02)
	}
	obs := core.Observation{
		Log:            log,
		CacheAccesses:  refs,
		CoalesceFactor: 1.3,
		PeriodEnd:      simtime.Seconds(tm) + 5,
	}
	scalar := obs
	scalar.Log = nil

	const iters = 10

	batchMgr, err := core.NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	batchMgr.Decide(obs) // warm the sweep buffers
	start := time.Now()
	for i := 0; i < iters; i++ {
		batchMgr.Decide(obs)
	}
	batchPerOp := time.Since(start).Seconds() / iters

	incMgr, err := core.NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	var incTotal time.Duration
	for i := 0; i <= iters; i++ {
		for j := range log {
			incMgr.Ingest(log[j])
		}
		start := time.Now()
		dec := incMgr.DecideIncremental(scalar)
		if i > 0 { // iteration 0 warms the buffers
			incTotal += time.Since(start)
		}
		want := batchMgr.Last()
		if dec.Banks != want.Banks || dec.Pages != want.Pages || dec.Timeout != want.Timeout {
			t.Fatalf("streamed decision %+v != whole-log decision %+v", dec, want)
		}
	}
	incPerOp := incTotal.Seconds() / iters

	path, err := experiments.WriteBenchSummary(dir, experiments.BenchSummary{
		Experiment:        "decide",
		Scale:             "reference",
		Point:             "256k zipf-0.9 refs, 8192 banks",
		WallSeconds:       incPerOp,
		WallSecondsBefore: batchPerOp,
		Iterations:        iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: streamed boundary %.2fms vs whole-log Decide %.2fms per decision",
		path, incPerOp*1e3, batchPerOp*1e3)
}
