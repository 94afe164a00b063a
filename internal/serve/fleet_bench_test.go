package serve

import (
	"fmt"
	"testing"

	"jointpm/internal/simtime"
	"jointpm/internal/workload"
)

// benchFleet builds a capped server of n shards, each driven through two
// periods of its own traffic so that every shard publishes a different
// demand. FleetEpoch is pushed past the setup, so no epoch runs until
// the benchmark asks for one.
func benchFleet(b *testing.B, n int) *Server {
	b.Helper()
	cfg := goldenFleetConfig(&decisionLog{}, nil)
	cfg.PowerCapW *= float64(n) / goldenShards
	cfg.FleetEpoch = 1 << 40
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sh, err := srv.Shard(fmt.Sprintf("b%03d", i))
		if err != nil {
			b.Fatal(err)
		}
		tr, err := workload.Generate(workload.Config{
			DataSetBytes: 4 * goldenMem,
			PageSize:     cfg.PageSize,
			Rate:         (0.5 + 0.05*float64(i)) * float64(simtime.MB),
			Popularity:   0.05 + 0.35*float64(i%8)/7,
			Duration:     2 * goldenPeriod,
			Classes:      workload.SPECWeb99Classes(8),
			Seed:         2000 + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sh.IngestBatch(tr.Requests); err != nil {
			b.Fatal(err)
		}
		if err := sh.FinishTo(tr.Duration); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// BenchmarkFleetEpoch times one reallocation epoch over 256 shards with
// distinct demands, through the path a shard's boundary runs: collect
// every published demand, solve the cap, publish every budget. It is
// gated at 0 allocs/op in ci/alloc_budget.txt.
func BenchmarkFleetEpoch(b *testing.B) {
	srv := benchFleet(b, 256)
	defer srv.Close()
	srv.runEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.runEpoch()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/epoch")
}
