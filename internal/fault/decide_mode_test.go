package fault

import (
	"path/filepath"
	"testing"

	"jointpm/internal/sim"
)

// TestIncrementalModeMatchesBatchUnderFaults extends the decision-path
// proof into the degradation ladder: under every checked-in fault plan
// and several seeds, the engine's streamed decisions must match, journal
// byte for journal byte, a manager handed each period's whole depth log
// through Decide (sim.VerifyDecisions). Faulted runs reach the decision
// paths a clean trace never does — degenerate fits, fallback decisions,
// failed banks making the applied size differ from the decided one — so
// this pins the streamed observation where it would be easiest to break.
func TestIncrementalModeMatchesBatchUnderFaults(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "faults", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in plans: %v", err)
	}
	seeds := []uint64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	base := jointWorkload(t)
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			plan, err := LoadPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				plan.Seed = seed
				inj := NewInjector(plan, base.Period, nil)
				cfg := *base
				cfg.Trace = inj.ApplyTrace(cfg.Trace)
				cfg.DiskFaults = inj
				cfg.MemFaults = inj
				if _, err := sim.VerifyDecisions(cfg); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
