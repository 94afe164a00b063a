package experiments

import (
	"fmt"
	"testing"

	"jointpm/internal/policy"
	"jointpm/internal/sim"
	"jointpm/internal/workload"
)

// TestIncrementalModeMatchesBatchOnFig7Set is the experiment-level half
// of the decision-path proof: across the Fig. 7 data-set axis (base trace
// scaled ×1, ×2, ×4 by the synthesizer), the JOINT method's streamed
// decisions must match, journal byte for journal byte, a manager handed
// each period's whole depth log through Decide (sim.VerifyDecisions).
func TestIncrementalModeMatchesBatchOnFig7Set(t *testing.T) {
	s := quick()
	r := newRunner(s, policy.Joint(s.InstalledMem))

	rate := 100 * s.RateUnit
	warmup := s.WarmupFor(4*s.Unit, rate)
	base, err := s.GenerateBase(4*s.Unit, rate, 0.1, 3, warmup)
	if err != nil {
		t.Fatal(err)
	}
	syn := workload.NewSynthesizer(3)

	for _, factor := range []int{1, 2, 4} {
		factor := factor
		t.Run(fmt.Sprintf("x%d", factor), func(t *testing.T) {
			tr := base
			if factor > 1 {
				var err error
				tr, err = syn.ScaleDataSet(base, factor)
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sim.VerifyDecisions(r.config(tr, policy.Joint(s.InstalledMem), warmup)); err != nil {
				t.Errorf("x%d: %v", factor, err)
			}
		})
	}
}
