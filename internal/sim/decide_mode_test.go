package sim

import (
	"reflect"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

// TestIncrementalModeMatchesBatch is the engine-level half of the
// decision-path proof: the engine streams every reference into the
// joint manager in blocks and decides at each boundary, and its decision
// journal must match, byte for byte, a manager handed each period's whole
// depth log through Decide (VerifyDecisions rebuilds the logs from the
// trace with its own LRU stack). Core's differential tests hold Decide to
// the replay oracle, so this closes the chain from trace to oracle.
// Covered: warmup periods (discarded unexamined), the four-level speed
// ladder, and the drift hold. The deprecated Config.Decide field must be
// ignored.
func TestIncrementalModeMatchesBatch(t *testing.T) {
	tr := testWorkload(t, float64(simtime.MB), 1800)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"warmup", func(c *Config) { c.Warmup = 300 }},
		{"speed-ladder", func(c *Config) { c.SpeedLevels = 4 }},
		{"refit-drift", func(c *Config) { c.RefitDriftFrac = core.DefaultRefitDriftFrac }},
	}
	for _, tc := range cases {
		cfg := testConfig(tr, policy.Joint(128*simtime.MB))
		tc.mut(&cfg)
		res, err := VerifyDecisions(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Periods) < 10 {
			t.Fatalf("%s: only %d periods", tc.name, len(res.Periods))
		}
		for _, mode := range []core.DecideMode{core.ModeBatch, core.ModeIncremental} {
			cfg.Decide = mode
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, res) {
				t.Errorf("%s: the deprecated Decide=%d changed the result", tc.name, mode)
			}
		}
	}
}
