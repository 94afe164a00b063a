package sim

import (
	"reflect"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/obs"
	"jointpm/internal/policy"
)

// jointParams returns the parameters the engine's joint controller
// derives for a small joint run with the given overlay.
func jointParams(t *testing.T, joint *core.Params) core.Params {
	t.Helper()
	c := edgeConfig(singleRequestTrace(1))
	c.Method = policy.Joint(c.InstalledMem)
	c.Joint = joint
	cfg, err := c.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e.ctl.Manager().Params()
}

// TestMergeJointParamsOverlaysEveryField sets every overridable field of
// core.Params to a distinctive non-zero value in Config.Joint and checks
// each one lands in the parameters the joint manager runs with.
func TestMergeJointParamsOverlaysEveryField(t *testing.T) {
	base := jointParams(t, nil)
	reg := obs.NewRegistry()
	sink := &obs.DecisionSink{}
	o := core.Params{
		Period:               777,
		Window:               6,
		UtilCap:              0.55,
		DelayCap:             0.033,
		LongLatency:          0.75,
		EnumUnit:             4 << 20,
		MinBanks:             3,
		MaxCandidatesPerPass: 9,
		FixedTimeout:         true,
		NoConstraintFloor:    true,
		HysteresisFrac:       0.125,
		Metrics:              reg,
		DecisionTrace:        sink,
	}
	got := jointParams(t, &o)

	checks := map[string]struct{ got, want any }{
		"Period":               {got.Period, o.Period},
		"Window":               {got.Window, o.Window},
		"UtilCap":              {got.UtilCap, o.UtilCap},
		"DelayCap":             {got.DelayCap, o.DelayCap},
		"LongLatency":          {got.LongLatency, o.LongLatency},
		"EnumUnit":             {got.EnumUnit, o.EnumUnit},
		"MinBanks":             {got.MinBanks, o.MinBanks},
		"MaxCandidatesPerPass": {got.MaxCandidatesPerPass, o.MaxCandidatesPerPass},
		"FixedTimeout":         {got.FixedTimeout, o.FixedTimeout},
		"NoConstraintFloor":    {got.NoConstraintFloor, o.NoConstraintFloor},
		"HysteresisFrac":       {got.HysteresisFrac, o.HysteresisFrac},
		"Metrics":              {got.Metrics, o.Metrics},
		"DecisionTrace":        {got.DecisionTrace, o.DecisionTrace},
	}
	for name, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("field %s: merged %v, want override %v", name, c.got, c.want)
		}
	}

	// Derived/config-owned fields must never be overlaid: the engine
	// computes them from the sim config, and a stray override would
	// desynchronise the manager from the cache geometry.
	if got.PageSize != base.PageSize || got.BankSize != base.BankSize || got.TotalBanks != base.TotalBanks {
		t.Errorf("geometry fields changed by merge: got %v/%v/%v", got.PageSize, got.BankSize, got.TotalBanks)
	}
}

// TestMergeJointParamsZeroKeepsBase checks a zero-value override leaves
// every derived field untouched.
func TestMergeJointParamsZeroKeepsBase(t *testing.T) {
	base := jointParams(t, nil)
	got := jointParams(t, &core.Params{})
	if !reflect.DeepEqual(got, base) {
		t.Errorf("zero overlay changed params:\nbase: %+v\ngot:  %+v", base, got)
	}
}
