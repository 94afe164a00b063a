package drpm

import (
	"math"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/simtime"
)

func drpmSpec() Spec {
	return DeriveLevels(disk.Barracuda(), 12000, 4)
}

func TestDeriveLevels(t *testing.T) {
	s := drpmSpec()
	if len(s.Levels) != 4 {
		t.Fatalf("levels = %d", len(s.Levels))
	}
	if s.Levels[0].RPM != 12000 || s.Levels[3].RPM != 6000 {
		t.Errorf("RPM ladder: %d..%d", s.Levels[0].RPM, s.Levels[3].RPM)
	}
	for i := 1; i < len(s.Levels); i++ {
		if s.Levels[i].IdlePower >= s.Levels[i-1].IdlePower {
			t.Error("idle power not decreasing with speed")
		}
		if s.Levels[i].TransferRate >= s.Levels[i-1].TransferRate {
			t.Error("transfer rate not decreasing with speed")
		}
		if s.Levels[i].RotLatency <= s.Levels[i-1].RotLatency {
			t.Error("rotational latency not increasing as speed drops")
		}
	}
	// Half speed = quarter idle power.
	ratio := float64(s.Levels[3].IdlePower) / float64(s.Levels[0].IdlePower)
	if ratio < 0.24 || ratio > 0.26 {
		t.Errorf("half-speed power ratio = %g, want ~0.25", ratio)
	}
	if !(s.TransitionPerRPM > 0) {
		t.Errorf("TransitionPerRPM = %v, want positive", s.TransitionPerRPM)
	}
}

// TestDeriveTransitionRate pins the TransitionPerRPM derivation: it must
// come from the base drive's spin-up characteristics, not the old
// hardcoded 0.4/12000, with the documented constant kept only as the
// fallback for specs without a spin-up time.
func TestDeriveTransitionRate(t *testing.T) {
	base := disk.Barracuda()
	s := DeriveLevels(base, 12000, 4)
	want := simtime.Seconds(speedTransitionFrac * float64(base.SpinUpTime) / 12000)
	if s.TransitionPerRPM != want {
		t.Errorf("TransitionPerRPM = %v, want %v derived from SpinUpTime", s.TransitionPerRPM, want)
	}
	// A drive with twice the spin-up time re-accelerates proportionally
	// slower — the rate cannot be a constant.
	slow := base
	slow.SpinUpTime *= 2
	if got := DeriveLevels(slow, 12000, 4).TransitionPerRPM; got != 2*want {
		t.Errorf("doubled spin-up: TransitionPerRPM = %v, want %v", got, 2*want)
	}
	// No spin-up characteristics: the documented DRPM-paper fallback.
	bare := base
	bare.SpinUpTime = 0
	if got := DeriveLevels(bare, 12000, 4).TransitionPerRPM; got != fallbackTransitionPerRPM {
		t.Errorf("fallback TransitionPerRPM = %v, want %v", got, fallbackTransitionPerRPM)
	}
}

// TestDeriveFullRPMFromSpec checks the fullRPM ≤ 0 path: the spindle
// speed comes from the base drive's rotational latency (half a
// revolution), with 7200 as the last-resort default.
func TestDeriveFullRPMFromSpec(t *testing.T) {
	base := disk.Barracuda()
	s := DeriveLevels(base, 0, 2)
	want := int(math.Round(60 / (2 * float64(base.RotationalLatency))))
	if s.Levels[0].RPM != want {
		t.Errorf("derived RPM = %d, want %d from rotational latency", s.Levels[0].RPM, want)
	}
	bare := base
	bare.RotationalLatency = 0
	if got := DeriveLevels(bare, 0, 2).Levels[0].RPM; got != 7200 {
		t.Errorf("default RPM = %d, want 7200", got)
	}
}

// TestLevelZeroVerbatim pins the bit-identity precondition the joint
// slate depends on: a ladder's full-speed level must copy the base
// drive's constants exactly, not reconstruct them through the ratio
// arithmetic (1.0 multiplications are FP-exact, but the contract should
// not depend on that).
func TestLevelZeroVerbatim(t *testing.T) {
	base := disk.Barracuda()
	l := DeriveLevels(base, 12000, 4).Levels[0]
	if l.IdlePower != base.IdlePower || l.ActivePower != base.ActivePower ||
		l.TransferRate != base.TransferRate || l.RotLatency != base.RotationalLatency {
		t.Errorf("level 0 not a verbatim copy of the base spec: %+v vs %+v", l, base)
	}
}
