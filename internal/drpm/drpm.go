// Package drpm derives a multi-speed disk ladder in the spirit of
// Gurumurthi et al., "DRPM: Dynamic Speed Control for Power Management in
// Server Class Disks" (ISCA 2003) — the alternative to spin-down that the
// paper discusses in its related work: when idle intervals are too short
// to amortise a full spin-down, lowering the platters' rotational speed
// still saves power, at the cost of slower service.
//
// DeriveLevels builds the ladder from a base (full-speed) drive:
// rotational power scales with the square of the speed ratio (the
// aerodynamic drag term dominates), transfer rate scales linearly, and
// rotational latency inversely. Speed transitions take time proportional
// to the RPM gap. The disk model (disk.SetSpeedLevels) runs the ladder,
// the joint manager prices it (core.Params.SpeedLevels), and the DR
// method's utilization-cap policy (policy.SpeedCap) drives it.
package drpm

import (
	"math"

	"jointpm/internal/disk"
	"jointpm/internal/simtime"
)

// Level is one rotational speed step. It is an alias of disk.SpeedLevel
// so ladders derived here plug straight into the disk model and the
// joint manager's slate (core.Params.SpeedLevels) without conversion.
type Level = disk.SpeedLevel

// Spec is a multi-speed drive: a base mechanical/power model plus the
// derived speed ladder, fastest first.
type Spec struct {
	SeekTime simtime.Seconds
	Levels   []Level
	// TransitionPerRPM is the time to change speed, per RPM of difference
	// (DRPM reports hundreds of ms for full-range swings).
	TransitionPerRPM simtime.Seconds
}

// fallbackTransitionPerRPM is the documented fallback speed-change rate
// (~0.4 s across a 12k RPM swing, per the DRPM paper's reported
// full-range transition times), used when the base spec carries no
// spin-up characteristics to derive a rate from.
const fallbackTransitionPerRPM = simtime.Seconds(0.4 / 12000)

// speedTransitionFrac scales a drive's full spin-up time down to a
// per-full-RPM-range speed-change budget: changing speed only
// re-accelerates the platter, it never waits out the head load and
// ready sequence a cold spin-up pays. The value is calibrated so a
// 12k RPM drive with a 10 s spin-up reproduces the DRPM paper's ~0.4 s
// half-range swing: 0.08 · 10 s · (6000/12000) = 0.4 s.
const speedTransitionFrac = 0.08

// DeriveLevels builds a Spec from a single-speed drive: `steps` levels
// from full RPM down to half, idle power scaling quadratically with the
// speed ratio and service linearly. Level 0 copies the base drive's
// constants verbatim, so a ladder's full-speed level prices exactly like
// the underlying disk.Spec (bit-identical, not just approximately).
//
// fullRPM ≤ 0 derives the spindle speed from the base drive's rotational
// latency (half a revolution), falling back to 7200 RPM if that is
// unusable. TransitionPerRPM is derived from the base drive's spin-up
// time (see speedTransitionFrac); a spec without one gets the documented
// DRPM-paper fallback rate.
func DeriveLevels(base disk.Spec, fullRPM, steps int) Spec {
	if steps < 1 {
		steps = 1
	}
	if fullRPM <= 0 {
		if base.RotationalLatency > 0 {
			// Average rotational latency is half a revolution:
			// RPM = 60 / (2 · rotLatency).
			fullRPM = int(math.Round(60 / (2 * float64(base.RotationalLatency))))
		}
		if fullRPM <= 0 {
			fullRPM = 7200
		}
	}
	perRPM := fallbackTransitionPerRPM
	if base.SpinUpTime > 0 {
		perRPM = simtime.Seconds(speedTransitionFrac * float64(base.SpinUpTime) / float64(fullRPM))
	}
	s := Spec{
		SeekTime:         base.SeekTime,
		TransitionPerRPM: perRPM,
	}
	for i := 0; i < steps; i++ {
		if i == 0 {
			s.Levels = append(s.Levels, Level{
				RPM:          fullRPM,
				IdlePower:    base.IdlePower,
				ActivePower:  base.ActivePower,
				TransferRate: base.TransferRate,
				RotLatency:   base.RotationalLatency,
			})
			continue
		}
		ratio := 1 - 0.5*float64(i)/float64(max(steps-1, 1)) // 1.0 .. 0.5
		dynamic := float64(base.ActivePower - base.IdlePower)
		s.Levels = append(s.Levels, Level{
			RPM:          int(float64(fullRPM) * ratio),
			IdlePower:    simtime.Watts(float64(base.IdlePower) * ratio * ratio),
			ActivePower:  simtime.Watts(float64(base.IdlePower)*ratio*ratio + dynamic),
			TransferRate: base.TransferRate * ratio,
			RotLatency:   simtime.Seconds(float64(base.RotationalLatency) / ratio),
		})
	}
	return s
}
