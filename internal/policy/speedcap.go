package policy

import (
	"jointpm/internal/disk"
	"jointpm/internal/drpm"
	"jointpm/internal/simtime"
)

// SpeedCapUtilization is the DR method's utilization cap: each period
// the disk runs at the slowest level whose predicted busy share of the
// period stays at or under it.
const SpeedCapUtilization = 0.5

// SpeedCap implements the dynamic-rotation-speed policy of Gurumurthi et
// al. (DRPM, ISCA 2003), the related-work alternative to spin-down,
// exposed as the "DR" disk kind. The disk never spins down; instead, at
// each period close, the policy predicts the closing period's busy time
// at every level of a drpm.DeriveLevels ladder and moves the platters to
// the slowest level whose utilization stays within SpeedCapUtilization.
type SpeedCap struct {
	d      *disk.Disk
	ladder drpm.Spec
	period simtime.Seconds
}

// NewSpeedCap attaches a steps-level ladder derived from the disk's spec
// to the disk and returns the policy, which decides once per period of
// the given length. The disk starts at full speed.
func NewSpeedCap(d *disk.Disk, steps int, period simtime.Seconds) *SpeedCap {
	s := &SpeedCap{d: d, ladder: drpm.DeriveLevels(d.Spec(), 0, steps), period: period}
	d.SetSpeedLevels(s.ladder.Levels, s.ladder.TransitionPerRPM)
	return s
}

// Close applies the next period's level at boundary t from the closing
// period's demand w (the window's disk.Stats): each of w.Requests pays
// the level's seek and rotational latency, and w.BytesMoved its transfer
// rate.
func (s *SpeedCap) Close(t simtime.Seconds, w disk.Stats) {
	best := 0
	for l := len(s.ladder.Levels) - 1; l >= 0; l-- {
		lv := s.ladder.Levels[l]
		busy := float64(w.Requests)*float64(s.ladder.SeekTime+lv.RotLatency) +
			float64(w.BytesMoved)/lv.TransferRate
		if busy/float64(s.period) <= SpeedCapUtilization {
			best = l
			break
		}
	}
	s.d.SetSpeedLevel(t, best)
}
