// Package fault is a deterministic, seedable fault-injection layer for
// the simulator. A Plan scripts which failures occur — disk spin-up
// failures with bounded retry/backoff, transient service-latency spikes,
// memory bank power-transition failures, and clock-skewed or truncated
// trace segments — and an Injector replays them as a pure function of
// (seed, period index, per-domain op index). Two runs with the same plan,
// seed, and workload inject byte-identical fault sequences; a nil
// injector (or a zero plan) injects nothing and leaves the simulator's
// fault-free path byte-identical.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
)

// DiskPlan scripts disk-model faults.
type DiskPlan struct {
	// SpinUpFailProb is the probability that one spin-up attempt fails.
	// Each failure costs one backoff delay (accounted as standby time —
	// the platter is not spinning while the drive retries) and the drive
	// retries up to SpinUpMaxRetries times; the attempt after the last
	// scripted failure always succeeds, so the disk can never wedge in
	// standby.
	SpinUpFailProb   float64 `json:"spinup_fail_prob,omitempty"`
	SpinUpMaxRetries int     `json:"spinup_max_retries,omitempty"` // default 3
	SpinUpBackoffS   float64 `json:"spinup_backoff_s,omitempty"`   // default 1.0

	// LatencySpikeProb is the probability that one disk request's service
	// time is stretched by LatencySpikeS (a transient read retry; counts
	// as busy time, so injected spikes push utilization up, never down).
	LatencySpikeProb float64 `json:"latency_spike_prob,omitempty"`
	LatencySpikeS    float64 `json:"latency_spike_s,omitempty"` // default 0.05
}

// MemPlan scripts memory-model faults.
type MemPlan struct {
	// TransitionFailProb is the probability that one bank power
	// transition (enable or disable) fails. A failed enable truncates the
	// usable contiguous bank prefix — the cache sizes down to what was
	// actually achieved; a failed disable leaves the bank burning nap
	// power until the next resize. Neither loses data.
	TransitionFailProb float64 `json:"transition_fail_prob,omitempty"`
}

// TraceSegment scripts one corrupted span of the input trace. Segments
// transform request times and survival deterministically — no randomness
// — so the same plan always yields the same corrupted trace.
type TraceSegment struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s,omitempty"` // ≤0: to the end of the trace

	// ClockSkew multiplies time-within-segment: t' = start + (t-start)·skew,
	// clamped to the segment end so ordering against later requests holds.
	// Skew < 1 compresses the segment — idle intervals collapse below the
	// manager's coalescing window, the Pareto fit degenerates, and the
	// fallback ladder is exercised. 0 or 1 means no skew.
	ClockSkew float64 `json:"clock_skew,omitempty"`

	// Drop truncates the segment: every request inside it is removed, as
	// if the trace collector lost that span.
	Drop bool `json:"drop,omitempty"`
}

// FleetPlan scripts fleet-coordinator faults: per-epoch shard summaries
// that never reach the coordinator (dropped) or reach it after the
// reallocation deadline (late). Either way the coordinator must degrade
// to the shard's last-known summary without ever letting the budget sum
// exceed the global cap — the 100-seed invariant run in internal/fleet
// holds exactly that.
type FleetPlan struct {
	// SummaryDropProb is the probability that one shard's summary for one
	// epoch is lost entirely.
	SummaryDropProb float64 `json:"summary_drop_prob,omitempty"`
	// SummaryLateProb is the probability that one shard's summary arrives
	// only after the epoch's reallocation has already solved.
	SummaryLateProb float64 `json:"summary_late_prob,omitempty"`
}

// DaemonPlan scripts daemon-process faults: crashes at deterministic
// points of the serving loop, used by the crash-recovery harness to test
// checkpoint/restore without real process kills in unit tests.
type DaemonPlan struct {
	// CrashAtPeriod scripts an abrupt crash while closing period N
	// (1-based; the decision for that period is never published and the
	// shutdown checkpoint is never written — only periodic checkpoints
	// survive). 0 means no crash.
	CrashAtPeriod int64 `json:"crash_at_period,omitempty"`
}

// Plan is one scripted fault scenario, loadable from JSON (see
// testdata/faults/*.json and the schema in DESIGN.md).
type Plan struct {
	Seed   uint64         `json:"seed"`
	Disk   DiskPlan       `json:"disk,omitempty"`
	Mem    MemPlan        `json:"mem,omitempty"`
	Trace  []TraceSegment `json:"trace,omitempty"`
	Daemon DaemonPlan     `json:"daemon,omitempty"`
	Fleet  FleetPlan      `json:"fleet,omitempty"`
}

// IsZero reports whether the plan injects nothing: every probability
// zero and no trace segments. A zero plan behind an Injector must
// produce results deeply equal to running with no injector at all (the
// differential test in invariant_test.go holds this).
func (p *Plan) IsZero() bool {
	return p.Disk.SpinUpFailProb == 0 && p.Disk.LatencySpikeProb == 0 &&
		p.Mem.TransitionFailProb == 0 && len(p.Trace) == 0 &&
		p.Daemon.CrashAtPeriod == 0 &&
		p.Fleet.SummaryDropProb == 0 && p.Fleet.SummaryLateProb == 0
}

// Validate reports the first structural error in the plan.
func (p *Plan) Validate() error {
	if err := prob("disk.spinup_fail_prob", p.Disk.SpinUpFailProb); err != nil {
		return err
	}
	if err := prob("disk.latency_spike_prob", p.Disk.LatencySpikeProb); err != nil {
		return err
	}
	if err := prob("mem.transition_fail_prob", p.Mem.TransitionFailProb); err != nil {
		return err
	}
	if err := prob("fleet.summary_drop_prob", p.Fleet.SummaryDropProb); err != nil {
		return err
	}
	if err := prob("fleet.summary_late_prob", p.Fleet.SummaryLateProb); err != nil {
		return err
	}
	if p.Disk.SpinUpMaxRetries < 0 {
		return fmt.Errorf("fault: disk.spinup_max_retries %d negative", p.Disk.SpinUpMaxRetries)
	}
	if p.Disk.SpinUpBackoffS < 0 {
		return fmt.Errorf("fault: disk.spinup_backoff_s %g negative", p.Disk.SpinUpBackoffS)
	}
	if p.Disk.LatencySpikeS < 0 {
		return fmt.Errorf("fault: disk.latency_spike_s %g negative", p.Disk.LatencySpikeS)
	}
	if p.Daemon.CrashAtPeriod < 0 {
		return fmt.Errorf("fault: daemon.crash_at_period %d negative", p.Daemon.CrashAtPeriod)
	}
	prevEnd := 0.0
	for i, s := range p.Trace {
		if s.StartS < prevEnd {
			return fmt.Errorf("fault: trace segment %d starts at %g inside/before predecessor ending %g", i, s.StartS, prevEnd)
		}
		if s.EndS > 0 && s.EndS <= s.StartS {
			return fmt.Errorf("fault: trace segment %d empty: [%g,%g)", i, s.StartS, s.EndS)
		}
		if s.ClockSkew < 0 {
			return fmt.Errorf("fault: trace segment %d has negative clock skew %g", i, s.ClockSkew)
		}
		if s.EndS <= 0 {
			if i != len(p.Trace)-1 {
				return fmt.Errorf("fault: trace segment %d is open-ended but not last", i)
			}
			break
		}
		prevEnd = s.EndS
	}
	return nil
}

func prob(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("fault: %s %g outside [0,1]", name, v)
	}
	return nil
}

// withDefaults fills the knobs a sparse JSON plan leaves zero.
func (p Plan) withDefaults() Plan {
	if p.Disk.SpinUpFailProb > 0 {
		if p.Disk.SpinUpMaxRetries == 0 {
			p.Disk.SpinUpMaxRetries = 3
		}
		if p.Disk.SpinUpBackoffS == 0 {
			p.Disk.SpinUpBackoffS = 1.0
		}
	}
	if p.Disk.LatencySpikeProb > 0 && p.Disk.LatencySpikeS == 0 {
		p.Disk.LatencySpikeS = 0.05
	}
	return p
}

// LoadPlan reads and validates a JSON fault plan.
func LoadPlan(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("fault: reading plan: %w", err)
	}
	p, err := ParsePlan(b)
	if err != nil {
		err = fmt.Errorf("fault: plan %s: %w", path, err)
	}
	return p, err
}

// ParsePlan decodes and validates a JSON fault plan.
func ParsePlan(b []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return p, fmt.Errorf("fault: parsing plan: %w", err)
	}
	return p, p.Validate()
}
