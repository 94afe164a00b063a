// Package policy defines the 15 power-management methods the paper
// compares (Section V-A), each a combination of a disk policy and a
// memory policy:
//
//	disk:   2T  two-competitive timeout (timeout = break-even time)
//	        AD  adaptive timeout (Douglis et al.)
//	memory: FM  fixed memory size, banks nap after accesses
//	        PD  timeout power-down of idle banks
//	        DS  timeout disable of idle banks
//
// plus the always-on baseline (disk never spins down, all memory naps)
// and the paper's joint method, which manages both resources together
// (implemented in internal/core and orchestrated by internal/sim).
//
// Two disk policies extend the paper's set: EA, exponential-average
// predictive shutdown (PredictiveShutdown), and DR, DRPM-style dynamic
// rotation speed under a utilization cap (SpeedCap). Like the timeout
// policies they combine with any memory policy, e.g. "EAFM-16GB" or
// "DRFM-256MB".
package policy

import (
	"fmt"
	"sort"
	"strings"

	"jointpm/internal/disk"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
)

// DiskKind selects the disk power policy.
type DiskKind int

// Disk policy kinds.
const (
	DiskAlwaysOn DiskKind = iota
	DiskTwoCompetitive
	DiskAdaptive
	DiskJoint // timeout chosen by the joint manager each period
	// DiskPredictive is the exponential-average predictive shutdown
	// (see PredictiveShutdown), an extension beyond the paper's set.
	DiskPredictive
	// DiskSpeedCap never spins down and scales rotation speed under a
	// utilization cap (see SpeedCap), an extension beyond the paper's
	// set. It needs a speed ladder (sim.Config.SpeedLevels ≥ 2).
	DiskSpeedCap
)

func (k DiskKind) String() string {
	switch k {
	case DiskAlwaysOn:
		return "ON"
	case DiskTwoCompetitive:
		return "2T"
	case DiskAdaptive:
		return "AD"
	case DiskJoint:
		return "JT"
	case DiskPredictive:
		return "EA"
	case DiskSpeedCap:
		return "DR"
	default:
		return "??"
	}
}

// MemKind selects the memory management policy.
type MemKind int

// Memory policy kinds.
const (
	MemFixedNap MemKind = iota // fixed size, banks always nap
	MemPowerDown
	MemDisable
	MemJoint // size chosen by the joint manager each period
)

func (k MemKind) String() string {
	switch k {
	case MemFixedNap:
		return "FM"
	case MemPowerDown:
		return "PD"
	case MemDisable:
		return "DS"
	case MemJoint:
		return "JT"
	default:
		return "??"
	}
}

// BankPolicy maps the method-level memory kind to the bank-metering
// policy used by the mem package.
func (k MemKind) BankPolicy() mem.BankPolicy {
	switch k {
	case MemPowerDown:
		return mem.TimeoutPowerDown
	case MemDisable:
		return mem.TimeoutDisable
	default:
		return mem.AlwaysNap
	}
}

// Method is one named power-management configuration.
type Method struct {
	Disk DiskKind
	Mem  MemKind
	// MemBytes is the memory available to the method: the fixed size for
	// FM, and the installed maximum for PD/DS/joint/always-on.
	MemBytes simtime.Bytes
}

// Joint is the paper's method: both resources managed by the period
// controller over the full installed memory.
func Joint(installed simtime.Bytes) Method {
	return Method{Disk: DiskJoint, Mem: MemJoint, MemBytes: installed}
}

// AlwaysOn is the normalisation baseline: the disk never spins down and
// all installed memory stays in nap.
func AlwaysOn(installed simtime.Bytes) Method {
	return Method{Disk: DiskAlwaysOn, Mem: MemFixedNap, MemBytes: installed}
}

// IsJoint reports whether the method is the joint method.
func (m Method) IsJoint() bool { return m.Disk == DiskJoint || m.Mem == MemJoint }

// Name renders the paper's naming scheme, e.g. "2TFM-8GB", "ADPD-128GB",
// "JOINT", or "ALWAYS-ON".
func (m Method) Name() string {
	if m.IsJoint() {
		return "JOINT"
	}
	if m.Disk == DiskAlwaysOn && m.Mem == MemFixedNap {
		return "ALWAYS-ON"
	}
	return fmt.Sprintf("%v%v-%s", m.Disk, m.Mem, m.MemBytes)
}

// Comparison returns the paper's full comparison set for the given
// installed memory and FM sizes: {2T, AD} × ({FM-size...} ∪ {PD, DS}),
// then the joint method, then the always-on baseline — 16 methods when
// called with the paper's five FM sizes.
func Comparison(installed simtime.Bytes, fmSizes []simtime.Bytes) []Method {
	var out []Method
	for _, dk := range []DiskKind{DiskTwoCompetitive, DiskAdaptive} {
		for _, sz := range fmSizes {
			out = append(out, Method{Disk: dk, Mem: MemFixedNap, MemBytes: sz})
		}
		out = append(out, Method{Disk: dk, Mem: MemPowerDown, MemBytes: installed})
		out = append(out, Method{Disk: dk, Mem: MemDisable, MemBytes: installed})
	}
	out = append(out, Joint(installed))
	out = append(out, AlwaysOn(installed))
	return out
}

// ParseName parses a method name produced by Name. It accepts "JOINT",
// "ALWAYS-ON", and the "<disk><mem>-<size>" scheme (e.g. "ADDS-128GB").
func ParseName(name string) (Method, error) {
	n := strings.ToUpper(strings.TrimSpace(name))
	switch n {
	case "JOINT":
		return Method{Disk: DiskJoint, Mem: MemJoint}, nil
	case "ALWAYS-ON", "ALWAYSON", "ON":
		return Method{Disk: DiskAlwaysOn, Mem: MemFixedNap}, nil
	}
	dash := strings.IndexByte(n, '-')
	if dash < 4 {
		return Method{}, fmt.Errorf("policy: cannot parse method %q", name)
	}
	var m Method
	switch n[:2] {
	case "2T":
		m.Disk = DiskTwoCompetitive
	case "AD":
		m.Disk = DiskAdaptive
	case "ON":
		m.Disk = DiskAlwaysOn
	case "EA":
		m.Disk = DiskPredictive
	case "DR":
		m.Disk = DiskSpeedCap
	default:
		return Method{}, fmt.Errorf("policy: unknown disk policy in %q", name)
	}
	switch n[2:dash] {
	case "FM":
		m.Mem = MemFixedNap
	case "PD":
		m.Mem = MemPowerDown
	case "DS":
		m.Mem = MemDisable
	default:
		return Method{}, fmt.Errorf("policy: unknown memory policy in %q", name)
	}
	sz, err := simtime.ParseBytes(n[dash+1:])
	if err != nil {
		return Method{}, fmt.Errorf("policy: bad size in %q: %w", name, err)
	}
	m.MemBytes = sz
	return m, nil
}

// SortMethods orders methods the way the paper's figures do: 2T group,
// AD group (each FM by ascending size, then PD, DS), then JOINT, then
// ALWAYS-ON.
func SortMethods(ms []Method) {
	rank := func(m Method) (int, int, int64) {
		switch {
		case m.IsJoint():
			return 2, 0, 0
		case m.Disk == DiskAlwaysOn:
			return 3, 0, 0
		default:
			memRank := 0
			if m.Mem == MemPowerDown {
				memRank = 1
			}
			if m.Mem == MemDisable {
				memRank = 2
			}
			return 0, int(m.Disk)*10 + memRank, int64(m.MemBytes)
		}
	}
	sort.SliceStable(ms, func(i, j int) bool {
		g1, k1, s1 := rank(ms[i])
		g2, k2, s2 := rank(ms[j])
		if g1 != g2 {
			return g1 < g2
		}
		if k1 != k2 {
			return k1 < k2
		}
		return s1 < s2
	})
}

// AdaptiveTimeout implements the Douglis et al. adaptive spin-down
// policy with the paper's parameters: start at 10 s, adjust by 5 s steps
// within [5 s, 30 s], increasing when the spin-up delay exceeds 5% of
// the idle interval that preceded it and decreasing otherwise.
type AdaptiveTimeout struct {
	d *disk.Disk

	Start, Min, Max, Step simtime.Seconds
	MaxDelayRatio         float64

	timeout simtime.Seconds
}

// NewAdaptiveTimeout attaches an adaptive policy to the disk with the
// paper's parameters and returns it.
func NewAdaptiveTimeout(d *disk.Disk) *AdaptiveTimeout {
	a := &AdaptiveTimeout{
		d:             d,
		Start:         10,
		Min:           5,
		Max:           30,
		Step:          5,
		MaxDelayRatio: 0.05,
	}
	a.timeout = a.Start
	d.SetTimeout(d.Now(), a.timeout)
	d.SetObserver(a)
	return a
}

// Timeout returns the current adaptive timeout.
func (a *AdaptiveTimeout) Timeout() simtime.Seconds { return a.timeout }

// IdleEnded implements disk.Observer. Only spin-ups carry information
// about the delay the user experienced; idle gaps that never spun down
// leave the timeout unchanged (they caused no delay to amortise).
func (a *AdaptiveTimeout) IdleEnded(idle simtime.Seconds, spunDown bool) {
	if !spunDown {
		return
	}
	ratio := float64(a.d.Spec().SpinUpTime) / float64(idle)
	if ratio > a.MaxDelayRatio {
		a.timeout += a.Step
		if a.timeout > a.Max {
			a.timeout = a.Max
		}
	} else {
		a.timeout -= a.Step
		if a.timeout < a.Min {
			a.timeout = a.Min
		}
	}
	a.d.SetTimeout(a.d.Now(), a.timeout)
}
