package core

import (
	"math"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
)

func TestDepthProfileBuckets(t *testing.T) {
	// bankPages = 4; maxBanks = 3. Records: cold, depth 1 (bank 1),
	// depth 4 (bank 1), depth 5 (bank 2), depth 9 (bank 3), repeat of
	// page at depth 5.
	log := []lrusim.DepthRecord{
		{Page: 100, Depth: lrusim.Cold, Bytes: 10},
		{Page: 1, Depth: 1, Bytes: 10},
		{Page: 2, Depth: 4, Bytes: 10},
		{Page: 3, Depth: 5, Bytes: 10},
		{Page: 4, Depth: 9, Bytes: 10},
		{Page: 3, Depth: 5, Bytes: 10}, // second access of page 3: total, not first
	}
	p := buildDepthProfile(log, 4, 3)

	if p.cold != 10 {
		t.Errorf("cold = %d", p.cold)
	}
	// missBytes: capacity 0 banks → everything non-hit... capacity in
	// banks: 1 bank covers depths ≤ 4, 2 banks ≤ 8, 3 banks ≤ 12.
	tests := []struct {
		banks int
		want  simtime.Bytes
	}{
		{0, 60},      // cold + all 5 non-cold records
		{1, 10 + 30}, // cold + depths 5,5,9
		{2, 10 + 10}, // cold + depth 9
		{3, 10},      // cold only
		{99, 10},     // clamped
	}
	for _, tt := range tests {
		if got := p.missBytes(tt.banks); got != tt.want {
			t.Errorf("missBytes(%d) = %d, want %d", tt.banks, got, tt.want)
		}
	}
	// refillBytes: first-access bytes per bank: bank1: pages 1,2 (20);
	// bank2: page 3 once (10); bank3: page 4 (10).
	refills := []struct {
		current, banks int
		want           simtime.Bytes
	}{
		{0, 3, 0},  // refill accounting disabled
		{1, 1, 0},  // no growth
		{2, 1, 0},  // shrink
		{1, 2, 10}, // gain bank 2 firsts
		{1, 3, 20}, // gain banks 2+3
		{2, 3, 10},
	}
	for _, tt := range refills {
		if got := p.refillBytes(tt.current, tt.banks); got != tt.want {
			t.Errorf("refillBytes(%d→%d) = %d, want %d", tt.current, tt.banks, got, tt.want)
		}
	}
}

func TestChooseTimeoutFallback(t *testing.T) {
	m, _ := NewManager(testParams())
	tbe := float64(testParams().DiskSpec.BreakEven())
	// Degenerate sample (single interval): fall back to the
	// two-competitive timeout.
	tc := m.chooseTimeout([]float64{500}, 1, 100, 600)
	if tc.FitOK {
		t.Error("single interval should not fit")
	}
	if math.Abs(float64(tc.Timeout)-tbe) > 1e-9 {
		t.Errorf("fallback timeout = %v, want t_be", tc.Timeout)
	}
	// Empty sample likewise.
	tc = m.chooseTimeout(nil, 0, 0, 600)
	if tc.FitOK || math.Abs(float64(tc.Timeout)-tbe) > 1e-9 {
		t.Errorf("empty-sample choice = %+v", tc)
	}
}

func TestChooseTimeoutFixedAblation(t *testing.T) {
	p := testParams()
	p.FixedTimeout = true
	m, _ := NewManager(p)
	tbe := float64(p.DiskSpec.BreakEven())
	sample := []float64{5, 8, 13, 21, 34, 55, 89, 144}
	tc := m.chooseTimeout(sample, 8, 1000, 600)
	if !tc.FitOK {
		t.Fatal("fit failed")
	}
	if tc.Floor == 0 && math.Abs(float64(tc.Timeout)-tbe) > 1e-9 {
		t.Errorf("fixed-timeout ablation returned %v, want t_be", tc.Timeout)
	}
}

func TestEmpiricalPMPower(t *testing.T) {
	spec := disk.Barracuda()
	pd := float64(spec.StaticPower())
	tbe := float64(spec.BreakEven())
	// No intervals: always-on power.
	if got := empiricalPMPower(nil, 10, 600, pd, tbe); math.Abs(got-pd) > 1e-9 {
		t.Errorf("no intervals: %g, want pd", got)
	}
	// One 300 s interval with a 10 s timeout over a 600 s period:
	// off 290 s, one transition.
	want := pd*(600-290)/600 + pd*tbe*1/600
	if got := empiricalPMPower([]float64{300}, 10, 600, pd, tbe); math.Abs(got-want) > 1e-9 {
		t.Errorf("single interval: %g, want %g", got, want)
	}
	// Interval shorter than timeout: nothing saved, nothing paid.
	if got := empiricalPMPower([]float64{5}, 10, 600, pd, tbe); math.Abs(got-pd) > 1e-9 {
		t.Errorf("short interval: %g, want pd", got)
	}
	// Off time clamps at the period.
	got := empiricalPMPower([]float64{10000}, 10, 600, pd, tbe)
	wantClamped := pd*0/600 + pd*tbe*1/600
	if math.Abs(got-wantClamped) > 1e-9 {
		t.Errorf("clamped: %g, want %g", got, wantClamped)
	}
}

func TestHysteresisHoldsForNoise(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	m, _ := NewManager(p) // last = 64 banks
	// A mildly reusing workload where the optimum differs from 64 banks
	// by less than 5% of total power (memory is micro-watts here).
	log := synthLog(4*p.bankPages(), 2000, 0.3, p.PageSize)
	d := decideChecked(t, m, Observation{Log: log, CacheAccesses: 2000, CoalesceFactor: 1, CurrentBanks: 64})
	if d.Banks != 64 {
		t.Errorf("hysteresis moved from 64 to %d for a marginal gain", d.Banks)
	}
	// Disabling hysteresis moves.
	p2 := testParams() // HysteresisFrac = -1
	m2, _ := NewManager(p2)
	d2 := m2.Decide(Observation{Log: log, CacheAccesses: 2000, CoalesceFactor: 1, CurrentBanks: 64})
	if d2.Banks == 64 {
		t.Skip("optimum happens to be 64 banks; hysteresis indistinguishable")
	}
}

func TestPredictedWaitShape(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	log := synthLog(10*p.bankPages(), 3000, 0.05, p.PageSize)
	obs := Observation{Log: log, CacheAccesses: 3000, CoalesceFactor: 1}
	// Smaller memory → more misses → higher utilization → longer
	// predicted queueing wait.
	small := m.evaluate(obs, 1, nil)
	large := m.evaluate(obs, 10, nil)
	if small.Utilization <= large.Utilization {
		t.Skip("utilizations not ordered; workload degenerate")
	}
	if small.PredictedWait <= large.PredictedWait {
		t.Errorf("wait not ordered: small %v vs large %v",
			small.PredictedWait, large.PredictedWait)
	}
	if large.PredictedWait < 0 {
		t.Errorf("negative wait %v", large.PredictedWait)
	}
}
