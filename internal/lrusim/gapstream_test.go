package lrusim

import (
	"math"
	"math/rand"
	"testing"

	"jointpm/internal/simtime"
)

// randEvents builds a time-ordered event stream with banks in
// [minBank+1, maxBanks+1] (the cold sentinel included) and occasional
// same-timestamp runs when dedup would be off.
func randEvents(rng *rand.Rand, n, maxBanks, minBank int, dupT bool) []SweepEvent {
	ev := make([]SweepEvent, 0, n)
	t := simtime.Seconds(0)
	for i := 0; i < n; i++ {
		if !dupT || len(ev) == 0 || rng.Intn(4) != 0 {
			t += simtime.Seconds(rng.ExpFloat64() * 0.2)
		}
		bank := int32(minBank + 1 + rng.Intn(maxBanks+1-minBank))
		if dupT {
			if m := len(ev); m > 0 && ev[m-1].T == t {
				// mirror the dedup the histogram applies
				if bank > ev[m-1].Bank {
					ev[m-1].Bank = bank
				}
				continue
			}
		}
		ev = append(ev, SweepEvent{T: t, Bank: bank})
	}
	return ev
}

// randSlate draws an ascending slate of up to kmax unique bank counts —
// kmax > 32 exercises the blocked multi-pass form of the gap kernels.
func randSlate(rng *rand.Rand, maxBanks, kmax int) []int32 {
	k := 1 + rng.Intn(kmax)
	if k > maxBanks {
		k = maxBanks
	}
	seen := map[int]bool{}
	slate := make([]int32, 0, k)
	for len(slate) < k {
		b := 1 + rng.Intn(maxBanks)
		if !seen[b] {
			seen[b] = true
			slate = append(slate, int32(b))
		}
	}
	for i := 1; i < len(slate); i++ {
		for j := i; j > 0 && slate[j] < slate[j-1]; j-- {
			slate[j], slate[j-1] = slate[j-1], slate[j]
		}
	}
	return slate
}

// buildGapLog runs the complete bank-space sweep over a finished event
// stream in one call.
func buildGapLog(g *GapStream, events []SweepEvent, maxBanks int, window, start, end simtime.Seconds) []Emission {
	g.Reset(window, maxBanks)
	g.FeedBatch(events)
	return g.Finish(start, end)
}

// TestGapStreamIncrementalMatchesBatch checks the gap log's contract
// against the per-candidate replay: for every threshold B on the bank
// axis, the emissions covering B (Lo ≤ B < Hi), in log order, are exactly
// the interval list BoundedIdleIntervals replays from the whole log at a
// capacity of B banks — the log a DepthHist streams record by record
// (with the straggler fed late) holds every candidate's intervals at
// once. Finish must be idempotent.
func TestGapStreamIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		bankPages := int64(1 + rng.Intn(4))
		maxBanks := 4 + rng.Intn(40)
		window := simtime.Seconds(rng.Float64() * 0.3)
		if trial%3 == 0 {
			window = 0
		}
		start, end := simtime.Seconds(0), simtime.Seconds(500)
		if trial%4 == 1 {
			start, end = -1, -1
		}
		log := randPeriodLog(rng, bankPages, maxBanks)
		h := NewDepthHist(bankPages, maxBanks, 0, window)
		for _, r := range log {
			h.Observe(r)
		}
		gaps := h.FinishGaps(start, end)
		for b := 0; b <= maxBanks; b++ {
			want, _ := BoundedIdleIntervals(log, int64(b)*bankPages, window, start, end)
			var got []float64
			for _, e := range gaps {
				if e.Lo <= int32(b) && int32(b) < e.Hi {
					got = append(got, e.Gap)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d, %d banks: %d gaps, replay has %d", trial, b, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d, %d banks, gap %d: %v, replay %v", trial, b, i, got[i], want[i])
				}
			}
		}
		again := append([]Emission(nil), gaps...)
		compareLogs(t, trial, again, h.FinishGaps(start, end)) // idempotent
	}
}

func compareLogs(t *testing.T, trial int, want, got []Emission) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("trial %d: log length %d vs %d", trial, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i].Gap) != math.Float64bits(got[i].Gap) ||
			want[i].Lo != got[i].Lo || want[i].Hi != got[i].Hi {
			t.Fatalf("trial %d emission %d: %+v vs %+v", trial, i, want[i], got[i])
		}
	}
}

// TestSweepGapsGenericMatchesAsm pins the asm gap kernels to the generic
// compact-and-fold tier bit for bit, on the same inputs.
func TestSweepGapsGenericMatchesAsm(t *testing.T) {
	if !gapAsm {
		t.Skip("no AVX512 gap kernels on this machine")
	}
	defer func() { gapAsmEnabled(true) }()
	rng := rand.New(rand.NewSource(13))
	var gs GapStream
	var asmS, genS EventSweeper
	for trial := 0; trial < 150; trial++ {
		maxBanks := 4 + rng.Intn(80)
		window := simtime.Seconds(rng.Float64() * 0.2)
		ev := randEvents(rng, rng.Intn(500), maxBanks, 0, true)
		gaps := buildGapLog(&gs, ev, maxBanks, window, 0, 400)
		kmax := 32
		if trial%2 == 1 {
			kmax = 80
		}
		slate := randSlate(rng, maxBanks, kmax)
		k := len(slate)
		gapAsmEnabled(true)
		asmS.SweepGaps(gaps, slate, int32(maxBanks))
		gapAsmEnabled(false)
		genS.SweepGaps(gaps, slate, int32(maxBanks))
		for i := 0; i < k; i++ {
			if asmS.Cnt[i] != genS.Cnt[i] ||
				math.Float64bits(asmS.Sum[i]) != math.Float64bits(genS.Sum[i]) ||
				math.Float64bits(asmS.Min[i]) != math.Float64bits(genS.Min[i]) {
				t.Fatalf("trial %d cand %d: asm (%d, %v, %v) vs generic (%d, %v, %v)",
					trial, i, asmS.Cnt[i], asmS.Sum[i], asmS.Min[i],
					genS.Cnt[i], genS.Sum[i], genS.Min[i])
			}
		}
		kk := (k + 31) &^ 31
		to := make([]float64, k, kk)
		tsA := make([]float64, k, kk)
		hA := make([]int64, k, kk)
		tsG := make([]float64, k, kk)
		hG := make([]int64, k, kk)
		for i := range to {
			to[i] = rng.Float64() * 0.3
		}
		asmS.TailStats(to, tsA, hA)
		genS.TailStats(to, tsG, hG)
		for i := 0; i < k; i++ {
			if math.Float64bits(tsA[i]) != math.Float64bits(tsG[i]) || hA[i] != hG[i] {
				t.Fatalf("trial %d tail cand %d: asm (%v, %d) vs generic (%v, %d)",
					trial, i, tsA[i], hA[i], tsG[i], hG[i])
			}
		}
	}
}
