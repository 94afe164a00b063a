package lrusim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
)

// histState flattens every externally observable aggregate of a
// DepthHist, including the finished gap log, for equality checks.
type histState struct {
	refs, maxDepth         int64
	coldCount              int64
	coldBytes, nonColdB    simtime.Bytes
	countPfx, totPfx, fPfx []int64
	events                 []SweepEvent
	gaps                   []Emission
}

func captureHist(h *DepthHist, start, end simtime.Seconds) histState {
	_, cb := h.Cold()
	cc, _ := h.Cold()
	_, nb := h.NonCold()
	return histState{
		refs:      h.Refs(),
		maxDepth:  h.MaxDepth(),
		coldCount: cc,
		coldBytes: cb,
		nonColdB:  nb,
		countPfx:  h.AppendCountPrefix(nil),
		totPfx:    h.AppendTotalPrefix(nil),
		fPfx:      h.AppendFirstPrefix(nil),
		events:    append([]SweepEvent(nil), h.events...),
		gaps:      append([]Emission(nil), h.FinishGaps(start, end)...),
	}
}

// TestObserveBatchMatchesObserve: feeding a period log through
// ObserveBatch in arbitrary chunk sizes — interleaved with single-record
// Observe calls — must leave the histogram, event stream, and gap log in
// exactly the state record-at-a-time feeding produces.
func TestObserveBatchMatchesObserve(t *testing.T) {
	geometries := []struct {
		bankPages int64
		maxBanks  int
		minKeep   int
		window    simtime.Seconds
	}{
		{4, 8, 1, 0.5},
		{4, 8, 1, 0}, // zero window: same-time compression off
		{1, 16, 3, 0.25},
		{7, 5, 2, 1.0},
	}
	for _, g := range geometries {
		ref := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		bat := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		trial := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			log := randPeriodLog(rng, g.bankPages, g.maxBanks)
			start, end := simtime.Seconds(-1), simtime.Seconds(-1)
			if rng.Intn(2) == 0 {
				start, end = 0, log[len(log)-1].Time+1
			}
			ref.Reset()
			for _, r := range log {
				ref.Observe(r)
			}
			bat.Reset()
			for off := 0; off < len(log); {
				n := 1 + rng.Intn(len(log)-off)
				if rng.Intn(4) == 0 {
					bat.Observe(log[off])
					off++
					continue
				}
				bat.ObserveBatch(log[off : off+n])
				off += n
			}
			want := captureHist(ref, start, end)
			got := captureHist(bat, start, end)
			if !reflect.DeepEqual(want, got) {
				t.Logf("seed %d geometry %+v:\nwant %+v\ngot  %+v", seed, g, want, got)
				return false
			}
			return true
		}
		if err := quick.Check(trial, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("geometry %+v: %v", g, err)
		}
	}
}

// TestFeedBatchMatchesFeed: folding an event stream through FeedBatch in
// chunks leaves the gap stream exactly where one-at-a-time feeding does.
func TestFeedBatchMatchesFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		maxBanks := 1 + rng.Intn(12)
		window := simtime.Seconds(0)
		if rng.Intn(2) == 0 {
			window = simtime.Seconds(rng.Float64())
		}
		n := rng.Intn(60)
		evs := make([]SweepEvent, 0, n)
		tm := simtime.Seconds(0)
		for i := 0; i < n; i++ {
			tm += simtime.Seconds(rng.Float64() * 2)
			evs = append(evs, SweepEvent{T: tm, Bank: int32(1 + rng.Intn(maxBanks+1))})
		}
		var a, b GapStream
		a.Reset(window, maxBanks)
		b.Reset(window, maxBanks)
		for _, e := range evs {
			a.Feed(e)
		}
		for off := 0; off < len(evs); {
			k := 1 + rng.Intn(len(evs)-off)
			b.FeedBatch(evs[off : off+k])
			off += k
		}
		end := tm + 1
		ga := append([]Emission(nil), a.Finish(0, end)...)
		gb := append([]Emission(nil), b.Finish(0, end)...)
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("trial %d: gap logs diverge\nfeed:  %+v\nbatch: %+v", trial, ga, gb)
		}
	}
}
