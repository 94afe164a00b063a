package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

// zipfObservation builds a period observation with Zipf-skewed reuse over
// enough distinct pages to span many banks, plus Pareto-ish idle gaps —
// the shape a paper-scale server period produces.
func zipfObservation(p Params, refs int, universe int, seed int64) Observation {
	rng := stats.NewRNG(seed)
	z := stats.NewZipf(stats.NewRNG(seed+1), universe, 0.9)
	s := lrusim.NewStackSim(1 << 20)
	log := make([]lrusim.DepthRecord, 0, refs)
	tm := 0.0
	for i := 0; i < refs; i++ {
		page := int64(z.Next())
		d := s.Reference(page)
		log = append(log, lrusim.DepthRecord{
			Time: simtime.Seconds(tm), Page: page, Depth: d, Bytes: p.PageSize,
		})
		tm += rng.Pareto(1.4, 0.02)
	}
	return Observation{
		Log:            log,
		CacheAccesses:  int64(refs),
		CoalesceFactor: 1.3,
		PeriodStart:    0,
		PeriodEnd:      simtime.Seconds(tm) + 5,
	}
}

// TestDecideSweepMatchesReplay is the Decide-level oracle property: every
// candidate the slate kernel prices during a full decision — all
// refinement passes and the hysteresis probe — must be bit-identical to
// the replay oracle's per-size log replay, across randomized
// observations, with and without hysteresis/refill accounting. Since the
// search itself only compares candidates, this pins the whole decision.
func TestDecideSweepMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := testParams()
		if seed%2 == 0 {
			p.HysteresisFrac = 0.05
		}
		obs := zipfObservation(p, 4000, 1<<12, seed)
		if seed%2 == 0 {
			obs.CurrentBanks = 16
		}
		m, _ := NewManager(p)
		if d := decideChecked(t, m, obs); len(d.Candidates) < 2 {
			t.Fatalf("seed %d: decision priced only %d candidates", seed, len(d.Candidates))
		}
	}
}

// TestEvaluateSlateMatchesEvaluate checks the slate kernel (evalSlate
// over the ingested gap log) against per-candidate replay for arbitrary —
// including non-grid, single-entry and empty — slates, and for every
// size at once. Pricing a slate must not consume the ingested period.
func TestEvaluateSlateMatchesEvaluate(t *testing.T) {
	p := testParams()
	m, _ := NewManager(p)
	obs := zipfObservation(p, 3000, 1<<11, 7)
	m.IngestBatch(obs.Log)
	in := m.inputFromHist(&obs)
	twin := replayTwin(m)
	prof := buildDepthProfile(obs.Log, p.bankPages(), p.TotalBanks)
	rng := rand.New(rand.NewSource(9))
	var slates [][]int
	for trial := 0; trial < 5; trial++ {
		slate := []int{1 + rng.Intn(4)}
		for len(slate) < 2+rng.Intn(10) {
			slate = append(slate, slate[len(slate)-1]+1+rng.Intn(6))
		}
		slates = append(slates, slate)
	}
	all := make([]int, 0, p.TotalBanks)
	for b := p.MinBanks; b <= p.TotalBanks; b++ {
		all = append(all, b)
	}
	slates = append(slates, nil, []int{5}, all)
	for _, slate := range slates {
		got := make([]Candidate, len(slate))
		m.evalSlate(in, slate, got)
		for i, b := range slate {
			if want := twin.evaluate(obs, b, prof); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("slate %v bank %d: slate candidate %+v != replay %+v", slate, b, got[i], want)
			}
		}
	}
	if m.Hist().Refs() != int64(len(obs.Log)) {
		t.Fatalf("slate pricing consumed the ingested period")
	}
}
