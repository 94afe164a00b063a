package lrusim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
)

// TestBoundedIdleIntervalsEdgeCases pins the reconstruction semantics the
// multi-threshold sweep must reproduce exactly.
func TestBoundedIdleIntervalsEdgeCases(t *testing.T) {
	t.Run("empty log", func(t *testing.T) {
		iv, nd := BoundedIdleIntervals(nil, 4, 0.1, -1, -1)
		if len(iv) != 0 || nd != 0 {
			t.Fatalf("unbounded empty log: iv=%v nd=%d", iv, nd)
		}
		// Bounded: no disk access ever happens, so the whole period is one
		// idle interval from start to end.
		iv, nd = BoundedIdleIntervals(nil, 4, 0.1, 0, 600)
		if nd != 0 || len(iv) != 1 || iv[0] != 600 {
			t.Fatalf("bounded empty log: iv=%v nd=%d, want one 600s interval", iv, nd)
		}
	})

	t.Run("all hits", func(t *testing.T) {
		log := recordsFromSeq([]float64{1, 2, 3}, []int{1, 2, 1})
		iv, nd := BoundedIdleIntervals(log, 4, 0.1, -1, -1)
		if len(iv) != 0 || nd != 0 {
			t.Fatalf("unbounded all-hit log: iv=%v nd=%d", iv, nd)
		}
		// Bounded all-hit log: the disk never spins, one boundary-spanning
		// interval.
		iv, nd = BoundedIdleIntervals(log, 4, 0.1, 0, 100)
		if nd != 0 || len(iv) != 1 || iv[0] != 100 {
			t.Fatalf("bounded all-hit log: iv=%v nd=%d", iv, nd)
		}
	})

	t.Run("window exactly equals gap", func(t *testing.T) {
		// Gap of exactly the window length is kept (>=, not >).
		log := recordsFromSeq([]float64{0, 2}, []int{Cold, Cold})
		iv, _ := BoundedIdleIntervals(log, 1, 2, -1, -1)
		if len(iv) != 1 || iv[0] != 2 {
			t.Fatalf("gap==window dropped: iv=%v", iv)
		}
		// A hair under the window is dropped.
		iv, _ = BoundedIdleIntervals(log, 1, 2.0000001, -1, -1)
		if len(iv) != 0 {
			t.Fatalf("gap<window kept: iv=%v", iv)
		}
	})

	t.Run("period boundary gaps", func(t *testing.T) {
		log := recordsFromSeq([]float64{10, 20}, []int{Cold, Cold})
		// Unbounded: only the inter-access gap.
		iv, nd := BoundedIdleIntervals(log, 1, 0.5, -1, -1)
		if nd != 2 || !reflect.DeepEqual(iv, []float64{10}) {
			t.Fatalf("unbounded: iv=%v nd=%d", iv, nd)
		}
		// Bounded [0, 35]: leading 10s and trailing 15s gaps join it.
		iv, nd = BoundedIdleIntervals(log, 1, 0.5, 0, 35)
		if nd != 2 || !reflect.DeepEqual(iv, []float64{10, 10, 15}) {
			t.Fatalf("bounded: iv=%v nd=%d", iv, nd)
		}
		// End exactly at the last access: no trailing gap (end must be
		// strictly after the last disk access).
		iv, _ = BoundedIdleIntervals(log, 1, 0.5, 0, 20)
		if !reflect.DeepEqual(iv, []float64{10, 10}) {
			t.Fatalf("end==last: iv=%v", iv)
		}
	})
}

// randomSweepCase builds a time-ordered depth log (with same-timestamp
// runs, so the histogram's event compression is exercised) and an
// ascending slate of bank counts (repeats and 0 allowed, wide enough to
// take the blocked gap kernels) from a seed.
func randomSweepCase(rng *rand.Rand) (log []DepthRecord, slate []int32, window, start, end simtime.Seconds) {
	n := rng.Intn(400)
	tm := 0.0
	for i := 0; i < n; i++ {
		if rng.Intn(5) > 0 {
			tm += rng.Float64() * 3
		}
		d := Cold
		if rng.Intn(4) > 0 {
			d = 1 + rng.Intn(64)
		}
		log = append(log, DepthRecord{
			Time:  simtime.Seconds(tm),
			Page:  int64(rng.Intn(128)),
			Depth: d,
			Bytes: simtime.Bytes(1 + rng.Intn(4)),
		})
	}
	k := 1 + rng.Intn(80)
	v := int32(0)
	for i := 0; i < k; i++ {
		v += int32(rng.Intn(3)) // may repeat (step 0) and may start at 0
		slate = append(slate, v)
	}
	switch rng.Intn(3) {
	case 0:
		window = 0
	case 1:
		window = simtime.Seconds(rng.Float64())
	default:
		window = simtime.Seconds(rng.Float64() * 5)
	}
	start, end = -1, -1
	if rng.Intn(2) == 0 {
		start = 0
		end = simtime.Seconds(tm + rng.Float64()*10)
	}
	return log, slate, window, start, end
}

// replayStats is the per-candidate oracle: the idle intervals one
// BoundedIdleIntervals replay reconstructs at a capacity of pages,
// reduced in chronological order exactly as the gap kernels fold them.
func replayStats(log []DepthRecord, pages int64, window, start, end simtime.Seconds) (iv []float64, nd, cnt int64, sum, min float64) {
	iv, nd = BoundedIdleIntervals(log, pages, window, start, end)
	min = math.Inf(1)
	for _, l := range iv {
		sum += l
		if l < min {
			min = l
		}
	}
	return iv, nd, int64(len(iv)), sum, min
}

// TestQuickSweepEquivalence is the kernel's correctness property: pricing
// a slate from a DepthHist's gap log (event compression, GapStream, the
// remapped fold, then a TailStats pass) is bit-identical to one
// BoundedIdleIntervals replay per candidate — interval count, sum, min,
// disk accesses, and the tail reductions at arbitrary timeouts — across
// randomized logs, bank geometries, event-dropping depths, windows
// (including 0, where zero-length gaps count), observation bounds, and
// slates wider than one 32-lane kernel block.
func TestQuickSweepEquivalence(t *testing.T) {
	var sw EventSweeper // shared across cases: buffer reuse must not leak state
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		log, slate, window, start, end := randomSweepCase(rng)
		bankPages := int64(1 + rng.Intn(3))
		maxBanks := int(slate[len(slate)-1])
		if maxBanks < 1 {
			maxBanks = 1
		}
		h := NewDepthHist(bankPages, maxBanks, rng.Intn(int(slate[0])+1), window)
		for off := 0; off < len(log); {
			n := 1 + rng.Intn(len(log)-off)
			if rng.Intn(2) == 0 {
				h.Observe(log[off])
				n = 1
			} else {
				h.ObserveBatch(log[off : off+n])
			}
			off += n
		}
		colds, _ := h.Cold()
		nonCold, _ := h.NonCold()
		countPfx := h.AppendCountPrefix(nil)
		sw.SweepGaps(h.FinishGaps(start, end), slate, int32(maxBanks))

		k := len(slate)
		kk := (k + 31) &^ 31
		to := make([]float64, k, kk)
		ts := make([]float64, k, kk)
		hs := make([]int64, k, kk)
		for i := range to {
			to[i] = rng.Float64() * 3
			if rng.Intn(8) == 0 {
				to[i] = math.Inf(1)
			}
		}
		sw.TailStats(to, ts, hs)
		for i, b := range slate {
			iv, wantNd, cnt, sum, min := replayStats(log, int64(b)*bankPages, window, start, end)
			nd := colds + nonCold
			if b > 0 {
				nd -= countPfx[b-1]
			}
			if nd != wantNd {
				t.Logf("seed %d slate[%d]=%d: nd %d, want %d", seed, i, b, nd, wantNd)
				return false
			}
			if sw.Cnt[i] != cnt || math.Float64bits(sw.Sum[i]) != math.Float64bits(sum) ||
				math.Float64bits(sw.Min[i]) != math.Float64bits(min) {
				t.Logf("seed %d slate[%d]=%d: kernel (%d, %v, %v), replay (%d, %v, %v)",
					seed, i, b, sw.Cnt[i], sw.Sum[i], sw.Min[i], cnt, sum, min)
				return false
			}
			var wantTS float64
			var wantH int64
			for _, l := range iv {
				if l > to[i] {
					wantTS += l - to[i]
					wantH++
				}
			}
			if math.Float64bits(ts[i]) != math.Float64bits(wantTS) || hs[i] != wantH {
				t.Logf("seed %d slate[%d]=%d tail at %v: kernel (%v, %d), replay (%v, %d)",
					seed, i, b, to[i], ts[i], hs[i], wantTS, wantH)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepMatchesPaperExample prices the Fig. 4 log from
// TestIdleIntervalsSplitAndMerge at all three sizes in one slate: 9/7/5
// idle intervals over 10/8/6 disk accesses, and the 17 s interval the
// hits at t=10 and t=11 merge at the larger sizes is the only one longer
// than 16.5 s.
func TestSweepMatchesPaperExample(t *testing.T) {
	times := []float64{0, 1, 2, 3, 10, 11, 20, 21, 30, 31}
	depths := []int{Cold, Cold, Cold, Cold, 3, 4, Cold, Cold, 5, 5}
	log := recordsFromSeq(times, depths)
	h := NewDepthHist(1, 5, 0, 0.5)
	h.ObserveBatch(log)
	slate := []int32{2, 4, 5}
	var sw EventSweeper
	sw.SweepGaps(h.FinishGaps(-1, -1), slate, 5)
	if sw.Cnt[0] != 9 || sw.Cnt[1] != 7 || sw.Cnt[2] != 5 {
		t.Fatalf("interval counts = %v, want [9 7 5]", sw.Cnt)
	}
	pfx := h.AppendCountPrefix(nil)
	for i, want := range []int64{10, 8, 6} {
		if nd := int64(len(log)) - pfx[slate[i]-1]; nd != want {
			t.Fatalf("slate[%d]: %d disk accesses, want %d", i, nd, want)
		}
	}
	to := make([]float64, 3, 32)
	for i := range to {
		to[i] = 16.5
	}
	ts := make([]float64, 3, 32)
	hs := make([]int64, 3, 32)
	sw.TailStats(to, ts, hs)
	if !reflect.DeepEqual(hs, []int64{0, 1, 1}) || !reflect.DeepEqual(ts, []float64{0, 0.5, 0.5}) {
		t.Fatalf("tail past 16.5 s: h=%v ts=%v, want [0 1 1] / [0 0.5 0.5]", hs, ts)
	}
}

func TestSweepPanicsOnDescendingThresholds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var sw EventSweeper
	sw.SweepGaps(nil, []int32{4, 2}, 8)
}

// sweepBenchLog builds the paper-scale-ish log shared by the sweep
// benchmarks: 1<<16 references over a Zipf-like reuse pattern, priced at
// 32 thresholds of 512 pages.
func sweepBenchLog() ([]DepthRecord, []int64, simtime.Seconds) {
	rng := rand.New(rand.NewSource(5))
	s := NewStackSim(1 << 16)
	log := make([]DepthRecord, 0, 1<<16)
	tm := simtime.Seconds(0)
	for i := 0; i < 1<<16; i++ {
		tm += simtime.Seconds(rng.Float64() * 0.02)
		p := int64(rng.Intn(1 << 14))
		log = append(log, DepthRecord{Time: tm, Page: p, Depth: s.Reference(p), Bytes: 64 * simtime.KB})
	}
	thresholds := make([]int64, 32)
	for i := range thresholds {
		thresholds[i] = int64(i+1) * 512
	}
	return log, thresholds, tm
}

// BenchmarkSweepGaps32 measures pricing one 32-candidate slate from a
// finished gap log — the work a joint-manager refinement pass costs at
// the boundary (the gap log itself is built at ingest).
func BenchmarkSweepGaps32(b *testing.B) {
	log, _, tm := sweepBenchLog()
	h := NewDepthHist(512, 32, 0, 0.1)
	h.ObserveBatch(log)
	gaps := h.FinishGaps(0, tm)
	slate := make([]int32, 32)
	for i := range slate {
		slate[i] = int32(i + 1)
	}
	var sw EventSweeper
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.SweepGaps(gaps, slate, 32)
	}
}

// BenchmarkPerSizeReplay32 measures the same pass as 32 independent log
// replays — the replay oracle's cost, for comparison.
func BenchmarkPerSizeReplay32(b *testing.B) {
	log, thresholds, tm := sweepBenchLog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range thresholds {
			BoundedIdleIntervals(log, m, 0.1, 0, tm)
		}
	}
}
