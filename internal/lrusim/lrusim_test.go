package lrusim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPaperExample(t *testing.T) {
	// The example from Section IV-B, Fig. 3: eight-page memory, access
	// sequence (1, 2, 3, 5, 2, 1, 4, 6, 5, 2). First four accesses are
	// cold; then 2 and 1 hit at depths 3 and 4; 4 and 6 are cold; 5 and 2
	// return at depth 5.
	s := NewStackSim(8)
	seq := []int64{1, 2, 3, 5, 2, 1, 4, 6, 5, 2}
	want := []int{Cold, Cold, Cold, Cold, 3, 4, Cold, Cold, 5, 5}
	for i, p := range seq {
		if got := s.Reference(p); got != want[i] {
			t.Fatalf("access %d (page %d): depth %d, want %d", i, p, got, want[i])
		}
	}
	if s.Refs() != 10 || s.Colds() != 6 {
		t.Errorf("refs=%d colds=%d, want 10/6", s.Refs(), s.Colds())
	}
	if s.Len() != 6 {
		t.Errorf("tracked %d pages, want 6", s.Len())
	}
}

func TestDepthOneForRepeat(t *testing.T) {
	s := NewStackSim(4)
	s.Reference(7)
	if got := s.Reference(7); got != 1 {
		t.Errorf("immediate re-reference depth = %d, want 1", got)
	}
}

func TestEvictionBeyondCapacity(t *testing.T) {
	s := NewStackSim(3)
	for p := int64(0); p < 5; p++ {
		s.Reference(p)
	}
	if s.Len() != 3 {
		t.Fatalf("tracked %d, want 3", s.Len())
	}
	// Pages 0 and 1 were pushed out; they must be cold again.
	if got := s.Reference(0); got != Cold {
		t.Errorf("evicted page depth = %d, want Cold", got)
	}
	// Pages 3 and 4 are still tracked (2 was evicted when 0 re-entered).
	if got := s.Reference(4); got == Cold {
		t.Error("recent page reported cold")
	}
}

func TestCompactPreservesOrder(t *testing.T) {
	// Force many compactions with a small tracked set.
	s := NewStackSim(4)
	n := NewNaiveStack(4)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		p := int64(rng.Intn(16))
		if got, want := s.Reference(p), n.Reference(p); got != want {
			t.Fatalf("op %d page %d: fenwick %d vs naive %d", i, p, got, want)
		}
	}
}

// TestQuickDifferential is the main correctness property: the Fenwick
// implementation agrees with the naive list walk on random workloads of
// varying skew and tracked capacity.
func TestQuickDifferential(t *testing.T) {
	f := func(seed int64, cap8 uint8, universe8 uint8) bool {
		capacity := 1 + int(cap8)%64
		universe := 1 + int(universe8)%128
		s := NewStackSim(capacity)
		n := NewNaiveStack(capacity)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			var p int64
			if rng.Intn(2) == 0 {
				p = int64(rng.Intn(universe)) // uniform
			} else {
				p = int64(rng.Intn(universe/4 + 1)) // skewed hot set
			}
			if s.Reference(p) != n.Reference(p) {
				return false
			}
			if s.Len() != n.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadCapacity(t *testing.T) {
	for _, f := range []func(){
		func() { NewStackSim(0) },
		func() { NewNaiveStack(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// benchWindow is BenchmarkStackSimReference's tracked window: the
// daemon's default geometry (4 GB of 16 KB pages), where the page table
// and position array outgrow the caches and a reference is miss-bound.
const benchWindow = 1 << 18

// BenchmarkStackSimReference times the stack at the daemon's geometry
// on multi-page runs (1–8 pages, uniform starts) over a page space twice
// the window, so about half the references are cold and the stack stays
// full. One op is benchWindow references — one compaction interval in
// steady state — so the alloc budget of 0 covers compaction too.
func BenchmarkStackSimReference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	refs := make([]int64, 0, 4*benchWindow+8)
	for len(refs) < 4*benchWindow {
		start, n := rng.Int63n(2*benchWindow), 1+rng.Int63n(8)
		for p := start; p < start+n; p++ {
			refs = append(refs, p)
		}
	}
	refs = refs[:4*benchWindow]
	s := NewStackSim(benchWindow)
	for _, p := range refs { // fill the window and compact once
		s.Reference(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % 4) * benchWindow
		for _, p := range refs[off : off+benchWindow] {
			s.Reference(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchWindow, "ns/ref")
}

func BenchmarkStackSimNaive(b *testing.B) {
	s := NewNaiveStack(1 << 12)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(int64(rng.Intn(1 << 12)))
	}
}
