package lrusim

// NaiveStack is the textbook O(n)-per-reference LRU stack: the
// differential-testing oracle for StackSim and the baseline of
// BenchmarkStackSimNaive.
type NaiveStack struct {
	maxTracked int
	pages      []int64 // index 0 is MRU
}

// NewNaiveStack returns a naive stack tracking at most maxTracked pages.
func NewNaiveStack(maxTracked int) *NaiveStack {
	if maxTracked <= 0 {
		panic("lrusim: maxTracked must be positive")
	}
	return &NaiveStack{maxTracked: maxTracked}
}

// Reference records an access and returns the 1-based stack depth before
// the access, or Cold for untracked pages.
func (s *NaiveStack) Reference(page int64) int {
	depth := Cold
	for i, p := range s.pages {
		if p == page {
			depth = i + 1
			copy(s.pages[1:i+1], s.pages[:i])
			s.pages[0] = page
			return depth
		}
	}
	s.pages = append(s.pages, 0)
	copy(s.pages[1:], s.pages)
	s.pages[0] = page
	if len(s.pages) > s.maxTracked {
		s.pages = s.pages[:s.maxTracked]
	}
	return depth
}

// Len returns the number of tracked pages.
func (s *NaiveStack) Len() int { return len(s.pages) }
