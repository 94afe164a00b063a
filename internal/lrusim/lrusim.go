// Package lrusim implements the paper's extended LRU list (Section IV-B):
// an LRU stack that keeps both resident pages and recently replaced
// ("ghost") pages, and reports the LRU stack depth of every reference.
// The depth stream is what lets the joint power manager predict, without
// re-running the workload, how many disk accesses would occur at any
// candidate memory size — a reference at depth d hits in memory iff the
// resident capacity is at least d pages (Mattson's inclusion property).
//
// Each tracked page owns a position, and positions grow with recency. A
// reference costs one hash probe (page → position) plus a rank query
// over a bit-vector of live positions: a page's depth is the number of
// live positions after its own, plus one. The rank is one prefix walk of
// a Fenwick tree of per-word popcounts, which at the daemon's geometry
// (262,144 tracked pages) is 32 KB and stays cache-resident, so a
// reference pays about one cache-line miss, in the hash table. A naive
// O(n) list-walk oracle lives in the tests.
package lrusim

import (
	"math/bits"

	"jointpm/internal/intmap"
)

// Cold is the depth reported for a page's first reference (or a reference
// to a page already pushed out of the tracked ghost region). Such
// references are compulsory disk accesses at every memory size.
const Cold = -1

// StackSim tracks LRU stack depths over a page reference stream.
//
// Positions run from lo (no live position below it) to nextPos (the
// next one handed out); when nextPos reaches the end of the position
// space, compact renumbers the live positions 0..count-1 in place.
type StackSim struct {
	maxTracked int // resident + ghost capacity, in pages

	posOf  *intmap.Map // page -> position (higher = more recent)
	pageAt []int64     // position -> page, meaningful where live is set
	live   []uint64    // bit p set iff position p holds a tracked page
	tree   []int32     // Fenwick tree over popcount(live[w]), 1-based

	lo      int // first position that can be live: the LRU cursor
	nextPos int
	count   int

	refs  int64 // total references
	colds int64 // cold references
}

// NewStackSim returns a simulator that tracks at most maxTracked pages
// (resident plus ghost). References deeper than that report Cold.
func NewStackSim(maxTracked int) *StackSim {
	if maxTracked <= 0 {
		panic("lrusim: maxTracked must be positive")
	}
	// Twice the tracked window keeps compaction to once per maxTracked
	// references; whole words keep the bit-vector free of a ragged tail.
	capacity := max(2*maxTracked, 1024)
	capacity = (capacity + 63) &^ 63
	return &StackSim{
		maxTracked: maxTracked,
		posOf:      intmap.New(maxTracked),
		pageAt:     make([]int64, capacity),
		live:       make([]uint64, capacity/64),
		tree:       make([]int32, capacity/64+1),
	}
}

// Reference records an access to page and returns its LRU stack depth
// before the access (1 = it was the most recently used page). It returns
// Cold for pages not currently tracked. The page becomes the MRU entry.
func (s *StackSim) Reference(page int64) int {
	s.refs++
	if s.nextPos == len(s.pageAt) {
		s.compact()
	}
	pos := s.nextPos
	depth := Cold
	if old, ok := s.posOf.Update(page, int64(pos)); ok {
		// Depth = live positions after old, plus one.
		o := int(old)
		depth = s.count - s.rank(o) + 1
		s.unset(o)
	} else {
		s.colds++
		// Make room first, so the table never holds maxTracked+1 pages.
		if s.count == s.maxTracked {
			s.evictOldest()
		}
		s.posOf.Put(page, int64(pos))
		s.count++
	}
	s.pageAt[pos] = page
	s.live[pos>>6] |= 1 << (pos & 63)
	s.addWord(pos>>6, 1)
	s.nextPos++
	return depth
}

// rank returns the number of live positions at or before p.
func (s *StackSim) rank(p int) int {
	w := p >> 6
	n := bits.OnesCount64(s.live[w] << (63 - p&63))
	for i := w; i > 0; i -= i & -i {
		n += int(s.tree[i])
	}
	return n
}

// addWord adds delta to word w's popcount in the Fenwick tree.
func (s *StackSim) addWord(w int, delta int32) {
	for i := w + 1; i < len(s.tree); i += i & -i {
		s.tree[i] += delta
	}
}

// unset marks position p dead.
func (s *StackSim) unset(p int) {
	s.live[p>>6] &^= 1 << (p & 63)
	s.addWord(p>>6, -1)
}

// evictOldest drops the least recently used tracked page (the bottom of
// the ghost region): the first live position at or after the cursor.
func (s *StackSim) evictOldest() {
	w := s.lo >> 6
	b := s.live[w] >> (s.lo & 63) << (s.lo & 63)
	for b == 0 {
		w++
		b = s.live[w]
	}
	p := w<<6 | bits.TrailingZeros64(b)
	s.unset(p)
	s.posOf.Delete(s.pageAt[p])
	s.count--
	s.lo = p + 1
}

// compact renumbers live pages to positions 0..count-1, preserving
// order, without allocating: the Fenwick array is first turned into
// exclusive per-word prefix counts, so one sweep of the hash table maps
// every position to its rank; pageAt is then packed down in place and
// the bit-vector and tree rebuilt. Amortised O(1) per reference.
func (s *StackSim) compact() {
	prefix := s.tree[:len(s.live)]
	sum := int32(0)
	for w, word := range s.live {
		prefix[w] = sum
		sum += int32(bits.OnesCount64(word))
	}
	s.posOf.MapValues(func(p int64) int64 {
		mask := uint64(1)<<(p&63) - 1
		return int64(prefix[p>>6]) + int64(bits.OnesCount64(s.live[p>>6]&mask))
	})
	n := 0
	for w := s.lo >> 6; w < len(s.live); w++ {
		for b := s.live[w]; b != 0; b &= b - 1 {
			s.pageAt[n] = s.pageAt[w<<6|bits.TrailingZeros64(b)]
			n++
		}
	}
	clear(s.live)
	for w := 0; w < n>>6; w++ {
		s.live[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		s.live[n>>6] = 1<<r - 1
	}
	// Linear-time Fenwick build from the word popcounts.
	clear(s.tree)
	for i := 1; i < len(s.tree); i++ {
		s.tree[i] += int32(bits.OnesCount64(s.live[i-1]))
		if j := i + i&-i; j < len(s.tree) {
			s.tree[j] += s.tree[i]
		}
	}
	s.lo, s.nextPos = 0, n
}

// Len returns the number of tracked pages (resident + ghost).
func (s *StackSim) Len() int { return s.count }

// Refs returns the total number of references seen.
func (s *StackSim) Refs() int64 { return s.refs }

// Colds returns the number of cold (untracked) references seen.
func (s *StackSim) Colds() int64 { return s.colds }

// SnapshotPages returns the tracked pages in recency order, least
// recently used first. The result is independent of internal position
// renumbering (compact), so it is a stable serialization of the stack:
// feeding it to RestoreStackSim yields a simulator that reports the same
// depth for every future reference stream as the original.
func (s *StackSim) SnapshotPages() []int64 {
	out := make([]int64, 0, s.count)
	for w := s.lo >> 6; w < len(s.live); w++ {
		for b := s.live[w]; b != 0; b &= b - 1 {
			out = append(out, s.pageAt[w<<6|bits.TrailingZeros64(b)])
		}
	}
	return out
}

// Counters returns the lifetime reference counters: total references and
// cold references. They ride along with SnapshotPages in checkpoints.
func (s *StackSim) Counters() (refs, colds int64) { return s.refs, s.colds }

// RestoreStackSim rebuilds a StackSim from a SnapshotPages/Counters
// checkpoint. Pages must be in LRU-to-MRU order as SnapshotPages emits
// them; excess pages beyond maxTracked are evicted oldest-first, matching
// what a live simulator with the smaller window would have retained.
func RestoreStackSim(maxTracked int, pages []int64, refs, colds int64) *StackSim {
	s := NewStackSim(maxTracked)
	for _, p := range pages {
		s.Reference(p)
	}
	s.refs = refs
	s.colds = colds
	return s
}
