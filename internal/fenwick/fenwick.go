// Package fenwick implements a Fenwick (binary indexed) tree over int64
// counts. The depth histogram (lrusim.DepthHist) keeps its per-bank
// reference and byte counts in these trees: an O(log n) Add per
// reference, and one O(n) pass materialising every prefix sum when a
// period boundary prices the candidate memory sizes.
package fenwick

// Tree is a Fenwick tree over indices [0, n). The zero value is unusable;
// construct with New.
type Tree struct {
	a []int64
}

// New returns a tree of size n with all counts zero.
func New(n int) *Tree {
	if n < 0 {
		panic("fenwick: negative size")
	}
	return &Tree{a: make([]int64, n+1)}
}

// Len returns the index capacity of the tree.
func (t *Tree) Len() int { return len(t.a) - 1 }

// Add adds delta to index i.
func (t *Tree) Add(i int, delta int64) {
	if i < 0 || i >= t.Len() {
		panic("fenwick: index out of range")
	}
	for i++; i < len(t.a); i += i & -i {
		t.a[i] += delta
	}
}

// AppendPrefixSums appends all Len() prefix sums to dst and returns the
// extended slice: the k-th appended value is the sum of indices [0, k].
// One tree walk per index would cost O(n log n); this materialises them
// in O(n) using the tree's own structure — node i already holds the sum
// of the lowbit(i) indices ending at i, so prefix(i) = prefix(i − lowbit(i)) + a[i], and
// the needed smaller prefix is always already computed. The depth-
// histogram decision path uses this to turn a whole profile query into
// one linear pass.
func (t *Tree) AppendPrefixSums(dst []int64) []int64 {
	n := t.Len()
	base := len(dst)
	for i := 1; i <= n; i++ {
		s := t.a[i]
		if j := i - i&(-i); j > 0 {
			s += dst[base+j-1]
		}
		dst = append(dst, s)
	}
	return dst
}

// Reset zeroes all counts, retaining capacity.
func (t *Tree) Reset() {
	for i := range t.a {
		t.a[i] = 0
	}
}
