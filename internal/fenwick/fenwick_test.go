package fenwick

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// prefixSum is the textbook O(log n) prefix query over the tree's
// nodes: the sum of indices [0, i], clamped to the tree, 0 for i < 0.
// It is the independent oracle AppendPrefixSums is checked against.
func prefixSum(t *Tree, i int) int64 {
	i = min(i, t.Len()-1)
	var s int64
	for i++; i > 0; i -= i & -i {
		s += t.a[i]
	}
	return s
}

// rangeSum is the sum of indices [lo, hi], 0 when lo > hi.
func rangeSum(t *Tree, lo, hi int) int64 {
	if lo > hi {
		return 0
	}
	return prefixSum(t, hi) - prefixSum(t, lo-1)
}

func TestBasicSums(t *testing.T) {
	tr := New(8)
	tr.Add(0, 1)
	tr.Add(3, 5)
	tr.Add(7, 2)
	tests := []struct {
		i    int
		want int64
	}{
		{-1, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 6}, {6, 6}, {7, 8}, {100, 8},
	}
	for _, tt := range tests {
		if got := prefixSum(tr, tt.i); got != tt.want {
			t.Errorf("prefixSum(%d) = %d, want %d", tt.i, got, tt.want)
		}
	}
	if got := rangeSum(tr, 1, 3); got != 5 {
		t.Errorf("rangeSum(1,3) = %d, want 5", got)
	}
	if got := rangeSum(tr, 4, 6); got != 0 {
		t.Errorf("rangeSum(4,6) = %d, want 0", got)
	}
	if got := rangeSum(tr, 5, 2); got != 0 {
		t.Errorf("rangeSum(5,2) = %d, want 0", got)
	}
	if got := prefixSum(tr, tr.Len()-1); got != 8 {
		t.Errorf("Total = %d, want 8", got)
	}
	want := []int64{1, 1, 1, 6, 6, 6, 6, 8}
	if got := tr.AppendPrefixSums(nil); !slices.Equal(got, want) {
		t.Errorf("AppendPrefixSums = %v, want %v", got, want)
	}
}

func TestNegativeDeltas(t *testing.T) {
	tr := New(4)
	tr.Add(2, 3)
	tr.Add(2, -3)
	if got := prefixSum(tr, tr.Len()-1); got != 0 {
		t.Errorf("Total after cancel = %d, want 0", got)
	}
}

func TestReset(t *testing.T) {
	tr := New(16)
	for i := 0; i < 16; i++ {
		tr.Add(i, int64(i))
	}
	tr.Reset()
	if got := prefixSum(tr, tr.Len()-1); got != 0 {
		t.Errorf("Total after Reset = %d, want 0", got)
	}
	tr.Add(5, 7)
	if got := prefixSum(tr, 5); got != 7 {
		t.Errorf("prefixSum(5) after Reset+Add = %d, want 7", got)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	New(4).Add(4, 1)
}

func TestZeroSize(t *testing.T) {
	tr := New(0)
	if got := prefixSum(tr, 0); got != 0 {
		t.Errorf("empty tree prefixSum = %d", got)
	}
	if got := prefixSum(tr, tr.Len()-1); got != 0 {
		t.Errorf("empty tree Total = %d", got)
	}
}

// TestQuickAgainstNaive drives the tree against a plain slice model with
// random operations.
func TestQuickAgainstNaive(t *testing.T) {
	const n = 64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(n)
		model := make([]int64, n)
		for op := 0; op < 500; op++ {
			switch rng.Intn(3) {
			case 0:
				i := rng.Intn(n)
				d := int64(rng.Intn(11) - 5)
				tr.Add(i, d)
				model[i] += d
			case 1:
				i := rng.Intn(n + 2)
				var want int64
				for j := 0; j <= i && j < n; j++ {
					want += model[j]
				}
				if got := prefixSum(tr, i); got != want {
					return false
				}
			case 2:
				lo, hi := rng.Intn(n), rng.Intn(n)
				var want int64
				for j := lo; j <= hi; j++ {
					want += model[j]
				}
				if got := rangeSum(tr, lo, hi); got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAppendPrefixSums checks the O(n) bulk materialisation against
// one prefixSum walk per index, including appends onto a non-empty dst.
func TestQuickAppendPrefixSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		tr := New(n)
		for i := 0; i < n; i++ {
			tr.Add(rng.Intn(n), int64(rng.Intn(7))-3)
		}
		prefix := 3 + rng.Intn(4)
		dst := make([]int64, prefix)
		for i := range dst {
			dst[i] = int64(100 + i)
		}
		got := tr.AppendPrefixSums(dst)
		if len(got) != prefix+n {
			return false
		}
		for i := 0; i < prefix; i++ {
			if got[i] != int64(100+i) {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if got[prefix+i] != prefixSum(tr, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
