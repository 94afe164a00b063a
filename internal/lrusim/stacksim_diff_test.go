package lrusim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// diffSizes are the tracked windows the kernel is checked at: a single
// page, tiny windows, the word boundaries of the live bit-vector, and one
// that spans several words and a 4096-slot page table.
var diffSizes = []int{1, 2, 3, 63, 64, 65, 1000}

// homeGroup mirrors the page table's hash (intmap: Fibonacci hash of
// page>>2 over the table's groups), so a key set can aim every page at
// the table's last group and force probe chains across its wrap. Should
// the table's hash change, the keys stay valid, just less adversarial.
func homeGroup(page int64, groups uint64) uint64 {
	shift := uint(64)
	for g := groups; g > 1; g >>= 1 {
		shift--
	}
	return uint64(page>>2) * 0x9E3779B97F4A7C15 >> shift
}

// keySets returns page sets that attack the grouped page table: every
// page in one group, stride 4 (one page per group, all at offset 0),
// strides of 2^k, and pages whose home is the table's last group. Each
// holds about twice the window, so the stack keeps evicting.
func keySets(maxTracked int) map[string][]int64 {
	n := 2*maxTracked + 3
	sets := map[string][]int64{"one group": {400, 401, 402, 403}}
	for _, k := range []uint{2, 10, 20, 40} {
		var s []int64
		for i := 0; i < n; i++ {
			s = append(s, int64(i)<<k)
		}
		sets[fmt.Sprintf("stride 2^%d", k)] = s
	}
	size := uint64(16)
	for size < 2*uint64(maxTracked) {
		size <<= 1
	}
	groups := size / 4
	var wrap []int64
	for q := int64(0); len(wrap) < n; q++ {
		if homeGroup(4*q, groups) == groups-1 {
			wrap = append(wrap, 4*q, 4*q+3)
		}
	}
	sets["last-group wrap"] = wrap
	return sets
}

// refStream draws references from keys: a mix of uniform picks, a hot
// subset, and runs of consecutive keys, as multi-page requests make.
func refStream(rng *rand.Rand, keys []int64, count int) []int64 {
	out := make([]int64, 0, count+8)
	for len(out) < count {
		switch rng.Intn(3) {
		case 0:
			out = append(out, keys[rng.Intn(len(keys))])
		case 1:
			out = append(out, keys[rng.Intn(len(keys)/4+1)])
		default:
			i := rng.Intn(len(keys))
			for k := rng.Intn(8); k >= 0 && i < len(keys); k-- {
				out = append(out, keys[i])
				i++
			}
		}
	}
	return out[:count]
}

// requireSameStack fails unless s and the oracle hold the same pages in
// the same recency order.
func requireSameStack(t *testing.T, s *StackSim, n *NaiveStack) {
	t.Helper()
	want := slices.Clone(n.pages)
	slices.Reverse(want)
	if got := s.SnapshotPages(); !slices.Equal(got, want) {
		t.Fatalf("stack order diverges from the oracle:\n got %v\nwant %v", got, want)
	}
}

// TestStackSimMatchesNaiveAdversarial checks depths, Len and the stack
// order against the list-walk oracle at every window in diffSizes, over
// tens of compactions, on each adversarial key set.
func TestStackSimMatchesNaiveAdversarial(t *testing.T) {
	for _, size := range diffSizes {
		for name, keys := range keySets(size) {
			rng := rand.New(rand.NewSource(int64(size)))
			refs := refStream(rng, keys, max(40*size, 30000))
			s, n := NewStackSim(size), NewNaiveStack(size)
			compactions := 0
			for i, p := range refs {
				before := s.nextPos
				if got, want := s.Reference(p), n.Reference(p); got != want {
					t.Fatalf("size %d, %s: ref %d page %d: depth %d, oracle %d", size, name, i, p, got, want)
				}
				if s.nextPos < before {
					compactions++
				}
				if s.Len() != n.Len() {
					t.Fatalf("size %d, %s: ref %d: Len %d, oracle %d", size, name, i, s.Len(), n.Len())
				}
				if i%997 == 0 {
					requireSameStack(t, s, n)
				}
			}
			requireSameStack(t, s, n)
			if compactions < 10 {
				t.Fatalf("size %d, %s: only %d compactions", size, name, compactions)
			}
		}
	}
}

// TestSnapshotRoundTripAroundCompaction cuts snapshots at random points
// and at the references just before and just after every compaction,
// restores each into a fresh stack, and requires the restored stack to
// match the oracle over a tail of references.
func TestSnapshotRoundTripAroundCompaction(t *testing.T) {
	for _, size := range diffSizes {
		keys := keySets(size)["stride 2^2"]
		rng := rand.New(rand.NewSource(int64(size) + 100))
		refs := refStream(rng, keys, max(20*size, 12000))
		s, n := NewStackSim(size), NewNaiveStack(size)
		cuts := 0
		for i, p := range refs {
			before := s.nextPos
			s.Reference(p)
			n.Reference(p)
			compacted := s.nextPos < before
			aboutToCompact := s.nextPos == len(s.pageAt)
			if !compacted && !aboutToCompact && rng.Intn(500) != 0 {
				continue
			}
			cuts++
			refsN, colds := s.Counters()
			r := RestoreStackSim(size, s.SnapshotPages(), refsN, colds)
			if rr, rc := r.Counters(); rr != refsN || rc != colds {
				t.Fatalf("size %d ref %d: restored counters (%d,%d), want (%d,%d)", size, i, rr, rc, refsN, colds)
			}
			requireSameStack(t, r, n)
			oracle := &NaiveStack{maxTracked: size, pages: slices.Clone(n.pages)}
			for j, q := range refStream(rng, keys, 3*size+1100) {
				if got, want := r.Reference(q), oracle.Reference(q); got != want {
					t.Fatalf("size %d, cut at ref %d, tail ref %d page %d: restored depth %d, oracle %d", size, i, j, q, got, want)
				}
			}
		}
		if cuts < 20 {
			t.Fatalf("size %d: only %d cuts", size, cuts)
		}
	}
}

// FuzzStackSimMatchesNaive drives the kernel and the oracle with the same
// references: each input byte is a page, scaled by 2^shift (so a shift
// of 2 puts every page in its own table group, and larger shifts spread
// pages sparsely), and the input is cycled to 4,096 references so small
// windows compact repeatedly. Midway the kernel is replaced by one
// restored from its snapshot.
func FuzzStackSimMatchesNaive(f *testing.F) {
	f.Add(uint8(3), uint8(0), []byte{1, 2, 3, 5, 2, 1, 4, 6, 5, 2})
	f.Add(uint8(64), uint8(2), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(1), uint8(40), []byte{0, 0, 1, 0, 1, 2})
	f.Add(uint8(200), uint8(20), []byte{255, 254, 253, 0, 1, 2, 128, 127})
	f.Fuzz(func(t *testing.T, tracked, shift uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		size := 1 + int(tracked)
		sh := uint(shift % 48)
		s, n := NewStackSim(size), NewNaiveStack(size)
		cut := int(tracked)*17 + len(data)
		for i := 0; i < 4096; i++ {
			p := int64(data[i%len(data)]) << sh
			if got, want := s.Reference(p), n.Reference(p); got != want {
				t.Fatalf("ref %d page %d: depth %d, oracle %d", i, p, got, want)
			}
			if s.Len() != n.Len() {
				t.Fatalf("ref %d: Len %d, oracle %d", i, s.Len(), n.Len())
			}
			if i == cut%4096 {
				refs, colds := s.Counters()
				s = RestoreStackSim(size, s.SnapshotPages(), refs, colds)
			}
		}
		requireSameStack(t, s, n)
	})
}
