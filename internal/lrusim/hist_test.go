package lrusim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
)

// naiveAggregates replays a period log the obvious way — one pass of
// plain counters and bucket arrays mirroring the documented Observe
// semantics — to serve as the differential oracle for DepthHist.
type naiveAggregates struct {
	refs      int64
	coldCount int64
	coldBytes simtime.Bytes
	nonCold   simtime.Bytes
	maxDepth  int64

	countPrefix []int64 // maxBanks+1 cumulative non-cold counts
	totalPrefix []int64 // maxBanks cumulative non-cold bytes
	firstPrefix []int64 // maxBanks cumulative first-touch bytes
}

func naiveReplay(log []DepthRecord, bankPages int64, maxBanks int) naiveAggregates {
	n := naiveAggregates{
		countPrefix: make([]int64, maxBanks+1),
		totalPrefix: make([]int64, maxBanks),
		firstPrefix: make([]int64, maxBanks),
	}
	seen := make(map[int64]bool)
	for _, r := range log {
		n.refs++
		if r.Depth == Cold {
			n.coldCount++
			n.coldBytes += r.Bytes
			seen[r.Page] = true
			continue
		}
		d := int64(r.Depth)
		if d > n.maxDepth {
			n.maxDepth = d
		}
		bank := (d-1)/bankPages + 1
		cb := bank
		if cb > int64(maxBanks) {
			cb = int64(maxBanks)
		}
		n.totalPrefix[cb-1] += int64(r.Bytes)
		n.nonCold += r.Bytes
		if !seen[r.Page] {
			seen[r.Page] = true
			n.firstPrefix[cb-1] += int64(r.Bytes)
		}
		kb := bank
		if kb > int64(maxBanks)+1 {
			kb = int64(maxBanks) + 1
		}
		n.countPrefix[kb-1]++
	}
	accumulate := func(a []int64) {
		for i := 1; i < len(a); i++ {
			a[i] += a[i-1]
		}
	}
	accumulate(n.countPrefix)
	accumulate(n.totalPrefix)
	accumulate(n.firstPrefix)
	return n
}

// randPeriodLog generates one period's depth-annotated stream: time-ordered
// records over a small page universe with a mix of cold references, depths
// straddling the bank clamp, and repeated same-timestamp bursts (the case
// event compression must collapse exactly like buildEvents).
func randPeriodLog(rng *rand.Rand, bankPages int64, maxBanks int) []DepthRecord {
	n := 1 + rng.Intn(400)
	log := make([]DepthRecord, 0, n)
	t := simtime.Seconds(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			// Same-time bursts arise from multi-page requests.
			t += simtime.Seconds(rng.Float64())
		}
		depth := Cold
		if rng.Intn(5) > 0 {
			// Bias depths around the clamp boundary maxBanks*bankPages.
			depth = 1 + rng.Intn(int(bankPages)*(maxBanks+2))
		}
		log = append(log, DepthRecord{
			Time:  t,
			Page:  int64(rng.Intn(64)),
			Depth: depth,
			Bytes: simtime.Bytes(1 + rng.Intn(3)),
		})
	}
	return log
}

// buildEvents compresses a whole depth-annotated log into the SweepEvent
// stream a DepthHist accumulates record by record: the reference the
// histogram's streaming compression is checked against. minKeepBanks and
// dedup must match the histogram's configuration.
func buildEvents(dst []SweepEvent, log []DepthRecord, bankPages int64, maxBanks, minKeepBanks int, dedup bool) []SweepEvent {
	cold := int32(maxBanks) + 1
	for i := range log {
		r := &log[i]
		bank := cold
		if r.Depth != Cold {
			b := (int64(r.Depth)-1)/bankPages + 1
			if b > int64(maxBanks)+1 {
				b = int64(maxBanks) + 1
			}
			bank = int32(b)
		}
		if bank <= int32(minKeepBanks) {
			continue
		}
		if dedup {
			if n := len(dst); n > 0 && dst[n-1].T == r.Time {
				if bank > dst[n-1].Bank {
					dst[n-1].Bank = bank
				}
				continue
			}
		}
		dst = append(dst, SweepEvent{T: r.Time, Bank: bank})
	}
	return dst
}

// TestDepthHistMatchesNaiveReplay drives randomized period logs through a
// streaming DepthHist and checks every aggregate — histogram prefix sums,
// cold/non-cold counters, max depth, and the compressed event stream —
// against a naive full-log replay and the whole-log buildEvents. The
// same histogram is reused across trials so Reset's buffer reuse is under
// test too.
func TestDepthHistMatchesNaiveReplay(t *testing.T) {
	geometries := []struct {
		bankPages int64
		maxBanks  int
		minKeep   int
		window    simtime.Seconds
	}{
		{4, 8, 1, 0.5},
		{4, 8, 1, 0}, // zero window: compression must stay off
		{1, 16, 3, 0.25},
		{7, 5, 2, 1.0},
	}
	for _, g := range geometries {
		h := NewDepthHist(g.bankPages, g.maxBanks, g.minKeep, g.window)
		trial := func(seed int64) bool {
			h.Reset()
			rng := rand.New(rand.NewSource(seed))
			log := randPeriodLog(rng, g.bankPages, g.maxBanks)
			for _, r := range log {
				h.Observe(r)
			}
			want := naiveReplay(log, g.bankPages, g.maxBanks)

			if h.Refs() != want.refs || h.MaxDepth() != want.maxDepth {
				return false
			}
			if cc, cb := h.Cold(); cc != want.coldCount || cb != want.coldBytes {
				return false
			}
			if nc, nb := h.NonCold(); nc != want.refs-want.coldCount || nb != want.nonCold {
				return false
			}
			if !reflect.DeepEqual(h.AppendCountPrefix(nil), want.countPrefix) {
				return false
			}
			if !reflect.DeepEqual(h.AppendTotalPrefix(nil), want.totalPrefix) {
				return false
			}
			if !reflect.DeepEqual(h.AppendFirstPrefix(nil), want.firstPrefix) {
				return false
			}
			wantEv := buildEvents(nil, log, g.bankPages, g.maxBanks, g.minKeep, g.window > 0)
			gotEv := h.events
			if len(gotEv) != len(wantEv) {
				return false
			}
			for i := range wantEv {
				if gotEv[i].T != wantEv[i].T || gotEv[i].Bank != wantEv[i].Bank {
					return false
				}
			}
			return true
		}
		if err := quick.Check(trial, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("geometry %+v: %v", g, err)
		}
	}
}

// TestStackSimTruncatedSnapshotRestore pins the interaction of the three
// ways stack positions get rewritten: evictions, position compaction
// (forced by a small tracked window under thousands of references), and
// SnapshotPages/RestoreStackSim. A stack restored from the newest pages
// of a snapshot (its deepest history forgotten) is snapshotted and
// restored again; the two must report identical depths for any
// subsequent reference stream.
func TestStackSimTruncatedSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const tracked = 24
	full := NewStackSim(tracked)
	// Enough references to trigger compact() several times (positions
	// advance per reference; capacity is max(2*tracked, 1024)).
	for i := 0; i < 5000; i++ {
		full.Reference(int64(rng.Intn(64)))
	}
	r0, c0 := full.Counters()
	newest := full.SnapshotPages()[full.Len()-10:]
	a := RestoreStackSim(tracked, newest, r0, c0)
	if a.Len() != 10 {
		t.Fatalf("restored %d tracked pages, want 10", a.Len())
	}

	refs, colds := a.Counters()
	pages := a.SnapshotPages()
	b := RestoreStackSim(tracked, pages, refs, colds)

	if !reflect.DeepEqual(b.SnapshotPages(), pages) {
		t.Fatalf("restored stack order diverges:\n got %v\nwant %v", b.SnapshotPages(), pages)
	}
	if br, bc := b.Counters(); br != refs || bc != colds {
		t.Fatalf("restored counters (%d,%d) != (%d,%d)", br, bc, refs, colds)
	}

	// The two stacks must now be behaviourally identical — including
	// through further evictions and compactions on both sides.
	for i := 0; i < 5000; i++ {
		p := int64(rng.Intn(96))
		da, db := a.Reference(p), b.Reference(p)
		if da != db {
			t.Fatalf("ref %d page %d: depth %d (original) != %d (restored)", i, p, da, db)
		}
	}
	ar, ac := a.Counters()
	br, bc := b.Counters()
	if ar != br || ac != bc {
		t.Fatalf("post-stream counters diverge: (%d,%d) vs (%d,%d)", ar, ac, br, bc)
	}
}
