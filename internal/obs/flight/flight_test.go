package flight

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jointpm/internal/obs"
)

func rec(period int64, decideNs int64) PeriodRecord {
	return PeriodRecord{
		Disk:     "d0",
		Period:   period,
		DecideNs: decideNs,
		Refs:     10,
		IngestNs: 1000,
		Energy:   Ledger{MemNapJ: 1, DiskActiveJ: 2},
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(rec(1, 1))
	r.AmendCheckpoint("d0", 1, 5)
	r.AmendEpoch("d0", 1, 5)
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if got := r.Last(4); got != nil {
		t.Errorf("nil Last = %v, want nil", got)
	}
	if r.Total() != 0 || r.Depth() != 0 || r.DecideNsQuantile(0.99) != 0 {
		t.Error("nil recorder reads non-zero")
	}
	if (r.Sum() != Ledger{}) {
		t.Error("nil Sum non-zero")
	}
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteDump wrote %q, err %v", buf.String(), err)
	}
}

func TestRingWraparound(t *testing.T) {
	r := New(4)
	for p := int64(1); p <= 10; p++ {
		r.Record(rec(p, p*100))
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
	got := r.Last(0)
	if len(got) != 4 {
		t.Fatalf("retained %d records, want 4", len(got))
	}
	for i, want := range []int64{7, 8, 9, 10} {
		if got[i].Period != want {
			t.Errorf("Last(0)[%d].Period = %d, want %d (oldest first)", i, got[i].Period, want)
		}
	}
	if got := r.Last(2); len(got) != 2 || got[0].Period != 9 || got[1].Period != 10 {
		t.Errorf("Last(2) periods = %v, want [9 10]", got)
	}
	if got := r.Last(100); len(got) != 4 {
		t.Errorf("Last(100) returned %d records, want 4", len(got))
	}
	// Cumulative ledger spans all 10 records, not just the retained 4.
	if s := r.Sum(); s.MemNapJ != 10 || s.DiskActiveJ != 20 {
		t.Errorf("Sum = %+v, want MemNapJ=10 DiskActiveJ=20", s)
	}
}

// TestAmendCheckpoint covers both amendments (checkpoint and fleet
// epoch wall times) before and after the ring wraps.
func TestAmendCheckpoint(t *testing.T) {
	r := New(4)
	r.Record(rec(1, 100))
	r.Record(rec(2, 100))
	r.AmendCheckpoint("d0", 2, 777)
	r.AmendCheckpoint("d0", 99, 888) // rotated out / never existed: no-op
	r.AmendEpoch("d0", 1, 55)
	recs := r.Last(0)
	if recs[0].CheckpointNs != 0 || recs[1].CheckpointNs != 777 {
		t.Errorf("CheckpointNs = [%d %d], want [0 777]", recs[0].CheckpointNs, recs[1].CheckpointNs)
	}
	if recs[0].EpochNs != 55 || recs[1].EpochNs != 0 {
		t.Errorf("EpochNs = [%d %d], want [55 0]", recs[0].EpochNs, recs[1].EpochNs)
	}
	for p := int64(3); p <= 6; p++ {
		r.Record(rec(p, 100))
	}
	r.AmendEpoch("d0", 6, 66)
	r.AmendEpoch("d0", 3, 33)
	r.AmendEpoch("d0", 2, 22) // rotated out: no-op
	r.AmendCheckpoint("d1", 5, 1)
	var got []int64
	for _, x := range r.Last(0) {
		got = append(got, x.EpochNs)
		if x.CheckpointNs != 0 {
			t.Errorf("period %d: CheckpointNs %d amended for another disk", x.Period, x.CheckpointNs)
		}
	}
	if want := []int64{33, 0, 0, 66}; !reflect.DeepEqual(got, want) {
		t.Errorf("wrapped ring EpochNs = %v, want %v", got, want)
	}
}

func TestLedgerArithmetic(t *testing.T) {
	l := Ledger{MemActiveJ: 1, MemNapJ: 2, MemTransitionJ: 3, DiskActiveJ: 4, DiskStandbyJ: 5, DiskSpinJ: 6, DelayS: 100}
	if l.MemJ() != 6 || l.DiskJ() != 15 || l.TotalJ() != 21 {
		t.Errorf("MemJ=%g DiskJ=%g TotalJ=%g, want 6 15 21 (DelayS excluded)", l.MemJ(), l.DiskJ(), l.TotalJ())
	}
	var sum Ledger
	sum.Add(l)
	sum.Add(l)
	if sum.TotalJ() != 42 || sum.DelayS != 200 {
		t.Errorf("Add: TotalJ=%g DelayS=%g, want 42 200", sum.TotalJ(), sum.DelayS)
	}
}

func TestPeriodRecordJSONInfTimeout(t *testing.T) {
	p := rec(3, 100)
	p.TimeoutS = obs.Float(math.Inf(1))
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal with +Inf timeout: %v", err)
	}
	if !strings.Contains(string(b), `"timeout_s":null`) {
		t.Errorf("+Inf timeout not marshaled as null: %s", b)
	}
	if !strings.Contains(string(b), `"mem_nap_j":1`) {
		t.Errorf("ledger missing from record JSON: %s", b)
	}
}

func TestIngestNsPerRef(t *testing.T) {
	p := rec(1, 0) // 10 refs, 1000 ns
	if got := p.IngestNsPerRef(); got != 100 {
		t.Errorf("IngestNsPerRef = %g, want 100", got)
	}
	p.Refs = 0
	if got := p.IngestNsPerRef(); got != 0 {
		t.Errorf("IngestNsPerRef with 0 refs = %g, want 0", got)
	}
}

func TestDecideNsQuantile(t *testing.T) {
	r := New(100)
	for p := int64(1); p <= 100; p++ {
		r.Record(rec(p, p)) // DecideNs 1..100
	}
	if got := r.DecideNsQuantile(0.50); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := r.DecideNsQuantile(0.99); got != 99 {
		t.Errorf("p99 = %d, want 99", got)
	}
	if got := r.DecideNsQuantile(1.0); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	if got := r.DecideNsQuantile(0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
}

func TestWriteDump(t *testing.T) {
	r := New(4)
	r.Record(rec(1, 100))
	r.Record(rec(2, 200))
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var p PeriodRecord
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if p.Period != int64(i+1) {
			t.Errorf("line %d period = %d, want %d (oldest first)", i, p.Period, i+1)
		}
	}
}

// Concurrent writers, readers, quantiles, and dumps; run under -race in
// CI's daemon-layer job.
func TestRecorderConcurrency(t *testing.T) {
	r := New(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := int64(0); p < 200; p++ {
				r.Record(rec(int64(w)*1000+p, p))
				r.AmendCheckpoint("d0", int64(w)*1000+p, 1)
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Last(8)
				r.DecideNsQuantile(0.99)
				r.Sum()
				_ = r.WriteDump(&bytes.Buffer{})
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Errorf("Total = %d, want 800", r.Total())
	}
	if got := len(r.Last(0)); got != 16 {
		t.Errorf("retained %d, want 16", got)
	}
}
