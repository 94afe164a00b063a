package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

func testTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     64 * simtime.KB,
		Rate:         0.3 * float64(simtime.MB),
		Popularity:   0.1,
		Duration:     1800,
		Classes:      workload.SPECWeb99Classes(64),
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

type decisionLog struct {
	mu   sync.Mutex
	decs []Decision
}

func (l *decisionLog) add(d Decision) {
	l.mu.Lock()
	l.decs = append(l.decs, d)
	l.mu.Unlock()
}

func (l *decisionLog) list() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Decision(nil), l.decs...)
}

func testConfig(log *decisionLog) Config {
	return Config{
		PageSize:     64 * simtime.KB,
		BankSize:     simtime.MB,
		InstalledMem: 128 * simtime.MB,
		Period:       120,
		OnDecision:   log.add,
	}
}

// runUninterrupted feeds the whole trace through a fresh server and
// returns its decision stream.
func runUninterrupted(t testing.TB, tr *trace.Trace, cfg Config) []Decision {
	t.Helper()
	log := &decisionLog{}
	cfg.OnDecision = log.add
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Requests {
		if err := sh.Ingest(tr.Requests[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.FinishTo(tr.Duration); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return log.list()
}

// TestWarmRestartDecisionParity is the tentpole acceptance criterion:
// stop the daemon gracefully at an arbitrary request (mid-period
// included), restart from its shutdown checkpoint, replay the rest of
// the stream, and the combined decision sequence must be DeepEqual to
// the uninterrupted run's.
func TestWarmRestartDecisionParity(t *testing.T) {
	tr := testTrace(t, 11)
	want := runUninterrupted(t, tr, testConfig(nil))
	if len(want) < 10 {
		t.Fatalf("reference run closed only %d periods", len(want))
	}

	cuts := []int{0, 1, len(tr.Requests) / 3, len(tr.Requests) / 2, len(tr.Requests) - 1}
	for _, cut := range cuts {
		snap := filepath.Join(t.TempDir(), "daemon.snap")

		// First daemon life: ingest up to the cut, then shut down
		// gracefully (Close writes the checkpoint).
		log1 := &decisionLog{}
		cfg := testConfig(log1)
		cfg.SnapshotPath = snap
		srv1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh1, err := srv1.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			if err := sh1.Ingest(tr.Requests[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}

		// Second life: restore, skip what the checkpoint already
		// consumed, stream the rest.
		log2 := &decisionLog{}
		cfg2 := testConfig(log2)
		cfg2.SnapshotPath = snap
		srv2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		names, err := srv2.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if cut > 0 && (len(names) != 1 || names[0] != "d0") {
			t.Fatalf("cut %d: restored shards %v, want [d0]", cut, names)
		}
		sh2, err := srv2.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		skip := sh2.Consumed()
		if skip != int64(cut) {
			t.Fatalf("cut %d: checkpoint consumed %d", cut, skip)
		}
		for i := skip; i < int64(len(tr.Requests)); i++ {
			if err := sh2.Ingest(tr.Requests[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh2.FinishTo(tr.Duration); err != nil {
			t.Fatal(err)
		}
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}

		got := append(log1.list(), log2.list()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: restarted decision stream diverges from uninterrupted run (got %d, want %d decisions)", cut, len(got), len(want))
		}
	}
}

// TestMultiDiskCheckpoint: one snapshot file covers every shard, and a
// restore brings them all back at their own stream positions.
func TestMultiDiskCheckpoint(t *testing.T) {
	trA, trB := testTrace(t, 21), testTrace(t, 22)
	snap := filepath.Join(t.TempDir(), "daemon.snap")

	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = snap
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shA, _ := srv.Shard("a")
	shB, _ := srv.Shard("b")
	for i := 0; i < 200; i++ {
		if err := shA.Ingest(trA.Requests[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 137; i++ {
		if err := shB.Ingest(trB.Requests[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := testConfig(&decisionLog{})
	cfg2.SnapshotPath = snap
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	names, err := srv2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("restored %v, want two shards", names)
	}
	shA2, _ := srv2.Shard("a")
	shB2, _ := srv2.Shard("b")
	if shA2.Consumed() != 200 || shB2.Consumed() != 137 {
		t.Fatalf("restored positions a=%d b=%d, want 200/137", shA2.Consumed(), shB2.Consumed())
	}
}

// TestSnapshotRoundTrip: the codec reproduces the exact payload,
// including the bit patterns of times, +Inf timeouts, and Cold depths.
func TestSnapshotRoundTrip(t *testing.T) {
	in := []shardState{{
		Name:         "sda",
		Consumed:     12345,
		NextBoundary: 960.0000000001,
		Misses:       3,
		ReqRuns:      2,
		ControllerState: core.ControllerState{
			Periods: 7,
			Banks:   12,
			Pages:   3072,
			Manager: core.State{
				Banks: 12, Pages: 3072,
				Timeout:  simtime.Seconds(math.Inf(1)),
				Fallback: true,
				Counters: map[string]int64{"core.decide.calls": 7},
			},
			StackPages: []int64{5, 9, 1, 0, 42},
			StackRefs:  999,
			StackColds: 40,
			Refs:       17,
			Log: []lrusim.DepthRecord{
				{Time: 841.0000000000001, Page: 42, Depth: -1, Bytes: 65536},
				{Time: 842.5, Page: 43, Depth: 17, Bytes: 65536},
			},
		},
		RefitDrift: 0.0625,
	}, {
		Name: "sdb",
	}}
	path := filepath.Join(t.TempDir(), "s.snap")
	if _, err := writeSnapshotFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize empty-vs-nil slices the decoder materializes.
	for i := range out {
		if len(out[i].StackPages) == 0 {
			out[i].StackPages = nil
		}
		if len(out[i].Log) == 0 {
			out[i].Log = nil
		}
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

// TestSnapshotRejectsCorruption: every structural violation is detected
// and reported, never silently restored.
func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	if _, err := writeSnapshotFile(path, []shardState{{Name: "d0", NextBoundary: 120}}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := map[string][]byte{
		"bad magic":     append([]byte("XXXX"), good[4:]...),
		"bad version":   append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"short header":  good[:8],
		"truncated":     good[:len(good)-3],
		"flipped body":  flipByte(good, 20),
		"flipped crc":   flipByte(good, len(good)-1),
		"length lies":   flipByte(good, 5),
		"trailing junk": append(append([]byte{}, good...), 0xAB),
	}
	// Checksum-valid payloads the encoder never writes: padded varints,
	// an out-of-order counter map, a fallback flag other than 0/1.
	payload := encodePayload([]shardState{{Name: "d0", NextBoundary: 120}}, snapshotVersion)
	corrupt["padded varint"] = snapshotBytes(append([]byte{0x81, 0x00}, payload[1:]...), snapshotVersion)
	unsorted := encodePayload([]shardState{{Name: "d0", NextBoundary: 120,
		ControllerState: core.ControllerState{Manager: core.State{Counters: map[string]int64{"a": 1, "b": 2}}}}}, snapshotVersion)
	unsorted = bytes.Replace(unsorted, []byte("\x01a\x01\x01b\x02"), []byte("\x01b\x02\x01a\x01"), 1)
	corrupt["unsorted counters"] = snapshotBytes(unsorted, snapshotVersion)
	fb := append([]byte(nil), payload...)
	// Skip count, name, period index, consumed, boundary, current
	// banks/pages, core banks/pages and timeout to the fallback flag.
	fb[1+(1+2)+1+1+8+1+1+1+1+8] = 2
	corrupt["fallback flag 2"] = snapshotBytes(fb, snapshotVersion)
	for name, b := range corrupt {
		p := filepath.Join(dir, "c.snap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshotFile(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Checksum-valid snapshots whose partial-period log cannot be
	// replayed into the manager are rejected by the decoder with a
	// described error — restore never reaches the depth histogram with
	// them (a depth of 0 used to panic it).
	badLogs := map[string]lrusim.DepthRecord{
		"zero depth":        {Time: 1, Page: 3, Depth: 0, Bytes: 1},
		"depth below cold":  {Time: 1, Page: 3, Depth: -2, Bytes: 1},
		"negative page":     {Time: 1, Page: -1, Depth: 2, Bytes: 1},
		"negative bytes":    {Time: 1, Page: 3, Depth: 2, Bytes: -1},
		"non-finite time":   {Time: simtime.Seconds(math.Inf(1)), Page: 3, Depth: 2, Bytes: 1},
		"time out of order": {Time: -1, Page: 3, Depth: 2, Bytes: 1},
	}
	for name, rec := range badLogs {
		p := filepath.Join(dir, "log.snap")
		st := shardState{Name: "d0", NextBoundary: 120, ControllerState: core.ControllerState{
			Banks: 128, Pages: 2048,
			Manager: core.State{Banks: 128, Pages: 2048, Timeout: 5},
			Log:     []lrusim.DepthRecord{{Time: 0, Page: 1, Depth: lrusim.Cold, Bytes: 1}, rec}}}
		if _, err := writeSnapshotFile(p, []shardState{st}); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshotFile(p); err == nil || !strings.Contains(err.Error(), "log record 1") {
			t.Errorf("%s: decode error %v, want one naming log record 1", name, err)
		}
		cfg := testConfig(nil)
		cfg.SnapshotPath = p
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Restore(); err == nil {
			t.Errorf("%s: restored", name)
		}
	}

	// Missing file is a cold start, not an error.
	if _, err := readSnapshotFile(filepath.Join(dir, "absent.snap")); !errors.Is(err, errNoSnapshot) {
		t.Errorf("missing file: err = %v, want errNoSnapshot", err)
	}
	srvLog := &decisionLog{}
	cfg := testConfig(srvLog)
	cfg.SnapshotPath = filepath.Join(dir, "absent.snap")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names, err := srv.Restore()
	if err != nil || len(names) != 0 {
		t.Fatalf("cold start Restore = (%v, %v), want no shards, nil", names, err)
	}
}

// snapshotBytes frames a payload as a snapshot file: header, payload,
// and a valid checksum.
func snapshotBytes(payload []byte, version byte) []byte {
	var f bytes.Buffer
	f.WriteString(snapshotMagic)
	f.WriteByte(version)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	f.Write(lenBuf[:])
	f.Write(payload)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	f.Write(crcBuf[:])
	return f.Bytes()
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}
