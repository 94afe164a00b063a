package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

// TestIncrementalDecisionStreamMatchesBatch is the daemon-level half of
// the decision-path proof: a shard streams references into its manager
// block by block and decides at each boundary, and its decision journal
// must match, byte for byte, a manager handed each period's whole depth
// log through Decide — logs rebuilt from the trace by an independent LRU
// stack, calibration inputs read back from the shard's journal. Core's
// differential tests hold Decide to the replay oracle. Runs with and
// without warmup periods (which the shard discards unexamined).
func TestIncrementalDecisionStreamMatchesBatch(t *testing.T) {
	tr := testTrace(t, 31)
	for _, warmup := range []int{0, 3} {
		var shardJ, replayJ bytes.Buffer
		sink := obs.NewDecisionSink(&shardJ, 64)
		cfg := testConfig(nil)
		cfg.WarmupPeriods = warmup
		cfg.Joint = &core.Params{DecisionTrace: sink}
		if got := runUninterrupted(t, tr, cfg); len(got) < 10 {
			t.Fatalf("warmup=%d: run closed only %d periods", warmup, len(got))
		}
		if err := sink.Close(); err != nil || sink.Dropped() != 0 {
			t.Fatalf("journal: %v, %d dropped", err, sink.Dropped())
		}

		srv, err := New(testConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		p := srv.params
		replaySink := obs.NewDecisionSink(&replayJ, 64)
		p.DecisionTrace = replaySink
		mgr, err := core.NewManager(p)
		if err != nil {
			t.Fatal(err)
		}
		stack := lrusim.NewStackSim(int(srv.cfg.InstalledMem / srv.cfg.PageSize))
		next := 0
		lines := bytes.Split(bytes.TrimSpace(shardJ.Bytes()), []byte("\n"))
		if want := 15 - warmup; len(lines) != want {
			t.Fatalf("warmup=%d: %d journaled decisions, want %d", warmup, len(lines), want)
		}
		for _, line := range lines {
			var rec obs.DecisionRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			o := rec.Observation
			start, end := simtime.Seconds(o.PeriodStart), simtime.Seconds(o.PeriodEnd)
			var log []lrusim.DepthRecord
			for ; next < len(tr.Requests) && tr.Requests[next].Time < end; next++ {
				r := tr.Requests[next]
				for k := int32(0); k < r.Pages; k++ {
					d := stack.Reference(r.FirstPage + int64(k))
					if r.Time >= start {
						log = append(log, lrusim.DepthRecord{Time: r.Time, Page: r.FirstPage + int64(k), Depth: d, Bytes: tr.PageSize})
					}
				}
			}
			mgr.Decide(core.Observation{
				Log:            log,
				CacheAccesses:  o.CacheAccesses,
				CoalesceFactor: float64(o.CoalesceFactor),
				PeriodStart:    start,
				PeriodEnd:      end,
				CurrentBanks:   o.CurrentBanks,
			})
		}
		if err := replaySink.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shardJ.Bytes(), replayJ.Bytes()) {
			t.Errorf("warmup=%d: shard journal diverges from whole-log Decide\nshard:\n%s\nreplay:\n%s",
				warmup, shardJ.Bytes(), replayJ.Bytes())
		}
	}
}

// TestIncrementalWarmRestartParity replays the warm-restart acceptance
// criterion: stopping at an arbitrary request (mid-period included) and
// restarting from the checkpoint must reproduce the uninterrupted run's
// decision stream exactly. Mid-period cuts force restore to rebuild the
// streaming histogram by replaying the snapshot's partial-period log,
// validated against the snapshot's recorded ingested-reference count.
func TestIncrementalWarmRestartParity(t *testing.T) {
	tr := testTrace(t, 11)
	base := testConfig(nil)
	want := runUninterrupted(t, tr, base)
	if len(want) < 10 {
		t.Fatalf("reference run closed only %d periods", len(want))
	}

	cuts := []int{1, len(tr.Requests) / 3, len(tr.Requests) / 2}
	for _, cut := range cuts {
		snap := filepath.Join(t.TempDir(), "daemon.snap")

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

		log2 := &decisionLog{}
		cfg2 := testConfig(log2)
		cfg2.SnapshotPath = snap
		srv2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv2.Restore(); err != nil {
			t.Fatal(err)
		}
		sh2, err := srv2.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := sh2.Consumed(); i < int64(len(tr.Requests)); i++ {
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
			t.Fatalf("cut %d: restarted incremental decision stream diverges (got %d, want %d decisions)",
				cut, len(got), len(want))
		}
	}
}

// TestBatchSnapshotRestoresIntoIncremental covers snapshots cut by
// daemons that still ran the retired batch decide mode: such files carry
// observation mode 0 and no ingested-reference count, and must restore —
// the partial-period log is replayed into the manager unvalidated — so
// that the combined decision stream still matches an uninterrupted run.
// Exercised as a v2 file (the first with the mode section) and as v5.
func TestBatchSnapshotRestoresIntoIncremental(t *testing.T) {
	tr := testTrace(t, 11)
	want := runUninterrupted(t, tr, testConfig(nil))
	cut := len(tr.Requests) / 2

	for _, version := range []byte{2, snapshotVersion} {
		snap := filepath.Join(t.TempDir(), "daemon.snap")
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
		// Rewrite the checkpoint the way a batch-mode daemon cut it.
		states, err := readSnapshotFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(states[0].Log) == 0 {
			t.Fatal("cut landed on a period boundary; no partial period to replay")
		}
		for i := range states {
			states[i].Mode = snapModeBatch
			states[i].IngestedRefs = 0
		}
		if _, err := writeSnapshotFileV(snap, states, version); err != nil {
			t.Fatal(err)
		}

		log2 := &decisionLog{}
		cfg2 := testConfig(log2)
		cfg2.SnapshotPath = snap
		srv2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv2.Restore(); err != nil {
			t.Fatalf("v%d batch-mode snapshot: %v", version, err)
		}
		sh2, err := srv2.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := sh2.Consumed(); i < int64(len(tr.Requests)); i++ {
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
			t.Fatalf("v%d batch-mode restore diverges (got %d, want %d decisions)", version, len(got), len(want))
		}
	}
}

// TestSnapshotV1Read pins backward compatibility: a version-1 snapshot —
// the v2 payload minus the per-shard incremental section — still decodes,
// with the new fields at their zero values.
func TestSnapshotV1Read(t *testing.T) {
	states := []shardState{{
		Name:         "d0",
		Consumed:     120,
		NextBoundary: 480,
		ControllerState: core.ControllerState{
			Periods:    3,
			Banks:      64,
			Pages:      1024,
			Manager:    core.State{Banks: 64, Pages: 1024, Timeout: 5},
			StackPages: []int64{9, 4, 7},
			StackRefs:  120,
			StackColds: 10,
			Log:        []lrusim.DepthRecord{{Time: 361.5, Page: 7, Depth: -1, Bytes: 65536}},
		},
	}}
	v1 := encodePayload(states, 1)

	path := filepath.Join(t.TempDir(), "v1.snap")
	var f bytes.Buffer
	f.WriteString(snapshotMagic)
	f.WriteByte(1)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(v1)))
	f.Write(lenBuf[:])
	f.Write(v1)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(v1))
	f.Write(crcBuf[:])
	if err := os.WriteFile(path, f.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-v3 files decode the drift field as the keep-config sentinel.
	states[0].RefitDrift = -1
	if !reflect.DeepEqual(got, states) {
		t.Fatalf("v1 snapshot decodes differently:\n got %+v\nwant %+v", got, states)
	}
}
