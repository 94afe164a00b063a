package serve

import (
	"bytes"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
)

// fuzzSeedStates returns snapshot payload states the serve tests already
// produce: a shard cut mid-period by a real run (stack, counters, and a
// partial-period log), and the hand-built state of TestSnapshotV1Read.
func fuzzSeedStates(f *testing.F) [][]shardState {
	f.Helper()
	srv, err := New(testConfig(&decisionLog{}))
	if err != nil {
		f.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		f.Fatal(err)
	}
	tr := testTrace(f, 11)
	for _, r := range tr.Requests[:len(tr.Requests)/2] {
		if err := sh.Ingest(r); err != nil {
			f.Fatal(err)
		}
	}
	sh.mu.Lock()
	st := sh.state()
	sh.mu.Unlock()
	st.Log = st.Log[:min(len(st.Log), 64)]
	st.IngestedRefs = int64(len(st.Log))
	st.StackPages = st.StackPages[:min(len(st.StackPages), 64)]
	return [][]shardState{{st}, {{
		Name:         "d0",
		Consumed:     120,
		NextBoundary: 480,
		ControllerState: core.ControllerState{
			Periods:    3,
			Banks:      64,
			Pages:      1024,
			Manager:    core.State{Banks: 64, Pages: 1024, Timeout: 5, Counters: map[string]int64{"core.decide.calls": 3}},
			StackPages: []int64{9, 4, 7},
			StackRefs:  120,
			StackColds: 10,
			Log:        []lrusim.DepthRecord{{Time: 361.5, Page: 7, Depth: lrusim.Cold, Bytes: 65536}, {Time: 362, Page: 9, Depth: 2, Bytes: 65536}},
		},
		RefitDrift: -1,
	}}}
}

// FuzzSnapshotDecode feeds arbitrary payloads to the snapshot decoder at
// every supported format version. Decode must never panic; a payload it
// accepts must re-encode to the same bytes; and every accepted shard
// state must either be refused by restore or restore into a fresh server
// and close one period boundary — never panic.
func FuzzSnapshotDecode(f *testing.F) {
	for _, states := range fuzzSeedStates(f) {
		for v := byte(snapshotVersionMin); v <= snapshotVersion; v++ {
			f.Add(v, encodePayload(states, v))
		}
	}
	f.Add(byte(snapshotVersion), []byte{})
	f.Add(byte(snapshotVersion), []byte{0})

	f.Fuzz(func(t *testing.T, version byte, payload []byte) {
		if version < snapshotVersionMin || version > snapshotVersion {
			return
		}
		states, err := decodePayload(payload, version)
		if err != nil {
			return
		}
		if again := encodePayload(states, version); !bytes.Equal(again, payload) {
			t.Fatalf("v%d payload re-encodes differently:\n in: %x\nout: %x", version, payload, again)
		}
		for _, st := range states {
			srv, err := New(testConfig(&decisionLog{}))
			if err != nil {
				t.Fatal(err)
			}
			sh, err := srv.Shard(st.Name)
			if err != nil {
				continue
			}
			if err := sh.restore(st); err != nil {
				continue
			}
			if err := sh.FinishTo(sh.nextBoundary); err != nil {
				t.Fatalf("closing the restored period: %v", err)
			}
			if got := sh.Periods(); got != st.Periods+1 {
				t.Fatalf("closed to period %d, want %d", got, st.Periods+1)
			}
		}
	})
}
