package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/trace"
)

// encodeTrace renders a trace in its binary stream form, as a socket
// client would send it, and re-decodes it: the codec quantizes times to
// microseconds, so differentials against the stream pipeline must use
// the decoded requests as their reference input, not the generator's
// raw floats.
func encodeTrace(t *testing.T, tr *trace.Trace) ([]byte, *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), dec
}

// runServeStream pumps the encoded trace through the full batched
// pipeline — block decode, ring, drain — and returns the decisions.
func runServeStream(t *testing.T, data []byte, cfg Config, opt StreamOptions) []Decision {
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
	st, err := trace.SniffStream(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeStream(sh, st, opt); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return log.list()
}

// TestServeBatchedIngestMatches is the batched-pipeline differential:
// the decision stream must be bit-identical whether requests arrive one
// at a time (Shard.Ingest), in random-size blocks (Shard.IngestBatch),
// or through the full ServeStream pipeline (block decode into a ring,
// drained in blocks) — including a deliberately tiny ring that forces
// constant producer backpressure, which also exercises the shard's
// flushed-watermark path into the manager.
func TestServeBatchedIngestMatches(t *testing.T) {
	data, tr := encodeTrace(t, testTrace(t, 51))
	cfg := testConfig(nil)
	want := runUninterrupted(t, tr, cfg)
	if len(want) < 10 {
		t.Fatalf("reference run closed only %d periods", len(want))
	}

	// Random-size direct batches.
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
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < len(tr.Requests); {
		j := i + 1 + rng.Intn(97)
		if j > len(tr.Requests) {
			j = len(tr.Requests)
		}
		if err := sh.IngestBatch(tr.Requests[i:j]); err != nil {
			t.Fatal(err)
		}
		i = j
	}
	if err := sh.FinishTo(tr.Duration); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := log.list(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IngestBatch decision stream diverges (got %d, want %d decisions)", len(got), len(want))
	}

	if got := runServeStream(t, data, cfg, StreamOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ServeStream decision stream diverges (got %d, want %d decisions)", len(got), len(want))
	}
	tiny := StreamOptions{Ring: 8, Block: 3}
	if got := runServeStream(t, data, cfg, tiny); !reflect.DeepEqual(got, want) {
		t.Fatalf("ServeStream(tiny ring) decision stream diverges (got %d, want %d decisions)", len(got), len(want))
	}
}

// TestWarmRestartBatchedParity reruns the warm-restart acceptance
// criterion through the batched pipeline: first life ingests blocks up
// to a mid-period cut and checkpoints on Close; second life restores
// and replays the full stream through ServeStream, whose skip logic
// must drop exactly the consumed prefix. The combined decision stream
// must match the uninterrupted run bit for bit.
func TestWarmRestartBatchedParity(t *testing.T) {
	data, tr := encodeTrace(t, testTrace(t, 52))
	base := testConfig(nil)
	want := runUninterrupted(t, tr, base)

	for _, cut := range []int{1, len(tr.Requests) / 3, len(tr.Requests) - 1} {
		snap := filepath.Join(t.TempDir(), "daemon.snap")

		log1 := &decisionLog{}
		cfg := base
		cfg.OnDecision = log1.add
		cfg.SnapshotPath = snap
		srv1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh1, err := srv1.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i += 64 {
			j := min(i+64, cut)
			if err := sh1.IngestBatch(tr.Requests[i:j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}

		log2 := &decisionLog{}
		cfg2 := base
		cfg2.OnDecision = log2.add
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
		if got := sh2.Consumed(); got != int64(cut) {
			t.Fatalf("cut %d: checkpoint consumed %d", cut, got)
		}
		st, err := trace.SniffStream(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv2.ServeStream(sh2, st, StreamOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}

		got := append(log1.list(), log2.list()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: batched restart decision stream diverges (got %d, want %d decisions)", cut, len(got), len(want))
		}
	}
}

// TestRefitDriftSnapshotKeepsMode: the drift-hold fraction rides the
// snapshot, so a warm restart keeps the checkpointed mode in either
// direction — a flagless restart of a drift-enabled daemon stays
// enabled, and a flag-enabled restart of a drift-free snapshot stays
// off.
func TestRefitDriftSnapshotKeepsMode(t *testing.T) {
	tr := testTrace(t, 53)
	run := func(drift float64, snap string) {
		cfg := testConfig(&decisionLog{})
		cfg.RefitDriftFrac = drift
		cfg.SnapshotPath = snap
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := srv.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.IngestBatch(tr.Requests[:500]); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	restart := func(drift float64, snap string) *Shard {
		cfg := testConfig(&decisionLog{})
		cfg.RefitDriftFrac = drift
		cfg.SnapshotPath = snap
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Restore(); err != nil {
			t.Fatal(err)
		}
		sh, err := srv.Shard("d0")
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}

	onSnap := filepath.Join(t.TempDir(), "on.snap")
	run(0.07, onSnap)
	if got := restart(0, onSnap).ctl.Manager().Params().RefitDriftFrac; got != 0.07 {
		t.Fatalf("flagless restart of drift-enabled snapshot: frac = %g, want 0.07", got)
	}

	offSnap := filepath.Join(t.TempDir(), "off.snap")
	run(0, offSnap)
	if got := restart(core.DefaultRefitDriftFrac, offSnap).ctl.Manager().Params().RefitDriftFrac; got != 0 {
		t.Fatalf("flag-enabled restart of drift-free snapshot: frac = %g, want 0", got)
	}
}

// TestRefitDriftPreV3Sentinel: a version-2 payload has no drift field;
// decoding it must yield the -1 sentinel, and restoring a sentinel
// state must keep the restarted process's configured fraction.
func TestRefitDriftPreV3Sentinel(t *testing.T) {
	st := shardState{Name: "d0", NextBoundary: 120, RefitDrift: 0.05}
	v2 := encodePayload([]shardState{st}, 2)
	states, err := decodePayload(v2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].RefitDrift != -1 {
		t.Fatalf("v2 decode RefitDrift = %g, want -1 sentinel", states[0].RefitDrift)
	}

	// Capture a real shard state, mark it pre-v3, restore it into a
	// drift-configured server: the configured value must survive.
	tr := testTrace(t, 54)
	cfg := testConfig(&decisionLog{})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.IngestBatch(tr.Requests[:200]); err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	old := sh.state()
	sh.mu.Unlock()
	old.RefitDrift = -1

	cfg2 := testConfig(&decisionLog{})
	cfg2.RefitDriftFrac = 0.05
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sh2, err := srv2.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh2.restore(old); err != nil {
		t.Fatal(err)
	}
	if got := sh2.ctl.Manager().Params().RefitDriftFrac; got != 0.05 {
		t.Fatalf("sentinel restore: frac = %g, want configured 0.05", got)
	}
}

// TestCheckpointDuringIngest races the checkpoint path against a
// batching ingester (run under -race in CI): checkpoints land on
// request-block boundaries, never torn, and the final snapshot restores
// at the exact stream position.
func TestCheckpointDuringIngest(t *testing.T) {
	tr := testTrace(t, 55)
	snap := filepath.Join(t.TempDir(), "daemon.snap")
	cfg := testConfig(&decisionLog{})
	cfg.SnapshotPath = snap
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < len(tr.Requests); i += 64 {
			j := min(i+64, len(tr.Requests))
			if err := sh.IngestBatch(tr.Requests[i:j]); err != nil {
				done <- err
				return
			}
		}
		done <- sh.FinishTo(tr.Duration)
	}()
	for i := 0; i < 50; i++ {
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
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
	if _, err := srv2.Restore(); err != nil {
		t.Fatal(err)
	}
	sh2, err := srv2.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if got := sh2.Consumed(); got != int64(len(tr.Requests)) {
		t.Fatalf("final checkpoint consumed %d, want %d", got, len(tr.Requests))
	}
}

// TestIngestorBackpressure drives a ring far smaller than the request
// count, so the producer repeatedly blocks on a full ring and the
// consumer repeatedly sleeps on an empty one; every request must still
// arrive, in order, exactly once.
func TestIngestorBackpressure(t *testing.T) {
	tr := testTrace(t, 56)
	cfg := testConfig(&decisionLog{})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	ing := newIngestor(sh, 4, 3, nil)
	for i := range tr.Requests {
		if err := ing.Push(tr.Requests[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sh.Consumed(); got != int64(len(tr.Requests)) {
		t.Fatalf("consumed %d of %d pushed requests", got, len(tr.Requests))
	}
	if n, c := ing.Occupancy(); n != 0 || c != 4 {
		t.Fatalf("closed ring occupancy = %d/%d, want 0/4", n, c)
	}
}

// sliceStream is a trace.Stream over in-memory requests that skips the
// decoders, as an in-process producer would.
type sliceStream struct {
	hdr  trace.Trace
	reqs []trace.Request
}

func (s *sliceStream) Header() trace.Trace { return s.hdr }

func (s *sliceStream) Next() (trace.Request, error) {
	if len(s.reqs) == 0 {
		return trace.Request{}, io.EOF
	}
	r := s.reqs[0]
	s.reqs = s.reqs[1:]
	return r, nil
}

// TestInvalidPageRangeRejected: a request naming a negative page (a
// FirstPage uvarint ≥ 2^63 on the wire) or a range whose end overflows
// int64 fails its own stream with an error naming the request, instead
// of panicking the shard's ring drain and with it every shard, and a
// second shard on the same server keeps serving and decides exactly as
// if it were alone.
func TestInvalidPageRangeRejected(t *testing.T) {
	data, tr := encodeTrace(t, testTrace(t, 53))
	want := runUninterrupted(t, tr, testConfig(nil))
	if len(want) < 10 {
		t.Fatalf("reference run closed only %d periods", len(want))
	}
	const bad = 40

	log := &decisionLog{}
	srv, err := New(testConfig(log))
	if err != nil {
		t.Fatal(err)
	}
	d0, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	d1, err := srv.Shard("d1")
	if err != nil {
		t.Fatal(err)
	}

	// On the wire: the binary decoder rejects the record.
	neg := *tr
	neg.Requests = append([]trace.Request(nil), tr.Requests...)
	neg.Requests[bad].FirstPage = -5 // encodes as the uvarint 2^64-5
	var wire bytes.Buffer
	if err := trace.WriteBinary(&wire, &neg); err != nil {
		t.Fatal(err)
	}
	st, err := trace.SniffStream(bufio.NewReader(&wire))
	if err != nil {
		t.Fatal(err)
	}
	err = srv.ServeStream(d0, st, StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("request %d: invalid page range", bad)) {
		t.Fatalf("ServeStream over a negative first page: err %v, want an invalid page range error naming request %d", err, bad)
	}

	// In process: the shard itself rejects what bypasses the decoders.
	for _, r := range []trace.Request{
		{FirstPage: -1, Pages: 1},
		{FirstPage: math.MaxInt64, Pages: 1},
		{FirstPage: math.MaxInt64 - 2, Pages: 3},
		{FirstPage: 0, Pages: -1},
	} {
		r.Time = tr.Requests[bad].Time
		if err := d0.Ingest(r); err == nil || !strings.Contains(err.Error(), "invalid page range") {
			t.Fatalf("Ingest(%+v): err %v, want an invalid page range error", r, err)
		}
	}
	overflow := append([]trace.Request(nil), tr.Requests...)
	overflow[bad].FirstPage = math.MaxInt64
	fresh, err := srv.Shard("d2")
	if err != nil {
		t.Fatal(err)
	}
	err = srv.ServeStream(fresh, &sliceStream{hdr: *tr, reqs: overflow}, StreamOptions{Ring: 8, Block: 3})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("request %d: invalid page range", bad)) {
		t.Fatalf("ServeStream over an overflowing range: err %v, want an invalid page range error naming request %d", err, bad)
	}
	if got := fresh.Consumed(); got != bad {
		t.Fatalf("shard consumed %d requests before the bad one, want %d", got, bad)
	}

	st, err = trace.SniffStream(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeStream(d1, st, StreamOptions{}); err != nil {
		t.Fatalf("second shard: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Decision
	for _, d := range log.list() {
		if d.Disk == "d1" {
			d.Disk = "d0"
			got = append(got, d)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second shard's decisions diverge from a lone run (got %d, want %d)", len(got), len(want))
	}
}
