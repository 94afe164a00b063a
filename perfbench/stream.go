package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/obs/flight"
	"jointpm/internal/serve"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// stream-1disk: one disk's trace bytes in over one loopback TCP
// connection, decision lines out, through Server.ServeListener at
// jointpmd's defaults (incremental decide, uncapped, single speed, the
// paper's 600 s period, 16 MB banks, 64 KB pages, flight recorder on).
// The trace runs at 12.5 MB/s for 32 periods, so every period holds
// about 160,000 page references: ingest dominates, and boundaries take
// about 1% of a pass. Longer periods would leave too few boundary
// samples per run for a steady p90; these give a few hundred.
//
// Each measured pass streams the whole trace into a fresh server (a
// second connection to a used shard would skip the consumed prefix) and
// is timed from the dial to the last decision published; the trace is
// a whole number of periods long, so the last decision closes the
// stream.

type streamSize struct {
	mem, dataSet simtime.Bytes
	rate         float64 // bytes per stream second
	periods      int
	setups       int
}

func streamSizes(tiny bool) streamSize {
	if tiny {
		return streamSize{mem: 1 * simtime.GB, dataSet: 2 * simtime.GB, rate: 4 * float64(simtime.MB), periods: 3, setups: 2}
	}
	return streamSize{mem: 16 * simtime.GB, dataSet: 32 * simtime.GB, rate: 12.5 * float64(simtime.MB), periods: 32, setups: 3}
}

const streamDisk = "d0"

func streamConfig(sz streamSize) serve.Config {
	return serve.Config{
		Decide:         core.ModeIncremental,
		PageSize:       64 * simtime.KB,
		BankSize:       16 * simtime.MB,
		InstalledMem:   sz.mem,
		Period:         600,
		SnapshotEvery:  5,
		FlightRecorder: flight.DefaultDepth,
	}
}

func runStream(e *env) error {
	sz := streamSizes(e.opt.tiny)
	cfg := streamConfig(sz)

	var (
		tr   *trace.Trace
		data []byte
	)
	setup, err := timeSetup(sz.setups, func() error {
		// A quarter of the data set at half the rate, with file sizes at
		// half the paper scale: scaling the data set by 4 doubles both the
		// file count and every file's size.
		base, err := workload.Generate(workload.Config{
			DataSetBytes: sz.dataSet / 4,
			PageSize:     cfg.PageSize,
			Rate:         sz.rate / 2,
			Popularity:   0.1,
			Duration:     simtime.Seconds(sz.periods) * cfg.Period,
			Classes:      workload.SPECWeb99Classes(8),
			Seed:         populationSeed,
		})
		if err != nil {
			return err
		}
		if tr, err = workload.NewSynthesizer(e.opt.seed).ScaleDataSet(base, 4); err != nil {
			return err
		}
		if data, err = encode(tr); err != nil {
			return err
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return err
		}
		_, err = srv.Shard(streamDisk)
		return err
	})
	if err != nil {
		return err
	}
	e.e2e["setup_s"] = setup
	refs := totalRefs(tr)
	e.note("stream-1disk: %d requests, %d page refs, %d bytes encoded, %d periods of %gs",
		len(tr.Requests), refs, len(data), sz.periods, float64(cfg.Period))

	// Traced runs spend the first half of the budget untraced, so the
	// tracing overhead is measured on the same inputs.
	share := 1.0
	if e.opt.traced {
		share = 0.5
	}
	// A warm-up pass, untimed, gives the decisions every later pass must
	// repeat and, on untraced runs, samples the live heap at every
	// decision.
	heap := newHeapPeak()
	sample := heap
	if e.opt.traced {
		sample = nil
	}
	warm, err := streamPass(e, data, cfg, sz.periods, sample, false)
	if e.op(err) != nil {
		return err
	}
	first := warm.decisions
	var fallbacks int64
	for _, d := range first {
		if d.Fallback {
			fallbacks++
		}
	}
	e.layer["core.fallbacks"] = float64(fallbacks)
	e.e2e["peak_heap_mb"] = heap.mb()

	var rates, bounds []float64
	runtime.GC()
	deadline := e.deadline(share)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		pr, err := streamPass(e, data, cfg, sz.periods, nil, false)
		if e.op(err) != nil {
			continue
		}
		rates = append(rates, float64(refs)/pr.wall.Seconds())
		bounds = append(bounds, pr.boundsMs...)
		if err := sameDecisions(pr.decisions, first); err != nil {
			e.check(fmt.Sprintf("pass-%d-equals-warm-up", pass), err)
		}
	}
	if len(rates) == 0 {
		return errNoProgress
	}
	e.note("stream-1disk: %d passes", len(rates))
	e.e2e["refs_per_s"] = median(rates)
	e.boundaries(bounds)

	// Output checks, untimed: the streamed decisions equal a per-request
	// reference run in batch decide mode, and a restart from a mid-period
	// checkpoint continues with exactly the uninterrupted decisions.
	e.check("decisions-equal-batch-reference", func() error {
		want, err := streamReference(tr, cfg)
		if err != nil {
			return err
		}
		return sameDecisions(first, want)
	}())
	e.check("restart-equals-uninterrupted", streamRestart(e, tr, cfg, first))

	if !e.opt.traced {
		return nil
	}
	var (
		tracedRates, occupancy []float64
		ingestNs, ingestRefs   int64
	)
	deadline = e.deadline(share)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		pr, err := streamPass(e, data, cfg, sz.periods, nil, true)
		if e.op(err) != nil {
			continue
		}
		tracedRates = append(tracedRates, float64(refs)/pr.wall.Seconds())
		occupancy = append(occupancy, pr.ringOccupancy)
		ingestNs += pr.ingestNs
		ingestRefs += pr.ingestRefs
		if err := sameDecisions(pr.decisions, first); err != nil {
			e.check(fmt.Sprintf("traced-pass-%d-equals-warm-up", pass), err)
		}
	}
	if len(tracedRates) == 0 {
		return errNoProgress
	}
	e.layer["bench.trace_overhead_pct"] = (median(rates)/median(tracedRates) - 1) * 100
	e.layer["serve.ring_occupancy_mean"] = median(occupancy)
	if ingestRefs > 0 {
		e.layer["serve.shard_ingest_ns_per_ref"] = float64(ingestNs) / float64(ingestRefs)
	}
	decodeNs := e.tr.selfNs("trace.StreamReader.ReadBatch")
	e.layer["trace.decode_ns_per_ref"] = float64(decodeNs) / float64(refs*int64(len(tracedRates)))
	e.layer["trace.bytes_per_ref"] = float64(len(data)) / float64(refs)
	e.layer["serve.ring_blocked_s"] = float64(e.tr.selfNs("serve.Server.ServeStream")) / 1e9 / float64(len(tracedRates))

	// The layer replay splits the shard's per-reference cost between the
	// LRU stack and the manager without touching serve.
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	lt := &layerTotals{}
	root := e.tr.begin("bench.layer_replay", 0, 0)
	err = layerReplay(e, tr, srv.Params(), int(cfg.InstalledMem/cfg.PageSize), false, root, lt)
	e.tr.end(root)
	if err != nil {
		return err
	}
	lt.report(e)
	return nil
}

type passResult struct {
	wall      time.Duration
	decisions []decision
	boundsMs  []float64 // decide+emit+checkpoint per closed period
	// From the shard's flight records: ingest wall time and references.
	ingestNs, ingestRefs int64
	ringOccupancy        float64 // traced passes only
}

// streamPass streams data into a fresh server over one loopback TCP
// connection and waits for the want decisions the trace closes. A
// non-nil heap is sampled at every decision.
// Untraced passes go through Server.ServeListener; traced passes accept
// the connection here and hand ServeStream a timed stream, with a
// sampler reading ring occupancy from Server.Status.
func streamPass(e *env, data []byte, cfg serve.Config, want int, heap *heapPeak, traced bool) (passResult, error) {
	var (
		pr       passResult
		mu       sync.Mutex
		lastAt   time.Time
		finished = make(chan struct{})
		failed   = make(chan error, 1)
	)
	cfg.OnDecision = func(d serve.Decision) {
		if heap != nil {
			heap.observe()
		}
		mu.Lock()
		defer mu.Unlock()
		pr.decisions = append(pr.decisions, fromServe(d))
		if len(pr.decisions) == want {
			lastAt = time.Now()
			close(finished)
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return pr, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pr, err
	}
	opt := serve.StreamOptions{Logf: func(format string, args ...any) {
		select {
		case failed <- fmt.Errorf(format, args...):
		default:
		}
	}}
	pass := e.tr.begin("bench.stream_pass", 0, 0)
	served := make(chan error, 1)
	go func() {
		if traced {
			served <- serveTraced(e, srv, ln, opt, pass, cfg.Period)
			return
		}
		served <- srv.ServeListener(ln, opt)
	}()
	stopSampler := func() float64 { return 0 }
	if traced {
		stopSampler = sampleRing(srv)
	}

	start := time.Now()
	werr := writeStream(ln.Addr().String(), data)
	if werr == nil {
		select {
		case <-finished:
		case err := <-failed:
			werr = err
		case <-time.After(2 * time.Minute):
			werr = errors.New("stream pass timed out")
		}
	}
	pr.ringOccupancy = stopSampler()
	ln.Close()
	serr := <-served
	e.tr.end(pass)
	if werr != nil {
		return pr, werr
	}
	if serr != nil {
		return pr, serr
	}
	mu.Lock()
	pr.wall = lastAt.Sub(start)
	mu.Unlock()

	sh, err := srv.Shard(streamDisk)
	if err != nil {
		return pr, err
	}
	for _, r := range sh.Flight().Last(0) {
		pr.ingestNs += r.IngestNs
		pr.ingestRefs += r.Refs
		if !r.Warmup {
			pr.boundsMs = append(pr.boundsMs, float64(r.DecideNs+r.EmitNs+r.CheckpointNs)/1e6)
		}
	}
	return pr, srv.Close()
}

// writeStream is the client: the "disk <name>" preamble, then the trace.
func writeStream(addr string, data []byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(conn, 64<<10)
	if _, err := fmt.Fprintf(w, "disk %s\n", streamDisk); err != nil {
		conn.Close()
		return err
	}
	if _, err := w.Write(data); err != nil {
		conn.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return err
	}
	return conn.Close()
}

// serveTraced accepts the single connection and runs the same preamble
// handling as ServeListener, but hands ServeStream a stream whose
// ReadBatch calls are spans.
func serveTraced(e *env, srv *serve.Server, ln net.Listener, opt serve.StreamOptions, parent int64, period simtime.Seconds) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	rd := bufio.NewReaderSize(conn, 64<<10)
	line, err := rd.ReadString('\n')
	if err != nil {
		return err
	}
	name, ok := strings.CutPrefix(strings.TrimSpace(line), "disk ")
	if !ok {
		return fmt.Errorf("bad preamble %q", line)
	}
	sh, err := srv.Shard(name)
	if err != nil {
		return err
	}
	sr, err := trace.NewStreamReader(rd)
	if err != nil {
		return err
	}
	id := e.tr.begin("serve.Server.ServeStream", parent, 0)
	err = srv.ServeStream(sh, &timedStream{StreamReader: sr, e: e, parent: id, period: period}, opt)
	e.tr.end(id)
	if err != nil {
		opt.Logf("%v", err)
	}
	return err
}

// timedStream is a trace.BatchStream whose ReadBatch calls are spans.
type timedStream struct {
	*trace.StreamReader
	e      *env
	parent int64
	period simtime.Seconds
	cur    int64 // period of the last decoded request
}

func (s *timedStream) ReadBatch(dst []trace.Request) (int, error) {
	id := s.e.tr.begin("trace.StreamReader.ReadBatch", s.parent, s.cur)
	n, err := s.StreamReader.ReadBatch(dst)
	s.e.tr.end(id)
	if n > 0 {
		s.cur = int64(dst[n-1].Time/s.period) + 1
	}
	return n, err
}

// sampleRing polls the stream ring's occupancy through Server.Status
// until the returned stop function is called; stop returns the mean
// fill fraction over the samples taken while a stream was attached.
func sampleRing(srv *serve.Server) (stop func() float64) {
	done := make(chan struct{})
	res := make(chan float64, 1)
	go func() {
		var sum float64
		var n int
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				if n == 0 {
					res <- 0
				} else {
					res <- sum / float64(n)
				}
				return
			case <-t.C:
				for _, sh := range srv.Status().Shards {
					if sh.RingCap > 0 {
						sum += float64(sh.RingLen) / float64(sh.RingCap)
						n++
					}
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-res
	}
}

// streamReference decides the same trace through one-request-at-a-time
// Shard.Ingest with the batch decide path.
func streamReference(tr *trace.Trace, cfg serve.Config) ([]decision, error) {
	var out []decision
	cfg.Decide = core.ModeBatch
	cfg.OnDecision = func(d serve.Decision) { out = append(out, fromServe(d)) }
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	sh, err := srv.Shard(streamDisk)
	if err != nil {
		return nil, err
	}
	for _, r := range tr.Requests {
		if err := sh.Ingest(r); err != nil {
			return nil, err
		}
	}
	if err := sh.FinishTo(tr.Duration); err != nil {
		return nil, err
	}
	return out, srv.Close()
}

// streamRestart ingests the trace up to the middle of its last period,
// cuts a checkpoint, restarts a server from it, and checks that the
// restarted shard finishes the trace with the uninterrupted decisions.
// The cut, the restart (serve.New + Restore) and Restore alone are
// timed; the restart is repeated and the medians reported.
func streamRestart(e *env, tr *trace.Trace, cfg serve.Config, want []decision) error {
	var got []decision
	cfg.SnapshotPath = filepath.Join(e.ckptDir, "stream.snap")
	cfg.OnDecision = func(d serve.Decision) { got = append(got, fromServe(d)) }
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	sh, err := srv.Shard(streamDisk)
	if err != nil {
		return err
	}
	cutT := tr.Duration - cfg.Period/2
	cut := 0
	for cut < len(tr.Requests) && tr.Requests[cut].Time < cutT {
		cut++
	}
	for b := 0; b < cut; b += 4096 {
		if err := sh.IngestBatch(tr.Requests[b:min(b+4096, cut)]); err != nil {
			return err
		}
	}
	if err := timeCheckpoint(e, srv, cfg.SnapshotPath); err != nil {
		return err
	}
	e.layer["serve.checkpoints"] = 1

	restored, err := timeRestart(e, cfg, 3)
	if err != nil {
		return err
	}
	sh2, err := restored.Shard(streamDisk)
	if err != nil {
		return err
	}
	if sh2.Consumed() != int64(cut) {
		return fmt.Errorf("restored shard consumed %d requests, want %d", sh2.Consumed(), cut)
	}
	for b := cut; b < len(tr.Requests); b += 4096 {
		if err := sh2.IngestBatch(tr.Requests[b:min(b+4096, len(tr.Requests))]); err != nil {
			return err
		}
	}
	if err := sh2.FinishTo(tr.Duration); err != nil {
		return err
	}
	return sameDecisions(got, want)
}
