package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/fleet"
	"jointpm/internal/mem"
	"jointpm/internal/obs/flight"
	"jointpm/internal/serve"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// fleet-capped: a few hundred shards in one server under a global power
// cap, fed in time order by this goroutine through Shard.IngestBatch,
// each period boundary closed by a timed Shard.FinishTo. Periods are
// short, so most of the time goes to boundaries: incremental decide over
// a 4-level speed slate and a fleet reallocation at every boundary
// (jointpmd's default -fleet-epoch 1). Decode and the stream ring are
// bypassed.
//
// The timed server checkpoints only when told to (-snapshot-every 0).
// With jointpmd's default cadence of 5, every shard rewrites the whole
// server's snapshot every fifth period, and on a disk-backed checkout
// those fsyncs set the pace: throughput moved by 40% between runs of
// identical code. Traced runs measure the cadence in a pass of their own
// (serve.boundary_ckpt_p50_ms).
//
// Shards draw from four traces of different rate and popularity, so
// the water-fill splits uneven demand. The traces repeat, shifted in
// time, for as long as the run lasts; the loop stops on a whole
// checkpoint cycle.

type fleetSize struct {
	shards        int
	mem, bank     simtime.Bytes
	period        simtime.Seconds
	periods       int // trace length in periods
	setups        int
	control       int // periods of the uncapped control pass (traced runs)
	capOverFloors float64
}

func fleetSizes(tiny bool) fleetSize {
	if tiny {
		return fleetSize{shards: 8, mem: 64 * simtime.MB, bank: simtime.MB, period: 10, periods: 10, setups: 2, control: 5, capOverFloors: 1.02}
	}
	return fleetSize{shards: 256, mem: 64 * simtime.MB, bank: simtime.MB, period: 10, periods: 20, setups: 7, control: 10, capOverFloors: 1.02}
}

// fleetTraces are the traces shards draw from: rate in MB per stream
// second and popularity. The light traces let the disk sleep and price
// well under the fairness floor; the heaviest keeps it busy and prices
// about 2 W above it. fleetMix assigns them: of every eight shards, four
// draw the lightest trace and one the heaviest, so ingest stays small
// next to the boundaries, the aggregate uncapped demand is about
// 1.04 x the sum of the floors, and a cap of 1.02 x squeezes the
// heaviest shards below their demand.
var fleetTraces = []struct{ rateMB, popularity float64 }{
	{0.25, 0.05}, {1, 0.1}, {4, 0.2}, {8, 0.4},
}

var fleetMix = []int{0, 0, 0, 0, 1, 1, 2, 3}

const (
	fleetEpoch         = 1
	fleetSnapshotEvery = 5 // jointpmd's default, run by the traced cadence pass
	fleetWarmup        = 5 // untimed periods before the timed loop
)

func fleetConfig(e *env, sz fleetSize) serve.Config {
	return serve.Config{
		Decide:         core.ModeIncremental,
		PageSize:       64 * simtime.KB,
		BankSize:       sz.bank,
		InstalledMem:   sz.mem,
		Period:         sz.period,
		SpeedLevels:    4,
		PowerCapW:      fleetFloorW(sz) * float64(sz.shards) * sz.capOverFloors,
		FleetEpoch:     fleetEpoch,
		SnapshotPath:   filepath.Join(e.ckptDir, "fleet.snap"),
		FlightRecorder: flight.DefaultDepth,
	}
}

// fleetFloorW is the per-shard fairness floor the server solves with:
// every bank napping plus the disk's static power.
func fleetFloorW(sz fleetSize) float64 {
	banks := float64(sz.mem / sz.bank)
	return float64(mem.RDRAM(sz.bank).NapPower())*banks + float64(disk.Barracuda().StaticPower())
}

func shardName(i int) string { return fmt.Sprintf("s%03d", i) }

// fleetRun is one server under load and what it has published.
type fleetRun struct {
	srv    *serve.Server
	shards []*serve.Shard
	// Per shard: the next period a decision is due for, and a tally of
	// decisions that arrived out of turn.
	next      []int64
	outOfTurn int
	index     map[string]int

	violations, overBudget, fallbacks int
	powerSum                          []float64
	powerN                            []int
	capture                           *[]decision // when set, decisions are also appended here
}

func (f *fleetRun) onDecision(d serve.Decision) {
	i, ok := f.index[d.Disk]
	if !ok || d.Period != f.next[i] {
		f.outOfTurn++
	} else {
		f.next[i]++
	}
	dec := d.Decision
	switch {
	case dec.Fallback:
		f.fallbacks++
	case dec.OverBudget:
		f.overBudget++
	default:
		w := float64(dec.Chosen.TotalPower)
		// The cap-compliance rule of cmd/fleetbench: a trusted period's
		// priced power must fit the budget it was decided under.
		if dec.BudgetW > 0 && w > dec.BudgetW*(1+1e-9)+1e-6 {
			f.violations++
		}
		if w > 0 {
			f.powerSum[i] += w
			f.powerN[i]++
		}
	}
	if f.capture != nil {
		*f.capture = append(*f.capture, fromServe(d))
	}
}

// newFleetRun builds a server with every shard created up front and one
// reallocation solved before the first request, as cmd/fleetbench does.
func newFleetRun(cfg serve.Config, n int) (*fleetRun, error) {
	f := &fleetRun{
		next:     make([]int64, n),
		index:    make(map[string]int, n),
		powerSum: make([]float64, n),
		powerN:   make([]int, n),
	}
	cfg.OnDecision = f.onDecision
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	f.srv = srv
	for i := 0; i < n; i++ {
		sh, err := srv.Shard(shardName(i))
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, sh)
		f.index[shardName(i)] = i
		f.next[i] = 1
	}
	srv.FleetReallocate()
	return f, nil
}

// fleetFeed holds each trace cut into periods, plus the scratch buffer
// time-shifted copies are made in.
type fleetFeed struct {
	byPeriod [][][]trace.Request // [trace][period]
	periods  int
	period   simtime.Seconds
	scratch  []trace.Request
	refs     [][]int64 // page refs per [trace][period]
}

func newFleetFeed(traces []*trace.Trace, periods int, period simtime.Seconds) *fleetFeed {
	ff := &fleetFeed{periods: periods, period: period}
	for _, tr := range traces {
		cut := make([][]trace.Request, periods)
		refs := make([]int64, periods)
		i := 0
		for p := 0; p < periods; p++ {
			end := simtime.Seconds(p+1) * period
			j := i
			for j < len(tr.Requests) && tr.Requests[j].Time < end {
				refs[p] += int64(tr.Requests[j].Pages)
				j++
			}
			cut[p] = tr.Requests[i:j]
			i = j
		}
		ff.byPeriod = append(ff.byPeriod, cut)
		ff.refs = append(ff.refs, refs)
	}
	return ff
}

// batch returns shard i's requests for global period p (0-based),
// shifted to that period's place in stream time, and their page refs.
func (ff *fleetFeed) batch(i int, p int64) ([]trace.Request, int64) {
	t := fleetMix[i%len(fleetMix)]
	local := int(p % int64(ff.periods))
	shift := simtime.Seconds(p/int64(ff.periods)) * simtime.Seconds(ff.periods) * ff.period
	src := ff.byPeriod[t][local]
	ff.scratch = append(ff.scratch[:0], src...)
	for k := range ff.scratch {
		ff.scratch[k].Time += shift
	}
	return ff.scratch, ff.refs[t][local]
}

// fleetPeriod ingests period p into every shard, then closes it on every
// shard with a timed FinishTo. Returns the page refs ingested.
func fleetPeriod(e *env, f *fleetRun, ff *fleetFeed, p int64, bounds func(ms float64)) (int64, error) {
	var refs int64
	for i, sh := range f.shards {
		reqs, n := ff.batch(i, p)
		id := e.tr.begin("serve.Shard.IngestBatch", 0, p+1)
		err := sh.IngestBatch(reqs)
		e.tr.end(id)
		if err != nil {
			return refs, err
		}
		refs += n
	}
	end := simtime.Seconds(p+1) * ff.period
	for _, sh := range f.shards {
		id := e.tr.begin("serve.Shard.FinishTo", 0, p+1)
		start := time.Now()
		err := sh.FinishTo(end)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		e.tr.end(id)
		if err != nil {
			return refs, err
		}
		bounds(ms)
	}
	return refs, nil
}

func runFleet(e *env) error {
	sz := fleetSizes(e.opt.tiny)
	cfg := fleetConfig(e, sz)

	var (
		traces []*trace.Trace
		f      *fleetRun
	)
	setup, err := timeSetup(sz.setups, func() error {
		traces = traces[:0]
		for k, tc := range fleetTraces {
			// Scaled by 4 to a data set 8x the installed memory.
			base, err := workload.Generate(workload.Config{
				DataSetBytes: 2 * sz.mem,
				PageSize:     cfg.PageSize,
				Rate:         tc.rateMB * float64(simtime.MB) / 2,
				Popularity:   tc.popularity,
				Duration:     simtime.Seconds(sz.periods) * sz.period,
				Classes:      workload.SPECWeb99Classes(8),
				Seed:         populationSeed + int64(k),
			})
			if err != nil {
				return err
			}
			tr, err := workload.NewSynthesizer(e.opt.seed*int64(len(fleetTraces))+int64(k)).ScaleDataSet(base, 4)
			if err != nil {
				return err
			}
			traces = append(traces, tr)
		}
		var err error
		f, err = newFleetRun(cfg, sz.shards)
		return err
	})
	if err != nil {
		return err
	}
	e.e2e["setup_s"] = setup
	ff := newFleetFeed(traces, sz.periods, sz.period)
	e.note("fleet-capped: %d shards over %d traces, cap %.2f W (%.2f x the sum of floors), %d-period cycle",
		sz.shards, len(traces), cfg.PowerCapW, sz.capOverFloors, sz.periods)

	share := 1.0
	if e.opt.traced {
		share = 0.5
	}
	var (
		bounds       []float64
		refs, p      int64
		tracer       = e.tr
		untracedRate float64
	)
	// Warm-up periods, untimed, sample the live heap after every period
	// on untraced runs.
	e.tr = nil
	heap := newHeapPeak()
	for ; p < fleetWarmup; p++ {
		if _, err := fleetPeriod(e, f, ff, p, func(float64) {}); e.op(err) != nil {
			return err
		}
		if !e.opt.traced {
			heap.observe()
		}
	}
	e.e2e["peak_heap_mb"] = heap.mb()

	// Untraced runs measure the whole budget with the tracer off; traced
	// runs measure the first half untraced (for the overhead figure) and
	// the second half traced. Every boundary carries a fleet epoch.
	runtime.GC()
	start := time.Now()
	deadline := e.deadline(share)
	for {
		n, err := fleetPeriod(e, f, ff, p, func(ms float64) { bounds = append(bounds, ms) })
		if e.op(err) != nil {
			return err
		}
		refs += n
		p++
		if time.Now().Before(deadline) {
			continue
		}
		if tracer == nil || e.tr != nil {
			break
		}
		untracedRate = float64(refs) / time.Since(start).Seconds()
		e.note("fleet-capped: untraced half closed %d periods", p)
		e.tr = tracer
		refs = 0
		bounds = bounds[:0]
		start = time.Now()
		deadline = e.deadline(share)
	}
	wall := time.Since(start).Seconds()
	e.tr = tracer
	var boundaryS float64
	for _, ms := range bounds {
		boundaryS += ms / 1e3
	}
	e.note("fleet-capped: %d periods; boundaries took %.0f%% of the timed wall time", p, 100*boundaryS/wall)
	if !e.opt.traced {
		e.e2e["refs_per_s"] = float64(refs) / wall
		e.boundaries(bounds)
	} else {
		e.layer["bench.trace_overhead_pct"] = (untracedRate/(float64(refs)/wall) - 1) * 100
		e.layer["serve.boundary_epoch_p50_ms"] = quantile(bounds, 0.5)
		e.layer["core.fallbacks"] = float64(f.fallbacks)
		e.layer["core.over_budget"] = float64(f.overBudget)
		e.layer["fleet.cap_violations"] = float64(f.violations)
		var means []float64
		for i := range f.powerSum {
			if f.powerN[i] > 0 {
				means = append(means, f.powerSum[i]/float64(f.powerN[i]))
			}
		}
		e.layer["fleet.jain_index"] = fleet.JainIndex(means)
		rec := httptest.NewRecorder()
		f.srv.FleetHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet", nil))
		var fs serve.FleetStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &fs); err != nil {
			return fmt.Errorf("reading /debug/fleet: %w", err)
		}
		e.layer["fleet.reallocations"] = float64(fs.Epoch)
		var demand float64
		var squeezed int
		for _, a := range fs.Assignments {
			demand += a.DemandW
			if a.BudgetW < a.DemandW {
				squeezed++
			}
		}
		e.note("fleet-capped: cap %.2f W, aggregate demand %.2f W, %d of %d shards budgeted below their demand",
			fs.PowerCapW, demand, squeezed, len(fs.Assignments))
		// Ingest never crosses a boundary here (FinishTo closes them), so
		// the IngestBatch spans are pure ingest.
		if refs > 0 {
			e.layer["serve.shard_ingest_ns_per_ref"] = float64(e.tr.selfNs("serve.Shard.IngestBatch")) / float64(refs)
		}
	}

	// Output checks, untimed.
	e.check("one-decision-per-shard-per-boundary", func() error {
		if f.outOfTurn > 0 {
			return fmt.Errorf("%d decisions arrived out of turn", f.outOfTurn)
		}
		for i, sh := range f.shards {
			if got := sh.Periods(); got != p || f.next[i] != p+1 {
				return fmt.Errorf("shard %s closed %d periods and published %d decisions, want %d", sh.Name(), got, f.next[i]-1, p)
			}
		}
		return nil
	}())
	e.check("zero-cap-violations", func() error {
		if f.violations > 0 {
			return fmt.Errorf("%d trusted periods exceeded their budget", f.violations)
		}
		return nil
	}())
	e.check("restart-equals-uninterrupted", fleetRestart(e, cfg, f, ff, p))

	if !e.opt.traced {
		return nil
	}
	// The uncapped control: the same shards and traces without a cap, so
	// its boundaries carry nothing but decide + emit.
	ctl := cfg
	ctl.PowerCapW = 0
	ctlBounds, _, err := fleetPass(e, ctl, sz.shards, ff, sz.control)
	if err != nil {
		return err
	}
	e.layer["serve.boundary_plain_p50_ms"] = quantile(ctlBounds, 0.5)
	e.layer["fleet.epoch_extra_ms"] = e.layer["serve.boundary_epoch_p50_ms"] - e.layer["serve.boundary_plain_p50_ms"]

	// The cadence pass: the capped fleet with jointpmd's -snapshot-every 5,
	// for one checkpoint cycle. The fifth boundary of every shard writes
	// the whole server's snapshot.
	cad := cfg
	cad.SnapshotPath = filepath.Join(e.ckptDir, "cadence.snap")
	cad.SnapshotEvery = fleetSnapshotEvery
	_, ckpt, err := fleetPass(e, cad, sz.shards, ff, fleetSnapshotEvery)
	if err != nil {
		return err
	}
	e.layer["serve.boundary_ckpt_p50_ms"] = quantile(ckpt, 0.5)
	e.layer["serve.checkpoints"] = float64(len(ckpt))

	lt := &layerTotals{}
	root := e.tr.begin("bench.layer_replay", 0, 0)
	for _, tr := range traces {
		if err := layerReplay(e, tr, f.srv.Params(), int(cfg.InstalledMem/cfg.PageSize), true, root, lt); err != nil {
			return err
		}
	}
	e.tr.end(root)
	lt.report(e)
	return nil
}

// fleetPass runs a fresh fleet under cfg for the given number of
// periods and returns the boundary times, split into those that carried
// a cadence checkpoint and the rest.
func fleetPass(e *env, cfg serve.Config, shards int, ff *fleetFeed, periods int) (plain, ckpt []float64, err error) {
	f, err := newFleetRun(cfg, shards)
	if err != nil {
		return nil, nil, err
	}
	for q := int64(0); q < int64(periods); q++ {
		carries := cfg.SnapshotEvery > 0 && (q+1)%cfg.SnapshotEvery == 0
		_, err := fleetPeriod(e, f, ff, q, func(ms float64) {
			if carries {
				ckpt = append(ckpt, ms)
			} else {
				plain = append(plain, ms)
			}
		})
		if e.op(err) != nil {
			return nil, nil, err
		}
	}
	return plain, ckpt, nil
}

// fleetRestart ingests period p into every shard without closing it,
// cuts a checkpoint mid-period, restarts a server from it, and checks
// that the restarted fleet closes the next two boundaries with exactly
// the decisions the uninterrupted fleet publishes.
func fleetRestart(e *env, cfg serve.Config, f *fleetRun, ff *fleetFeed, p int64) error {
	for i, sh := range f.shards {
		reqs, _ := ff.batch(i, p)
		if err := sh.IngestBatch(reqs); err != nil {
			return err
		}
	}
	if err := timeCheckpoint(e, f.srv, cfg.SnapshotPath); err != nil {
		return err
	}
	n := len(f.shards)
	g := &fleetRun{next: make([]int64, n), index: f.index, powerSum: make([]float64, n), powerN: make([]int, n)}
	rcfg := cfg
	rcfg.OnDecision = g.onDecision
	restored, err := timeRestart(e, rcfg, 3)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		sh, err := restored.Shard(shardName(i))
		if err != nil {
			return err
		}
		if sh.Periods() != p {
			return fmt.Errorf("restored shard %s at period %d, want %d", sh.Name(), sh.Periods(), p)
		}
		g.shards = append(g.shards, sh)
		g.next[i] = p + 1
	}
	var want, got []decision
	f.capture, g.capture = &want, &got
	for _, run := range []*fleetRun{f, g} {
		end := simtime.Seconds(p+1) * ff.period
		for _, sh := range run.shards {
			if err := sh.FinishTo(end); err != nil {
				return err
			}
		}
		if _, err := fleetPeriod(e, run, ff, p+1, func(float64) {}); err != nil {
			return err
		}
	}
	if len(want) != 2*n {
		return fmt.Errorf("uninterrupted fleet published %d decisions over two boundaries, want %d", len(want), 2*n)
	}
	return sameDecisions(got, want)
}
