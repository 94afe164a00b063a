package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/experiments"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/policy"
	"jointpm/internal/sim"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// sim-sweep: one Fig. 7 data-set point (the 16 GB data set at
// 100 MB/s, popularity 0.1) at quick dimensions. Each sweep records the
// trace once per memory configuration with sim.Record and replays every
// method of policy.Comparison that shares it with Recording.Replay; the
// joint method, which resizes the cache itself, runs the fused engine
// (sim.Run) with batch Manager.Decide. No serve code runs. Sweeps repeat
// for the whole budget.

type simSize struct {
	horizon simtime.Seconds
	setups  int
}

func simSizes(tiny bool) simSize {
	if tiny {
		return simSize{horizon: 1800, setups: 2}
	}
	return simSize{horizon: 4 * 3600, setups: 7}
}

// simPoint is the generated point: the scale, its trace and the methods.
type simPoint struct {
	scale   experiments.Scale
	tr      *trace.Trace
	warmup  simtime.Seconds
	methods []policy.Method
	refs    int64
}

func (sp *simPoint) config(m policy.Method) sim.Config {
	s := sp.scale
	return sim.Config{
		Trace:        sp.tr,
		Method:       m,
		InstalledMem: s.InstalledMem,
		BankSize:     s.BankSize,
		DiskSpec:     s.DiskSpec,
		MemSpec:      s.MemSpec,
		Period:       s.Period,
		Warmup:       sp.warmup,
		Joint:        &core.Params{DelayCap: s.DelayCap},
	}
}

// jointParams are the manager parameters the fused engine derives for
// the joint method at this point.
func (sp *simPoint) jointParams() core.Params {
	s := sp.scale
	p := core.DefaultParams(s.PageSize, s.BankSize, int(s.InstalledMem/s.BankSize), s.DiskSpec, s.MemSpec)
	p.Period = s.Period
	p.LongLatency = 0.5
	return core.MergeParams(p, core.Params{DelayCap: s.DelayCap})
}

func newSimPoint(sz simSize, seed int64) (*simPoint, error) {
	s := experiments.QuickScale(sz.horizon)
	rate := 100 * s.RateUnit
	dataSet := 16 * s.Unit
	warmup := s.WarmupFor(dataSet, rate)
	base, err := s.GenerateBase(4*s.Unit, rate, 0.1, populationSeed, warmup)
	if err != nil {
		return nil, err
	}
	tr, err := workload.NewSynthesizer(seed).ScaleDataSet(base, 4)
	if err != nil {
		return nil, err
	}
	methods := policy.Comparison(s.InstalledMem, s.FMSizes())
	policy.SortMethods(methods)
	return &simPoint{scale: s, tr: tr, warmup: warmup, methods: methods, refs: totalRefs(tr)}, nil
}

// sweepResult is one sweep's outcome.
type sweepResult struct {
	results                     []*sim.Result // indexed like simPoint.methods
	joint                       int           // index of the joint method
	always                      int           // index of the always-on baseline
	decideMs                    []float64     // the joint manager's Decide per period
	recordNs, replayNs, jointNs int64
	records, replays            int
}

// sweep runs every method once: one Record per shared memory
// configuration, a Replay per member, and the fused joint run. A
// non-nil heap is sampled after every method.
func sweep(e *env, sp *simPoint, heap *heapPeak, parent int64) (*sweepResult, error) {
	res := &sweepResult{results: make([]*sim.Result, len(sp.methods)), joint: -1, always: -1}
	type group struct {
		key sim.CacheKey
		idx []int
	}
	var groups []*group
	byKey := map[sim.CacheKey]*group{}
	for i, m := range sp.methods {
		if m.Disk == policy.DiskAlwaysOn {
			res.always = i
		}
		key, ok := sim.SharedCacheKey(m, sp.scale.InstalledMem)
		if !ok {
			res.joint = i
			continue
		}
		g := byKey[key]
		if g == nil {
			g = &group{key: key}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}
	if res.joint < 0 || res.always < 0 {
		return nil, fmt.Errorf("comparison set lacks the joint method or the always-on baseline")
	}
	for _, g := range groups {
		id := e.tr.begin("sim.Record", parent, 0)
		start := time.Now()
		rec, err := sim.Record(sp.config(sp.methods[g.idx[0]]))
		res.recordNs += time.Since(start).Nanoseconds()
		e.tr.end(id)
		if err != nil {
			return nil, err
		}
		res.records++
		for _, i := range g.idx {
			id := e.tr.begin("sim.Recording.Replay", parent, 0)
			start := time.Now()
			r, err := rec.Replay(sp.methods[i])
			res.replayNs += time.Since(start).Nanoseconds()
			e.tr.end(id)
			if err != nil {
				return nil, err
			}
			res.replays++
			res.results[i] = r
			if heap != nil {
				heap.observe()
			}
		}
		rec.Release()
	}
	cfg := sp.config(sp.methods[res.joint])
	rec := flight.New(int(sp.tr.Duration/sp.scale.Period) + 2)
	cfg.Flight = rec
	id := e.tr.begin("sim.Run", parent, 0)
	start := time.Now()
	r, err := sim.Run(cfg)
	res.jointNs = time.Since(start).Nanoseconds()
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	res.results[res.joint] = r
	if heap != nil {
		heap.observe()
	}
	for _, pr := range rec.Last(0) {
		if pr.DecideNs > 0 {
			res.decideMs = append(res.decideMs, float64(pr.DecideNs)/1e6)
		}
	}
	return res, nil
}

// sameSweep compares two sweeps' energies and delay counts per method.
func sameSweep(a, b *sweepResult, methods []policy.Method) error {
	for i := range a.results {
		x, y := a.results[i], b.results[i]
		if x.TotalEnergy() != y.TotalEnergy() || x.Delayed != y.Delayed || x.DiskAccesses != y.DiskAccesses {
			return fmt.Errorf("method %s: energy %v / %v, delayed %d / %d", methods[i].Name(),
				x.TotalEnergy(), y.TotalEnergy(), x.Delayed, y.Delayed)
		}
	}
	return nil
}

func runSimSweep(e *env) error {
	sz := simSizes(e.opt.tiny)
	var sp *simPoint
	setup, err := timeSetup(sz.setups, func() error {
		var err error
		sp, err = newSimPoint(sz, e.opt.seed)
		return err
	})
	if err != nil {
		return err
	}
	e.e2e["setup_s"] = setup
	e.note("sim-sweep: %d requests, %d page refs, horizon %v + warmup %v, %d methods",
		len(sp.tr.Requests), sp.refs, sp.scale.Horizon, sp.warmup, len(sp.methods))

	share := 1.0
	if e.opt.traced {
		share = 0.5
	}
	tracer := e.tr
	e.tr = nil
	// A warm-up sweep, untimed, gives the results every later sweep must
	// repeat and, on untraced runs, samples the live heap after every
	// method.
	heap := newHeapPeak()
	sample := heap
	if e.opt.traced {
		sample = nil
	}
	first, err := sweep(e, sp, sample, 0)
	if e.op(err) != nil {
		return err
	}
	e.e2e["peak_heap_mb"] = heap.mb()

	var rates, decide []float64
	runtime.GC()
	deadline := e.deadline(share)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		start := time.Now()
		res, err := sweep(e, sp, nil, 0)
		wall := time.Since(start).Seconds()
		if e.op(err) != nil {
			continue
		}
		rates = append(rates, float64(sp.refs)*float64(len(sp.methods))/wall)
		decide = append(decide, res.decideMs...)
		if err := sameSweep(res, first, sp.methods); err != nil {
			e.check(fmt.Sprintf("sweep-%d-equals-warm-up", n), err)
		}
	}
	e.tr = tracer
	if len(rates) == 0 {
		return errNoProgress
	}
	e.note("sim-sweep: %d sweeps", len(rates))
	e.e2e["refs_per_s"] = median(rates)
	e.boundaries(decide)

	joint, always := first.results[first.joint], first.results[first.always]
	e.note("sim-sweep: joint energy %.4f%% of always-on, %.4f delayed requests/s",
		100*float64(joint.TotalEnergy())/float64(always.TotalEnergy()), joint.DelayedPerSecond())

	// Output checks, untimed: the joint row (batch Decide) equals the
	// fused engine deciding incrementally, and the replayed always-on
	// baseline equals the fused engine's run of it.
	e.check("joint-row-equals-fused-incremental", func() error {
		cfg := sp.config(sp.methods[first.joint])
		cfg.Decide = core.ModeIncremental
		r, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(r, joint) {
			return fmt.Errorf("fused incremental run differs: energy %v vs %v", r.TotalEnergy(), joint.TotalEnergy())
		}
		return nil
	}())
	e.check("replayed-baseline-equals-fused", func() error {
		r, err := sim.Run(sp.config(sp.methods[first.always]))
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(r, always) {
			return fmt.Errorf("fused always-on run differs: energy %v vs %v", r.TotalEnergy(), always.TotalEnergy())
		}
		return nil
	}())

	if !e.opt.traced {
		return nil
	}
	var (
		tracedRates                 []float64
		recordNs, replayNs, jointNs int64
		records, replays, jointRuns int64
	)
	deadline = e.deadline(share)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		root := e.tr.begin("bench.sweep", 0, 0)
		start := time.Now()
		res, err := sweep(e, sp, nil, root)
		wall := time.Since(start).Seconds()
		e.tr.end(root)
		if e.op(err) != nil {
			continue
		}
		tracedRates = append(tracedRates, float64(sp.refs)*float64(len(sp.methods))/wall)
		recordNs += res.recordNs
		replayNs += res.replayNs
		jointNs += res.jointNs
		records += int64(res.records)
		replays += int64(res.replays)
		jointRuns++
		if err := sameSweep(res, first, sp.methods); err != nil {
			e.check(fmt.Sprintf("traced-sweep-%d-equals-warm-up", n), err)
		}
	}
	if len(tracedRates) == 0 {
		return errNoProgress
	}
	refs := float64(sp.refs)
	e.layer["bench.trace_overhead_pct"] = (median(rates)/median(tracedRates) - 1) * 100
	e.layer["sim.record_ns_per_ref"] = float64(recordNs) / (float64(records) * refs)
	e.layer["sim.replay_ns_per_ref"] = float64(replayNs) / (float64(replays) * refs)
	e.layer["sim.replay_joint_ns_per_ref"] = float64(jointNs) / (float64(jointRuns) * refs)
	e.layer["sim.joint_energy_pct"] = 100 * float64(joint.TotalEnergy()) / float64(always.TotalEnergy())
	e.layer["sim.delayed_per_s"] = joint.DelayedPerSecond()
	if joint.CacheAccesses > 0 {
		e.layer["cache.hit_ratio"] = 1 - float64(joint.DiskAccesses)/float64(joint.CacheAccesses)
	}
	e.layer["disk.requests"] = float64(joint.DiskRequests)
	var fallbacks int64
	for _, ps := range joint.Periods {
		if ps.Decision != nil && ps.Decision.Fallback {
			fallbacks++
		}
	}
	e.layer["core.fallbacks"] = float64(fallbacks)

	// Spin-ups come from the disk model's own counter, on one more joint
	// run with a metrics registry attached.
	reg := obs.NewRegistry()
	cfg := sp.config(sp.methods[first.joint])
	cfg.Metrics = reg
	if _, err := sim.Run(cfg); e.op(err) != nil {
		return err
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "disk.spin_ups" {
			e.layer["disk.spinups"] = float64(c.Value)
		}
	}

	lt := &layerTotals{}
	root := e.tr.begin("bench.layer_replay", 0, 0)
	err = layerReplay(e, sp.tr, sp.jointParams(), int(sp.scale.InstalledMem/sp.scale.PageSize), true, root, lt)
	e.tr.end(root)
	if err != nil {
		return err
	}
	lt.report(e)
	return nil
}
