package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
	"jointpm/internal/obs/flight"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

// ErrCrashInjected is returned by Ingest/FinishTo when the fault plan
// scripts a daemon crash at the period boundary being closed. The
// crash-recovery harness treats it as the process dying mid-period:
// everything since the last checkpoint is lost.
var ErrCrashInjected = fmt.Errorf("serve: injected crash at period boundary")

// Decision is one published decision of a shard, tagged with its origin.
type Decision struct {
	Disk     string
	Period   int64 // 1-based index of the period the decision closes
	Decision core.Decision
}

// Shard is the online host of one disk's core.Controller: it locks the
// controller, predicts the disk traffic its references cause, publishes
// the controller's decisions, and arms checkpoints and fleet epochs at
// period boundaries. The controller retains the current period's depth
// log for the snapshot. One goroutine ingests; the server's checkpoint
// path locks the shard between requests, so a snapshot always lands on
// a request boundary (never mid-request).
type Shard struct {
	name string
	srv  *Server

	mu  sync.Mutex
	ctl *core.Controller

	// Mutable stream state, all covered by the snapshot (with the
	// controller's own).
	consumed     int64 // requests ingested since stream start
	nextBoundary simtime.Seconds
	misses       int64 // predicted misses this period
	reqRuns      int64 // coalesced disk requests this period
	refsTotal    int64 // lifetime page references served (not snapshotted)

	// ckptDue marks that a period boundary hit the snapshot cadence.
	// The checkpoint itself runs after sh.mu is released — Checkpoint
	// re-locks every shard, so writing it from closePeriod would
	// self-deadlock. ckptPeriod remembers which period armed it so the
	// checkpoint wall time can be amended onto that flight record.
	ckptDue    bool
	ckptPeriod int64

	// fleetDue marks that a period boundary hit the fleet-epoch cadence;
	// closeThrough runs the reallocation right after that boundary.
	// budgetW is the shard's installed fleet budget in watts (0:
	// uncapped), mirrored into the manager and the snapshot.
	fleetDue bool
	budgetW  float64

	// Introspection state, process-local (never snapshotted — like
	// /metrics, the flight recorder describes this process's life).
	// timed is fixed at construction: with neither a recorder nor a
	// metrics registry attached the shard takes no clock readings and
	// its behaviour is identical to a build without the layer.
	rec       *flight.Recorder
	timed     bool
	ingestNs  int64 // wall time spent serving this period's requests
	fallbacks int64 // lifetime count of fallback decisions

	// ring is the shard's active stream Ingestor (nil between streams),
	// published by ServeStream so Status can report ring occupancy
	// without touching sh.mu.
	ring atomic.Pointer[Ingestor]

	// The shard's side of a fleet epoch (see fleet.go): demandBits is
	// the demand the shard last published, and budgetBits the budget the
	// last epoch published for it, noBudget once installed. Both hold
	// float64 bits and are only written on a capped server.
	demandBits atomic.Uint64
	budgetBits atomic.Uint64
}

func newShard(name string, srv *Server) (*Shard, error) {
	sh := &Shard{
		name:         name,
		srv:          srv,
		nextBoundary: srv.cfg.Period,
	}
	if srv.flightDepth > 0 {
		sh.rec = flight.New(srv.flightDepth)
	}
	sh.timed = sh.rec != nil || srv.cfg.Metrics != nil
	cc := srv.ctl
	cc.Timed = sh.timed
	ctl, err := core.NewController(cc)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", name, err)
	}
	sh.ctl = ctl
	sh.budgetBits.Store(noBudget)
	sh.publishDemand()
	return sh, nil
}

// Flight returns the shard's flight recorder; nil when disabled.
func (sh *Shard) Flight() *flight.Recorder { return sh.rec }

// Name returns the disk name the shard serves.
func (sh *Shard) Name() string { return sh.name }

// Consumed returns how many requests the shard has ingested since the
// start of its stream. After a Restore, a replayed-from-start stream
// must skip this many requests to resume where the checkpoint was taken.
func (sh *Shard) Consumed() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.consumed
}

// Periods returns how many period boundaries the shard has closed.
func (sh *Shard) Periods() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ctl.Periods()
}

// Ingest feeds one request, closing any period boundaries the request's
// timestamp crosses first. Requests must arrive in time order.
func (sh *Shard) Ingest(req trace.Request) error {
	return sh.IngestBatch([]trace.Request{req})
}

// IngestBatch feeds a time-ordered block of requests under ONE lock
// acquisition: the ring drain's entry point. Period boundaries are
// closed exactly where the request timestamps cross them — each request
// lands in the same period, and each period sees the same log, as
// one-at-a-time Ingest would produce, so the decision stream is
// bit-identical (see TestServeBatchedIngestMatches). A request whose
// page range is invalid (trace.Request.ValidRange) stops the block with
// an error; the requests before it are ingested, as one-at-a-time
// Ingest would have.
func (sh *Shard) IngestBatch(reqs []trace.Request) error {
	if len(reqs) == 0 {
		return nil
	}
	return sh.locked(func() error {
		for i := 0; i < len(reqs); {
			if err := sh.closeThrough(reqs[i].Time); err != nil {
				return err
			}
			// The run of requests strictly before the next boundary.
			j := i + 1
			for j < len(reqs) && reqs[j].Time < sh.nextBoundary {
				j++
			}
			var start time.Time
			if sh.timed {
				start = time.Now()
			}
			var bad error
			for _, req := range reqs[i:j] {
				if !req.ValidRange() {
					bad = fmt.Errorf("serve: disk %s: request %d: invalid page range: first page %d, %d pages",
						sh.name, sh.consumed, req.FirstPage, req.Pages)
					break
				}
				sh.serve(req)
			}
			// The run's references reach the manager now, so neither the
			// boundary nor a checkpoint carries ingest work.
			sh.ctl.Flush()
			if sh.timed {
				sh.ingestNs += time.Since(start).Nanoseconds()
			}
			if bad != nil {
				return bad
			}
			i = j
		}
		return nil
	})
}

// FinishTo closes every period boundary at or before t. The daemon
// calls it when a stream ends (with the trace's duration) or on a
// clock tick during idle stretches, so decisions keep flowing without
// traffic.
func (sh *Shard) FinishTo(t simtime.Seconds) error {
	return sh.locked(func() error { return sh.closeThrough(t) })
}

// locked runs fn under sh.mu, then the checkpoint a closed boundary
// armed, outside the lock.
func (sh *Shard) locked(fn func() error) error {
	sh.mu.Lock()
	err := fn()
	due, duePeriod := sh.ckptDue, sh.ckptPeriod
	sh.ckptDue = false
	sh.mu.Unlock()
	if due && err == nil {
		sh.dueCheckpoint(duePeriod)
	}
	return err
}

// closeThrough closes every period boundary at or before t, running any
// fleet epoch a boundary armed. Called with sh.mu held.
func (sh *Shard) closeThrough(t simtime.Seconds) error {
	for t >= sh.nextBoundary {
		if err := sh.closePeriod(); err != nil {
			return err
		}
		sh.fleetEpochLocked()
	}
	return nil
}

// dueCheckpoint runs the cadence checkpoint outside the shard lock,
// timing it and amending the wall time onto the period record that
// armed it.
func (sh *Shard) dueCheckpoint(period int64) {
	if !sh.timed {
		sh.srv.cadenceCheckpoint()
		return
	}
	start := time.Now()
	sh.srv.cadenceCheckpoint()
	ns := time.Since(start).Nanoseconds()
	sh.srv.met.checkpointWall.Observe(float64(ns) / 1e9)
	sh.rec.AmendCheckpoint(sh.name, period, ns)
}

// serve references each page of the request through the controller and
// predicts the disk traffic the request causes at the currently applied
// memory size: a page hits iff its stack depth is within the chosen
// resident capacity (Mattson's inclusion property), and consecutive
// missing pages coalesce into one disk request, mirroring the
// simulator's run coalescing.
func (sh *Shard) serve(req trace.Request) {
	var runStart, runLen int64 = -1, 0
	flush := func() {
		if runLen > 0 {
			sh.reqRuns++
			runStart, runLen = -1, 0
		}
	}
	resident := sh.ctl.Pages()
	for k := int32(0); k < req.Pages; k++ {
		page := req.FirstPage + int64(k)
		depth := sh.ctl.Reference(req.Time, page)
		hit := depth != lrusim.Cold && int64(depth) <= resident
		if hit {
			flush()
			continue
		}
		sh.misses++
		if runLen > 0 && page == runStart+runLen {
			runLen++
		} else {
			flush()
			runStart, runLen = page, 1
		}
	}
	flush()
	sh.consumed++
	sh.refsTotal += int64(req.Pages)
}

// closePeriod ends the current period through the controller — which
// discards it during warmup and otherwise decides, under the server's
// decide semaphore — then publishes the decision. Called with sh.mu held.
//
// With introspection enabled (sh.timed) the boundary is traced: Decide
// wall time, per-reference ingest cost, and boundary-to-emit latency
// land in the serve histograms, the decision's priced energy ledger is
// accumulated, and a PeriodRecord is cut into the flight recorder.
func (sh *Shard) closePeriod() error {
	idx := sh.ctl.Periods() + 1
	if sh.srv.cfg.Injector.CrashAtPeriodBoundary(idx) {
		return ErrCrashInjected
	}
	var boundaryStart time.Time
	if sh.timed {
		boundaryStart = time.Now()
	}
	sh.installBudget()
	deciding := !sh.ctl.Warming()
	if deciding {
		sh.srv.acquire()
	}
	dec, rec := sh.ctl.Close(sh.nextBoundary, sh.misses, sh.reqRuns)
	if deciding {
		sh.srv.release()
	}
	sh.publishDemand()
	rec.Disk = sh.name
	rec.IngestNs = sh.ingestNs
	sh.ingestNs = 0
	sh.misses = 0
	sh.reqRuns = 0
	sh.nextBoundary += sh.srv.cfg.Period

	var emitStart time.Time
	if sh.timed {
		emitStart = time.Now()
	}
	sh.srv.publish(Decision{Disk: sh.name, Period: idx, Decision: dec})
	if dec.Fallback {
		sh.fallbacks++
		sh.srv.met.fallbacks.Inc()
	}
	if sh.timed {
		emitNs := time.Since(emitStart).Nanoseconds()
		led := dec.PricedLedger(sh.srv.params)
		met := &sh.srv.met
		if !rec.Warmup {
			met.decideWall.Observe(float64(rec.DecideNs) / 1e9)
		}
		if rec.Refs > 0 {
			met.ingestPerRef.Observe(float64(rec.IngestNs) / float64(rec.Refs))
		}
		met.boundaryToEmit.Observe(time.Since(boundaryStart).Seconds())
		met.addEnergy(led)
		if sh.rec != nil {
			rec.EmitNs = emitNs
			rec.Energy = led
			if sh.srv.coord != nil {
				rec.PowerW = float64(dec.Chosen.TotalPower)
				rec.BudgetW = sh.budgetW
				rec.OverBudget = dec.OverBudget
			}
			sh.rec.Record(rec)
		}
	}
	if every := sh.srv.cfg.SnapshotEvery; every > 0 && sh.srv.cfg.SnapshotPath != "" && idx%every == 0 {
		sh.ckptDue = true
		sh.ckptPeriod = idx
	}
	if sh.srv.coord != nil && idx%sh.srv.cfg.FleetEpoch == 0 {
		// Keyed to the shard's own period index — which the snapshot
		// persists — so the epoch cadence survives a warm restart.
		sh.fleetDue = true
	}
	return nil
}

// state captures the shard's snapshot payload, with any budget an epoch
// published since the last boundary installed first. Called with sh.mu
// held; the controller's checkpoint copies the period log, so an
// ingesting connection is stalled for a memcpy while a checkpoint marks
// the shard.
func (sh *Shard) state() shardState {
	sh.installBudget()
	return shardState{
		Name:            sh.name,
		Consumed:        sh.consumed,
		NextBoundary:    float64(sh.nextBoundary),
		Misses:          sh.misses,
		ReqRuns:         sh.reqRuns,
		ControllerState: sh.ctl.State(),
		RefitDrift:      sh.ctl.Manager().Params().RefitDriftFrac,
		BudgetW:         sh.budgetW,
		Mode:            snapModeStreamed,
	}
}

// restore rehydrates the shard from a snapshot payload. Called before
// the shard starts ingesting.
func (sh *Shard) restore(st shardState) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st.Periods < 0 || st.Consumed < 0 || st.Refs < 0 || st.Misses < 0 || st.ReqRuns < 0 {
		return fmt.Errorf("serve: shard %s: negative counters in snapshot", st.Name)
	}
	if nb := simtime.Seconds(st.NextBoundary); !(nb > 0) || !(nb+sh.srv.cfg.Period > nb) {
		// Also rejects +Inf and boundaries so large that adding a period
		// no longer advances them: closing a period must move the
		// boundary forward.
		return fmt.Errorf("serve: shard %s: invalid period boundary %g", st.Name, st.NextBoundary)
	}
	// The controller replays the partial period into its manager —
	// ingest is deterministic, so the histogram and gap log land exactly
	// where the checkpointed run had them. A snapshot cut by a streaming
	// daemon recorded its ingested reference count, which the replay must
	// reproduce; files cut in the retired batch mode carry no count and
	// restore the same way.
	got, err := sh.ctl.Restore(st.ControllerState)
	if err != nil {
		return fmt.Errorf("serve: shard %s: %w", st.Name, err)
	}
	if st.Mode == snapModeStreamed && got != st.IngestedRefs {
		return fmt.Errorf("serve: shard %s: ingested state mismatch: replayed %d refs, snapshot recorded %d", st.Name, got, st.IngestedRefs)
	}
	mgr := sh.ctl.Manager()
	sh.publishDemand()
	// A budget an epoch published before the restore is superseded by
	// the snapshot's, as if the epoch had installed it at once.
	sh.installBudget()
	if st.RefitDrift >= 0 {
		// The snapshot records the drift-hold fraction the checkpointed
		// daemon ran with; adopt it so a warm restart keeps the mode even
		// when the new process's flags differ. Pre-v3 snapshots carry -1
		// and leave the configured value alone.
		mgr.SetRefitDriftFrac(st.RefitDrift)
	}
	if st.BudgetW > 0 {
		// Resume the fleet budget the checkpointed daemon was running
		// under, so capped decisions between the restart and the next
		// reallocation epoch match the uninterrupted run bit-identically.
		// Pre-v4 snapshots decode 0 and leave the shard uncapped until the
		// first epoch.
		sh.budgetW = st.BudgetW
		mgr.SetPowerBudget(st.BudgetW)
	}
	sh.consumed = st.Consumed
	sh.nextBoundary = simtime.Seconds(st.NextBoundary)
	sh.misses = st.Misses
	sh.reqRuns = st.ReqRuns
	return nil
}
