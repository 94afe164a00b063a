package core

import (
	"time"

	"jointpm/internal/disk"
	"jointpm/internal/drpm"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/simtime"
)

// ControllerConfig is the host geometry and wiring a Controller derives
// its manager from. Hosts fill it from their own configuration; zero
// LongLatency keeps the Table II default.
type ControllerConfig struct {
	PageSize, BankSize, InstalledMem simtime.Bytes
	DiskSpec                         disk.Spec
	MemSpec                          mem.Spec
	Period, LongLatency              simtime.Seconds

	// SpeedLevels ≥ 2 prices a drpm.DeriveLevels ladder of that many
	// levels; Joint overlays its non-zero fields (MergeParams) after it.
	SpeedLevels    int
	Joint          *Params
	RefitDriftFrac float64
	Metrics        *obs.Registry
	DecisionTrace  *obs.DecisionSink

	// WarmupPeriods is how many boundaries discard their period before
	// the first decision.
	WarmupPeriods int
	// Timed takes a clock pair around every manager call; the host sets
	// it when a flight recorder or a metrics registry listens.
	Timed bool
	// RetainLog keeps the period's references after they reach the
	// manager, so a checkpoint can persist the partial period (State).
	RetainLog bool
}

// Params derives the manager parameters: Table II defaults for the
// geometry, the period, the speed ladder, the Joint overlay, and the
// host's drift, metrics and journal wiring.
func (c ControllerConfig) Params() Params {
	p := MergeParams(DefaultParams(c.PageSize, c.BankSize, int(c.InstalledMem/c.BankSize), c.DiskSpec, c.MemSpec),
		Params{Period: c.Period, LongLatency: c.LongLatency})
	if c.SpeedLevels > 1 {
		lad := drpm.DeriveLevels(c.DiskSpec, 0, c.SpeedLevels)
		p.SpeedLevels = lad.Levels
		p.SpeedTransitionPerRPM = lad.TransitionPerRPM
	}
	if c.Joint != nil {
		p = MergeParams(p, *c.Joint)
	}
	return MergeParams(p, Params{RefitDriftFrac: c.RefitDriftFrac, Metrics: c.Metrics, DecisionTrace: c.DecisionTrace})
}

// Controller is the per-disk loop of the paper's manager, shared by the
// simulator and the daemon: it annotates every page reference with its
// LRU stack depth, streams the records into the manager in blocks,
// counts the period's references, and at each boundary either discards
// the period (warmup) or decides (m, t_o) over it. The host measures
// the disk traffic behind the coalesce factor and applies the decision.
// A Controller is not safe for concurrent use.
type Controller struct {
	mgr   *Manager
	stack *lrusim.StackSim

	// block holds references not yet handed to the manager, from fed on;
	// with RetainLog the flushed prefix stays until the boundary.
	block []lrusim.DepthRecord
	fed   int

	refs    int64 // page references this period
	periods int64 // boundaries closed

	banks   int   // applied cache size in banks
	applied int64 // applied cache size in pages

	ingestNs int64 // manager ingest wall time this period (Timed only)

	cfg ControllerConfig
}

// ingestBlock bounds the queued references of a controller that does not
// retain its log: a full block reaches the manager in one IngestBatch
// call, large enough to amortise the batch entry point's per-call work,
// small enough to stay cache-resident. A log-retaining controller holds
// the whole period anyway; its references reach the manager when the
// host flushes (a shard does after every served run) and at the boundary.
const ingestBlock = 4096

// NewController derives the parameters, validates them, and starts the
// loop at the manager's safe default (all banks, t_be).
func NewController(c ControllerConfig) (*Controller, error) {
	mgr, err := NewManager(c.Params())
	if err != nil {
		return nil, err
	}
	last := mgr.Last()
	return &Controller{
		cfg:     c,
		mgr:     mgr,
		stack:   lrusim.NewStackSim(int(c.InstalledMem / c.PageSize)),
		banks:   last.Banks,
		applied: last.Pages,
	}, nil
}

// Manager returns the controller's manager for queries and settings
// (Last, Params, SetPowerBudget, SetRefitDriftFrac). Only the
// controller feeds it references or asks it to decide.
func (c *Controller) Manager() *Manager { return c.mgr }

// Periods returns how many boundaries the controller has closed.
func (c *Controller) Periods() int64 { return c.periods }

// Warming reports that the next Close discards its period.
func (c *Controller) Warming() bool { return c.periods < int64(c.cfg.WarmupPeriods) }

// Pages returns the applied cache size in pages.
func (c *Controller) Pages() int64 { return c.applied }

// SetApplied records the cache size the host actually achieved when it
// differs from the decision (a failed bank enable truncates it); the
// next observation prices growth from there.
func (c *Controller) SetApplied(banks int, pages int64) {
	c.banks, c.applied = banks, pages
}

// Reference looks page up in the LRU stack at time t, queues the depth
// record for the manager, and returns the depth (lrusim.Cold on a first
// touch).
func (c *Controller) Reference(t simtime.Seconds, page int64) int {
	depth := c.stack.Reference(page)
	c.block = append(c.block, lrusim.DepthRecord{Time: t, Page: page, Depth: depth, Bytes: c.cfg.PageSize})
	c.refs++
	if !c.cfg.RetainLog && len(c.block) == ingestBlock {
		c.Flush()
	}
	return depth
}

// Flush hands every queued reference to the manager. The controller
// flushes when a block fills (without RetainLog), at every boundary and
// before a checkpoint; a host may flush earlier.
func (c *Controller) Flush() {
	pend := c.block[c.fed:]
	if len(pend) == 0 {
		return
	}
	if c.cfg.Timed {
		start := time.Now()
		c.mgr.IngestBatch(pend)
		c.ingestNs += time.Since(start).Nanoseconds()
	} else {
		c.mgr.IngestBatch(pend)
	}
	if c.cfg.RetainLog {
		c.fed = len(c.block)
	} else {
		c.block = c.block[:0]
	}
}

// Close ends the period at end. misses and requests are the host's
// page-miss and disk-request counts for the period, the coalesce
// factor's inputs. A warmup boundary discards the period and returns
// the held decision; otherwise the manager decides and the decision
// becomes the applied size. The record carries the fields every host
// shares; Warmup is set exactly when the period was discarded, and
// IngestNs/DecideNs are zero unless the controller is timed.
func (c *Controller) Close(end simtime.Seconds, misses, requests int64) (Decision, flight.PeriodRecord) {
	c.Flush()
	warmup := c.Warming()
	c.periods++
	start := end - c.cfg.Period
	rec := flight.PeriodRecord{
		Period:   c.periods,
		StartS:   obs.Float(start),
		EndS:     obs.Float(end),
		Refs:     c.refs,
		IngestNs: c.ingestNs,
		Warmup:   warmup,
	}
	var dec Decision
	if warmup {
		c.mgr.DiscardPeriod()
		dec = c.mgr.Last()
	} else {
		coalesce := 1.0
		if requests > 0 {
			coalesce = float64(misses) / float64(requests)
		}
		o := Observation{
			CacheAccesses:  c.refs,
			CoalesceFactor: coalesce,
			PeriodStart:    start,
			PeriodEnd:      end,
			CurrentBanks:   c.banks,
		}
		if c.cfg.Timed {
			t0 := time.Now()
			dec = c.mgr.DecideIncremental(o)
			rec.DecideNs = time.Since(t0).Nanoseconds()
		} else {
			dec = c.mgr.DecideIncremental(o)
		}
		c.banks, c.applied = dec.Banks, dec.Pages
	}
	rec.Banks = dec.Banks
	rec.TimeoutS = obs.Float(dec.Timeout)
	rec.Fallback = dec.Fallback
	c.block, c.fed = c.block[:0], 0
	c.refs, c.ingestNs = 0, 0
	return dec, rec
}

// ControllerState is a controller's checkpoint: period counters, the
// applied size, the manager, the LRU stack and — with RetainLog — the
// partial period's references.
type ControllerState struct {
	Periods, Refs         int64
	Banks                 int
	Pages                 int64
	Manager               State
	StackPages            []int64
	StackRefs, StackColds int64
	Log                   []lrusim.DepthRecord
	// IngestedRefs is how many references the manager holds for the
	// partial period; a restore must reproduce it.
	IngestedRefs int64
}

// State flushes the queued references and captures the checkpoint. Log
// is a copy.
func (c *Controller) State() ControllerState {
	c.Flush()
	refs, colds := c.stack.Counters()
	return ControllerState{
		Periods:      c.periods,
		Refs:         c.refs,
		Banks:        c.banks,
		Pages:        c.applied,
		Manager:      c.mgr.Snapshot(),
		StackPages:   c.stack.SnapshotPages(),
		StackRefs:    refs,
		StackColds:   colds,
		Log:          append([]lrusim.DepthRecord(nil), c.block...),
		IngestedRefs: c.ingested(),
	}
}

// Restore rehydrates the controller from a checkpoint and replays the
// partial period's log into the manager. Ingest is deterministic, so the
// manager lands exactly where the checkpointed run had it; Restore
// returns how many references it then holds for the caller to check
// against st.IngestedRefs.
func (c *Controller) Restore(st ControllerState) (int64, error) {
	if err := c.mgr.Restore(st.Manager); err != nil {
		return 0, err
	}
	c.stack = lrusim.RestoreStackSim(int(c.cfg.InstalledMem/c.cfg.PageSize), st.StackPages, st.StackRefs, st.StackColds)
	c.periods = st.Periods
	c.refs = st.Refs
	c.banks, c.applied = st.Banks, st.Pages
	c.block = append(c.block[:0], st.Log...)
	c.fed = 0
	c.Flush()
	c.ingestNs = 0 // the replay is restore work, not the period's ingest
	return c.ingested(), nil
}

// ingested is how many references the manager holds for the period.
func (c *Controller) ingested() int64 {
	if h := c.mgr.Hist(); h != nil {
		return h.Refs()
	}
	return 0
}
