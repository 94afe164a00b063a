package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

// VerifyDecisions runs a joint-method configuration with a decision
// journal attached (replacing any configured DecisionTrace), then
// re-decides every journaled period with a fresh core.Manager through
// Decide over that period's whole depth log, rebuilt from the trace by an
// independent LRU stack and fed the journaled calibration inputs. The
// engine streams references into its manager in blocks, discards warmup
// periods and decides at each boundary; the replay hands every period
// over whole. The two journals agreeing byte for byte shows the engine
// feeds the manager exactly each period's references. It returns the
// run's result, or an error naming the first record that differs.
func VerifyDecisions(c Config) (*Result, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	if !cfg.Method.IsJoint() {
		return nil, fmt.Errorf("sim: verify: method %s runs no joint manager", cfg.Method.Name())
	}
	// One journal record per period boundary up to the run's end (see
	// run); a queue that holds them all can never drop one.
	reqs := cfg.Trace.Requests
	end := cfg.Trace.Duration
	if n := len(reqs); n > 0 && reqs[n-1].Time > end {
		end = reqs[n-1].Time
	}
	depth := int(end/cfg.Period) + 1
	var engineJ, replayJ bytes.Buffer
	sink := obs.NewDecisionSink(&engineJ, depth)
	run := c
	run.DecisionTrace = sink
	res, err := Run(run)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if n := sink.Dropped(); n != 0 {
		return nil, fmt.Errorf("sim: verify: journal dropped %d records", n)
	}

	// The engine's controller derives the manager's parameters from the
	// config; derive them the same way, detached from its telemetry.
	p := controllerConfig(cfg).Params()
	p.Metrics = nil
	replaySink := obs.NewDecisionSink(&replayJ, depth)
	p.DecisionTrace = replaySink
	mgr, err := core.NewManager(p)
	if err != nil {
		return nil, err
	}

	stack := lrusim.NewStackSim(int(cfg.InstalledMem / cfg.Trace.PageSize))
	next := 0
	var log []lrusim.DepthRecord
	sc := bufio.NewScanner(bytes.NewReader(engineJ.Bytes()))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec obs.DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("sim: verify: journal record: %w", err)
		}
		o := rec.Observation
		start, end := simtime.Seconds(o.PeriodStart), simtime.Seconds(o.PeriodEnd)
		// Every request feeds the stack — warmup periods included — but
		// only the journaled period's references form its log.
		log = log[:0]
		for ; next < len(reqs) && reqs[next].Time < end; next++ {
			r := &reqs[next]
			for k := int32(0); k < r.Pages; k++ {
				page := r.FirstPage + int64(k)
				depth := stack.Reference(page)
				if r.Time >= start {
					log = append(log, lrusim.DepthRecord{Time: r.Time, Page: page, Depth: depth, Bytes: cfg.Trace.PageSize})
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
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := replaySink.Close(); err != nil {
		return nil, err
	}
	got := bytes.Split(engineJ.Bytes(), []byte("\n"))
	want := bytes.Split(replayJ.Bytes(), []byte("\n"))
	for i := 0; i < len(got) && i < len(want); i++ {
		if !bytes.Equal(got[i], want[i]) {
			return nil, fmt.Errorf("sim: verify: decision %d differs\nengine: %s\nreplay: %s", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return nil, fmt.Errorf("sim: verify: engine journaled %d decisions, replay %d", len(got)-1, len(want)-1)
	}
	return res, nil
}
