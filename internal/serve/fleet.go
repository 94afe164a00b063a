package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"time"

	"jointpm/internal/fleet"
)

// This file wires the fleet power-cap coordinator (internal/fleet) into
// the daemon: demand and budget publication, the reallocation epoch,
// and the /debug/fleet query surface. Everything is a no-op when the
// server was built without a cap (s.coord == nil), so the uncapped
// daemon is byte-identical to a build without the layer.
//
// A shard and an epoch meet only through two atomics on the shard. The
// shard publishes its demand, max(floor, last decision's priced power),
// whenever its manager's last decision changes; the epoch publishes a
// budget back, which the shard installs under its own lock before it
// next decides, snapshots or reports status. So an epoch takes no shard
// lock: it is O(shards) loads and stores on dense reused arrays.

// noBudget marks a shard's published budget as already installed. No
// solve produces it: it is a NaN bit pattern.
const noBudget = math.MaxUint64

// FleetEnabled reports whether a global power cap is active.
func (s *Server) FleetEnabled() bool { return s.coord != nil }

// publishDemand offers the shard's current demand to the next epoch.
// Called with sh.mu held whenever the manager's last decision changes;
// a no-op when uncapped.
func (sh *Shard) publishDemand() {
	if sh.srv.coord == nil {
		return
	}
	w := sh.srv.floorW
	if p := sh.ctl.Manager().LastPowerW(); p > w {
		w = p
	}
	sh.demandBits.Store(math.Float64bits(w))
}

// installBudget installs the budget an epoch published since the last
// install: 0 or +Inf clears the constraint (the manager sanitises),
// anything else caps the slate. Called with sh.mu held; a no-op when
// uncapped.
func (sh *Shard) installBudget() {
	if sh.srv.coord == nil {
		return
	}
	bits := sh.budgetBits.Swap(noBudget)
	if bits == noBudget {
		return
	}
	w := math.Float64frombits(bits)
	if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
		sh.budgetW = w
	} else {
		sh.budgetW = 0
	}
	sh.ctl.Manager().SetPowerBudget(w)
}

// fleetEpochLocked drains an armed fleet reallocation at a period
// boundary. It runs between closePeriod calls — never mid-request — so
// the next period decides under the budget this epoch solved, at the
// same point in the stream regardless of how the caller batches ingest
// (one request, a ring drain block, or a FinishTo catch-up). The epoch
// takes no shard lock, so it runs under sh.mu. With introspection
// enabled its wall time lands in serve.fleet_epoch_wall_s and on the
// period record that armed it.
func (sh *Shard) fleetEpochLocked() {
	if !sh.fleetDue {
		return
	}
	sh.fleetDue = false
	if !sh.timed {
		sh.srv.runEpoch()
		return
	}
	start := time.Now()
	sh.srv.runEpoch()
	ns := time.Since(start).Nanoseconds()
	sh.srv.met.fleetEpochWall.Observe(float64(ns) / 1e9)
	sh.rec.AmendEpoch(sh.name, sh.ctl.Periods(), ns)
}

// runEpoch runs one reallocation epoch; epochs are serialised.
func (s *Server) runEpoch() {
	s.fleetMu.Lock()
	s.epochLocked()
	s.fleetMu.Unlock()
}

// epochLocked collects every shard's published demand into a dense
// array, lets the coordinator solve it (honouring any injected drop and
// late faults), and publishes each shard's budget. Called with fleetMu
// held; allocates nothing once the arrays have grown to the shard
// count.
func (s *Server) epochLocked() {
	s.mu.Lock()
	shards := s.list
	s.mu.Unlock()
	n := len(shards)
	if cap(s.epochDemand) < n {
		s.epochDemand = make([]float64, n, cap(shards))
		s.epochBudget = make([]float64, n, cap(shards))
	}
	demand, budget := s.epochDemand[:n], s.epochBudget[:n]
	for i, sh := range shards {
		demand[i] = math.Float64frombits(sh.demandBits.Load())
	}
	s.coord.Collect(demand, budget, s.cfg.Injector)
	for i, sh := range shards {
		sh.budgetBits.Store(math.Float64bits(budget[i]))
	}
	s.met.fleetEpochs.Inc()
}

// FleetReallocate runs one reallocation epoch — the one a shard's
// boundary runs when it hits the epoch cadence — and returns a copy of
// its assignments in shard creation order. Callers that want budgets
// installed before ingest begins call it once the shards exist. No-op
// without a coordinator.
func (s *Server) FleetReallocate() []fleet.Assignment {
	if s.coord == nil {
		return nil
	}
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	s.epochLocked()
	return s.coord.Latest()
}

// FleetStatus is the /debug/fleet payload.
type FleetStatus struct {
	PowerCapW   float64            `json:"power_cap_w"`
	FloorW      float64            `json:"floor_w"`
	Epoch       int64              `json:"epoch"`
	Assignments []fleet.Assignment `json:"assignments"`
}

// FleetHandler serves the coordinator's latest solve as JSON (mounted
// at /debug/fleet). Without a cap it answers 404 — the endpoint only
// exists when the coordinator does. Nil-safe: a nil *Server also 404s,
// so a mux can mount it unconditionally.
func (s *Server) FleetHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if s == nil || s.coord == nil {
			http.Error(w, "fleet coordinator disabled (no -power-cap-w)", http.StatusNotFound)
			return
		}
		st := FleetStatus{
			PowerCapW:   s.coord.CapW(),
			FloorW:      s.floorW,
			Epoch:       s.coord.Epoch(),
			Assignments: s.coord.Assignments(),
		}
		if st.Assignments == nil {
			st.Assignments = []fleet.Assignment{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
}
