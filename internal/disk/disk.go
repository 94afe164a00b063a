// Package disk implements the hard-disk substrate: a single-spindle
// discrete-event model with a service-time/bandwidth model, an FCFS
// queue, and the four-mode power model of the paper's Seagate Barracuda
// IDE drive (Fig. 1(b)). It stands in for DiskSim 3.0, which the paper
// used for two things this model provides directly: a bandwidth table
// indexed by request size, and request latency under queueing and
// spin-up delays.
//
// Power accounting follows the paper's conventions: the disk consumes
// 12.5 W while serving requests (active), 7.5 W while spinning idle,
// 0.9 W in standby, and a flat 77.5 J for a round trip idle→standby→idle.
// The break-even time t_be = 77.5 / (7.5 − 0.9) = 11.7 s and the spin-up
// latency t_tr = 10 s follow. "Turning the disk off" means standby; the
// sleep mode saves nothing further (same 0.9 W) and is not entered.
package disk

import (
	"math"

	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

// Spec holds the drive's power and performance parameters.
type Spec struct {
	ActivePower  simtime.Watts // serving requests
	IdlePower    simtime.Watts // spinning, no requests
	StandbyPower simtime.Watts // spun down
	// TransitionEnergy is the extra energy of one idle→standby→idle round
	// trip, beyond what standby power accounts for over the same span.
	TransitionEnergy simtime.Joules
	SpinUpTime       simtime.Seconds // t_tr: delay serving a request that finds the disk in standby

	SeekTime          simtime.Seconds // average seek
	RotationalLatency simtime.Seconds // average rotational delay (half a revolution)
	TransferRate      float64         // sustained media rate, bytes/second
}

// Barracuda returns the Seagate Barracuda 7200.7 IDE parameters the paper
// uses: 12.5/7.5/0.9 W, 77.5 J round trip, 10 s spin-up, and a mechanical
// model (8.5 ms seek, 4.16 ms rotational latency at 7200 rpm, 58 MB/s
// media rate) consistent with the drive's datasheet.
func Barracuda() Spec {
	return Spec{
		ActivePower:       12.5,
		IdlePower:         7.5,
		StandbyPower:      0.9,
		TransitionEnergy:  77.5,
		SpinUpTime:        10,
		SeekTime:          8.5e-3,
		RotationalLatency: 4.16e-3,
		TransferRate:      58 * float64(simtime.MB),
	}
}

// StaticPower returns p_d, the power saved by standby relative to idle —
// the paper's "static power" of 6.6 W.
func (s Spec) StaticPower() simtime.Watts {
	return s.IdlePower - s.StandbyPower
}

// DynamicPower returns the power added by serving requests over idling
// (12.5 − 7.5 = 5 W).
func (s Spec) DynamicPower() simtime.Watts {
	return s.ActivePower - s.IdlePower
}

// BreakEven returns t_be = transition energy / static power.
func (s Spec) BreakEven() simtime.Seconds {
	return simtime.Seconds(float64(s.TransitionEnergy) / float64(s.StaticPower()))
}

// ServiceTime returns the time to serve one request of the given size:
// average seek + rotational latency + media transfer.
func (s Spec) ServiceTime(size simtime.Bytes) simtime.Seconds {
	if size < 0 {
		size = 0
	}
	return s.SeekTime + s.RotationalLatency + simtime.Seconds(float64(size)/s.TransferRate)
}

// Bandwidth returns the effective bandwidth (bytes/second) at the given
// request size — the "bandwidth table indexed by request sizes" the power
// managers consult (paper Section V-A).
func (s Spec) Bandwidth(size simtime.Bytes) float64 {
	if size <= 0 {
		return 0
	}
	return float64(size) / float64(s.ServiceTime(size))
}

// SpeedLevel is one rotational-speed step of a multi-RPM (DRPM) drive
// ladder, in the spirit of Gurumurthi et al.: idle power scales with the
// square of the speed ratio, transfer rate linearly, rotational latency
// inversely. The ladder itself is derived by internal/drpm (DeriveLevels)
// and consumed here and by the joint manager's candidate slate
// (core.Params.SpeedLevels); the type lives in this package so core does
// not need to import drpm.
type SpeedLevel struct {
	RPM          int
	IdlePower    simtime.Watts
	ActivePower  simtime.Watts
	TransferRate float64         // bytes/second at this speed
	RotLatency   simtime.Seconds // average rotational delay
}

// State is the disk's power state.
type State int

// Disk power states. Active and idle both have the spindle turning; the
// model distinguishes them only for energy accounting.
const (
	StateIdle State = iota
	StateActive
	StateStandby
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateActive:
		return "active"
	case StateStandby:
		return "standby"
	default:
		return "unknown"
	}
}

// Metrics holds the disk's optional telemetry instruments. Each field
// may independently be nil (a no-op); the zero Metrics disables
// everything. SpinDowns counts idle→standby transitions, SpinUps counts
// standby→idle wake-ups (always paired with a spin-up delay on the
// triggering request), and IdleGaps observes every closed idle-interval
// length in seconds.
type Metrics struct {
	SpinDowns *obs.Counter
	SpinUps   *obs.Counter
	IdleGaps  *obs.Histogram
}

// FaultInjector injects deterministic failures into the disk model (see
// internal/fault). A nil injector is the fault-free disk; with one
// attached, every standby→idle transition and every request consults it.
// Injectors must be deterministic given the submission order — the
// simulator replays runs bit-identically and the fault layer must not
// break that.
type FaultInjector interface {
	// SpinUpAttempt is consulted once per standby→idle transition at
	// simulated time t. It returns how many spin-up attempts failed
	// before the successful one and the per-attempt backoff delay; the
	// disk stays in standby for retries·backoff before the real spin-up
	// starts. Implementations must bound retries — the disk model
	// guarantees the final attempt succeeds, so a request can be
	// delayed by faults but never lost and the disk never wedges in
	// the down state.
	SpinUpAttempt(t simtime.Seconds) (retries int, backoff simtime.Seconds)
	// ServiceDelay returns extra service time injected into the request
	// arriving at t (a transient read-latency spike). It is added to
	// the mechanical service time, so it counts as busy time in the
	// utilization and energy accounting.
	ServiceDelay(t simtime.Seconds) simtime.Seconds
}

// Observer receives power-relevant disk events. The adaptive-timeout
// policy subscribes to tune its timeout from observed idleness.
type Observer interface {
	// IdleEnded reports that an idle gap of the given length ended with a
	// new request. spunDown reports whether the timeout expired during the
	// gap (so the request paid the spin-up delay).
	IdleEnded(idle simtime.Seconds, spunDown bool)
}

// Stats accumulates disk activity and energy over a span of time.
type Stats struct {
	Requests     int64
	BytesMoved   simtime.Bytes
	BusyTime     simtime.Seconds
	OnTime       simtime.Seconds // spinning (idle or active)
	StandbyTime  simtime.Seconds
	SpinDowns    int64
	TotalLatency simtime.Seconds
	MaxLatency   simtime.Seconds
	Delayed      int64 // requests with latency above the long-latency threshold
	IdleSum      simtime.Seconds
	IdleCount    int64
}

// Sub returns the difference s − o, used to window per-period stats out
// of cumulative counters.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Requests:     s.Requests - o.Requests,
		BytesMoved:   s.BytesMoved - o.BytesMoved,
		BusyTime:     s.BusyTime - o.BusyTime,
		OnTime:       s.OnTime - o.OnTime,
		StandbyTime:  s.StandbyTime - o.StandbyTime,
		SpinDowns:    s.SpinDowns - o.SpinDowns,
		TotalLatency: s.TotalLatency - o.TotalLatency,
		MaxLatency:   s.MaxLatency, // max is not windowable; keep cumulative
		Delayed:      s.Delayed - o.Delayed,
		IdleSum:      s.IdleSum - o.IdleSum,
		IdleCount:    s.IdleCount - o.IdleCount,
	}
}

// MeanIdle returns the average observed idle-interval length.
func (s Stats) MeanIdle() simtime.Seconds {
	if s.IdleCount == 0 {
		return 0
	}
	return s.IdleSum / simtime.Seconds(s.IdleCount)
}

// Disk is the simulated drive. It is event-driven: Submit advances its
// internal timeline to each request's arrival, materialising any timeout
// expiry that happened in between.
type Disk struct {
	spec    Spec
	timeout simtime.Seconds // spin-down timeout; math.Inf(1) disables spin-down
	longLat simtime.Seconds // latency threshold counted as "delayed"

	state     State
	now       simtime.Seconds // timeline high-water mark
	idleSince simtime.Seconds // when the current idle gap began (state != active)
	freeAt    simtime.Seconds // when the queue drains

	stats    Stats
	observer Observer
	metrics  Metrics
	faults   FaultInjector

	idleRecorder func(simtime.Seconds) // optional sink for raw idle intervals

	// Multi-speed (DRPM) state. levels == nil is the classic single-speed
	// drive and leaves every code path above bit-identical; with a ladder
	// attached, on/busy time is additionally attributed per level so
	// Energy can price each second at its level's power constants.
	levels           []SpeedLevel
	transPerRPM      simtime.Seconds // speed-change time per RPM of difference
	level            int             // current ladder index (0 = full speed)
	levelOn          []simtime.Seconds
	levelBusy        []simtime.Seconds
	speedTransJ      simtime.Joules // energy spent changing speeds
	speedTransitions int64
}

// New creates a spinning, idle disk at time 0 with spin-down disabled
// (timeout +Inf) until a policy sets one.
func New(spec Spec, longLatency simtime.Seconds) *Disk {
	return &Disk{
		spec:    spec,
		timeout: simtime.Seconds(math.Inf(1)),
		longLat: longLatency,
		state:   StateIdle,
	}
}

// Spec returns the drive parameters.
func (d *Disk) Spec() Spec { return d.spec }

// Timeout returns the current spin-down timeout.
func (d *Disk) Timeout() simtime.Seconds { return d.timeout }

// SetObserver registers the single observer for idle-end events.
func (d *Disk) SetObserver(o Observer) { d.observer = o }

// SetMetrics attaches telemetry instruments (see Metrics). Passing the
// zero Metrics detaches them.
func (d *Disk) SetMetrics(m Metrics) { d.metrics = m }

// SetFaults attaches a fault injector (nil detaches it and restores the
// fault-free disk).
func (d *Disk) SetFaults(f FaultInjector) { d.faults = f }

// SetIdleRecorder registers a sink that receives every idle-interval
// length as it closes (used by Fig. 9 instrumentation).
func (d *Disk) SetIdleRecorder(f func(simtime.Seconds)) { d.idleRecorder = f }

// SetTimeout updates the spin-down timeout at simulated time t. If the
// disk is already idle and the new timeout has retroactively expired, the
// disk spins down at t (not in the past — the decision is made at t).
func (d *Disk) SetTimeout(t, timeout simtime.Seconds) {
	d.advance(t)
	d.timeout = timeout
	if d.state == StateIdle && d.now-d.idleSince >= timeout {
		d.spinDownAt(d.now)
	}
}

// advance moves the timeline to t, materialising a pending spin-down if
// the timeout expired within the advanced span.
func (d *Disk) advance(t simtime.Seconds) {
	if t <= d.now {
		return
	}
	if d.state == StateIdle {
		expiry := d.idleSince + d.timeout
		if expiry <= t {
			d.spinDownAt(expiry)
		}
	}
	switch d.state {
	case StateIdle, StateActive:
		d.accrueOn(t - d.now)
	case StateStandby:
		d.stats.StandbyTime += t - d.now
	}
	d.now = t
}

// accrueOn adds spinning time, attributing it to the current speed level
// when a ladder is attached.
func (d *Disk) accrueOn(dt simtime.Seconds) {
	d.stats.OnTime += dt
	if d.levels != nil {
		d.levelOn[d.level] += dt
	}
}

// accrueBusy adds service time, attributing it to the current speed level
// when a ladder is attached.
func (d *Disk) accrueBusy(dt simtime.Seconds) {
	d.stats.BusyTime += dt
	if d.levels != nil {
		d.levelBusy[d.level] += dt
	}
}

// spinDownAt transitions idle→standby at time ts (ts ≥ d.now is not
// required; ts may equal an expiry between d.now and the advancing
// target, in which case on-time up to ts is accounted first).
func (d *Disk) spinDownAt(ts simtime.Seconds) {
	if ts > d.now {
		d.accrueOn(ts - d.now)
		d.now = ts
	}
	d.state = StateStandby
	d.stats.SpinDowns++
	d.metrics.SpinDowns.Inc()
}

// Submit offers a request to the disk at its arrival time and returns its
// completion time and latency. Requests must be submitted in arrival
// order. A request that finds the disk in standby pays the spin-up delay;
// a request that finds it busy queues FCFS.
func (d *Disk) Submit(arrival simtime.Seconds, size simtime.Bytes) (finish, latency simtime.Seconds) {
	return d.submitWithService(arrival, size, d.serviceTime(size))
}

// serviceTime returns the mechanical service time at the current speed
// level. Without a ladder (or at full speed) it is exactly the spec's
// model, keeping the single-speed path bit-identical.
func (d *Disk) serviceTime(size simtime.Bytes) simtime.Seconds {
	if d.levels == nil || d.level == 0 {
		return d.spec.ServiceTime(size)
	}
	if size < 0 {
		size = 0
	}
	l := d.levels[d.level]
	return d.spec.SeekTime + l.RotLatency + simtime.Seconds(float64(size)/l.TransferRate)
}

// submitWithService is Submit with an externally computed service time
// (the zoned model supplies location-dependent times).
func (d *Disk) submitWithService(arrival simtime.Seconds, size simtime.Bytes, service simtime.Seconds) (finish, latency simtime.Seconds) {
	d.advance(arrival) // accounts on/standby time up to arrival, incl. timeout expiry
	if d.faults != nil {
		if extra := d.faults.ServiceDelay(arrival); extra > 0 {
			service += extra
		}
	}

	start := arrival
	if d.freeAt > start {
		start = d.freeAt // queued behind earlier requests
	}
	// Idle-gap bookkeeping. The observer notification is deferred to the
	// end of Submit: policies react by setting timeouts, and doing that
	// mid-service would let a zero timeout spin the disk down underneath
	// the request being served.
	notify := false
	var gap simtime.Seconds
	var spunDown bool
	switch {
	case d.state == StateStandby:
		// The idle gap ran from the last completion through this arrival;
		// the request additionally waits out the spin-up.
		notify, gap, spunDown = true, arrival-d.idleSince, true
		if d.faults != nil {
			if retries, backoff := d.faults.SpinUpAttempt(arrival); retries > 0 {
				// Failed attempts leave the platter down: the retry window
				// is standby time, not spinning time, and the request waits
				// it out in front of the real spin-up.
				delay := simtime.Seconds(retries) * backoff
				d.stats.StandbyTime += delay
				d.now += delay
				start += delay
			}
		}
		start += d.spec.SpinUpTime
		d.state = StateIdle
		d.metrics.SpinUps.Inc()
	case arrival > d.idleSince:
		// Genuine idle gap (the queue was empty when this request arrived).
		notify, gap, spunDown = true, arrival-d.idleSince, false
	}

	finish = start + service
	latency = finish - arrival

	// The span [now, finish) is spinning time: spin-up (if any), queueing
	// behind earlier requests (already accounted by their Submit calls —
	// the now guard prevents double counting), and this service.
	if finish > d.now {
		d.accrueOn(finish - d.now)
		d.now = finish
	}
	d.accrueBusy(service)
	d.stats.Requests++
	d.stats.BytesMoved += size
	d.stats.TotalLatency += latency
	if latency > d.stats.MaxLatency {
		d.stats.MaxLatency = latency
	}
	if latency > d.longLat {
		d.stats.Delayed++
	}
	d.idleSince = finish
	if d.freeAt < finish {
		d.freeAt = finish
	}
	if notify {
		d.recordIdle(gap, spunDown)
	}
	return finish, latency
}

// recordIdle publishes a closed idle interval to stats and subscribers.
func (d *Disk) recordIdle(idle simtime.Seconds, spunDown bool) {
	if idle < 0 {
		idle = 0
	}
	d.stats.IdleSum += idle
	d.stats.IdleCount++
	d.metrics.IdleGaps.Observe(float64(idle))
	if d.idleRecorder != nil {
		d.idleRecorder(idle)
	}
	if d.observer != nil {
		d.observer.IdleEnded(idle, spunDown)
	}
}

// SetSpeedLevels attaches a DRPM speed ladder (level 0 must be full
// speed, matching the spec) and the per-RPM speed-change time. An empty
// ladder detaches multi-speed support, restoring the exact single-speed
// code paths. The drive starts (or resets to) full speed.
func (d *Disk) SetSpeedLevels(levels []SpeedLevel, perRPM simtime.Seconds) {
	if len(levels) == 0 {
		d.levels, d.levelOn, d.levelBusy = nil, nil, nil
		d.level = 0
		return
	}
	d.levels = append([]SpeedLevel(nil), levels...)
	d.transPerRPM = perRPM
	d.level = 0
	d.levelOn = make([]simtime.Seconds, len(levels))
	d.levelBusy = make([]simtime.Seconds, len(levels))
}

// SetSpeedLevel changes the rotational speed at simulated time t. A
// no-op without a ladder or when lvl is the current level; out-of-range
// levels are clamped. A speed change on a spinning drive starts at t and
// takes transPerRPM·|ΔRPM|, during which it draws the higher of the two
// levels' idle powers and the platter is unavailable: no request starts
// service before t plus that time. A request already in service at t
// keeps its completion time (the change overlaps its tail). Changing
// "speed" while in standby just retargets the level the next spin-up
// arrives at, with no extra cost (the platter is not turning).
func (d *Disk) SetSpeedLevel(t simtime.Seconds, lvl int) {
	if d.levels == nil {
		return
	}
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= len(d.levels) {
		lvl = len(d.levels) - 1
	}
	d.advance(t)
	if lvl == d.level {
		return
	}
	if d.state != StateStandby {
		diff := d.levels[lvl].RPM - d.levels[d.level].RPM
		if diff < 0 {
			diff = -diff
		}
		tt := d.transPerRPM * simtime.Seconds(diff)
		hi := d.levels[d.level].IdlePower
		if d.levels[lvl].IdlePower > hi {
			hi = d.levels[lvl].IdlePower
		}
		d.speedTransJ += simtime.Energy(hi, tt)
		d.speedTransitions++
		if t+tt > d.freeAt {
			d.freeAt = t + tt
		}
	}
	d.level = lvl
}

// SpeedLevel returns the current ladder index (0 without a ladder).
func (d *Disk) SpeedLevel() int { return d.level }

// SpeedTransitions returns how many speed changes were materialised on a
// spinning platter.
func (d *Disk) SpeedTransitions() int64 { return d.speedTransitions }

// FinishTo advances the timeline to t (typically the end of simulation or
// a period boundary) so trailing idle/standby time is accounted.
func (d *Disk) FinishTo(t simtime.Seconds) { d.advance(t) }

// State returns the disk's power state at the timeline high-water mark.
// Because Submit advances the timeline through each request's completion,
// the observable states are idle and standby; StateActive appears only in
// energy accounting (busy time), never as a resting state.
func (d *Disk) State() State { return d.state }

// Now returns the timeline high-water mark.
func (d *Disk) Now() simtime.Seconds { return d.now }

// Stats returns a copy of the cumulative counters.
func (d *Disk) Stats() Stats { return d.stats }

// Energy returns the cumulative energy consumption decomposed as the
// paper does: dynamic (active over idle), static-on (idle over standby,
// the component spin-down saves), standby floor, and transition energy.
func (d *Disk) Energy() Energy {
	total := d.stats.OnTime + d.stats.StandbyTime
	if d.levels == nil {
		return Energy{
			Dynamic:    simtime.Energy(d.spec.DynamicPower(), d.stats.BusyTime),
			StaticOn:   simtime.Energy(d.spec.StaticPower(), d.stats.OnTime),
			Floor:      simtime.Energy(d.spec.StandbyPower, total),
			Transition: simtime.Joules(float64(d.stats.SpinDowns)) * d.spec.TransitionEnergy,
		}
	}
	// Multi-speed drive: price each level's residency at its own
	// constants. Speed-change energy joins the transition component.
	var e Energy
	for i, l := range d.levels {
		e.Dynamic += simtime.Energy(l.ActivePower-l.IdlePower, d.levelBusy[i])
		e.StaticOn += simtime.Energy(l.IdlePower-d.spec.StandbyPower, d.levelOn[i])
	}
	e.Floor = simtime.Energy(d.spec.StandbyPower, total)
	e.Transition = simtime.Joules(float64(d.stats.SpinDowns))*d.spec.TransitionEnergy + d.speedTransJ
	return e
}

// OracleGapEnergy returns the energy an offline-optimal ("oracle")
// power manager spends on one idle gap, beyond the standby floor: it
// spins down at the instant the gap starts iff the gap exceeds the
// break-even time, so the cost is min(p_d·gap, E_transition). Summed over
// a run's gaps this is the lower bound the paper's timeout policies are
// measured against (the 2-competitive policy is within 2× of it).
func (s Spec) OracleGapEnergy(gap simtime.Seconds) simtime.Joules {
	if gap < 0 {
		return 0
	}
	on := simtime.Energy(s.StaticPower(), gap)
	if on < s.TransitionEnergy {
		return on
	}
	return s.TransitionEnergy
}

// Energy is the disk's energy breakdown.
type Energy struct {
	Dynamic    simtime.Joules // serving requests (above idle power)
	StaticOn   simtime.Joules // spinning (above standby power)
	Floor      simtime.Joules // standby floor over the whole span
	Transition simtime.Joules // spin-down/up round trips
}

// Total returns the sum of all components.
func (e Energy) Total() simtime.Joules {
	return e.Dynamic + e.StaticOn + e.Floor + e.Transition
}

// Sub returns the component-wise difference e − o.
func (e Energy) Sub(o Energy) Energy {
	return Energy{
		Dynamic:    e.Dynamic - o.Dynamic,
		StaticOn:   e.StaticOn - o.StaticOn,
		Floor:      e.Floor - o.Floor,
		Transition: e.Transition - o.Transition,
	}
}
