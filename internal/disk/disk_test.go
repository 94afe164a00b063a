package disk

import (
	"math"
	"testing"

	"jointpm/internal/simtime"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBarracudaConstants(t *testing.T) {
	s := Barracuda()
	if got := s.StaticPower(); !almost(float64(got), 6.6, 1e-9) {
		t.Errorf("static power = %v, want 6.6 W", got)
	}
	if got := s.DynamicPower(); !almost(float64(got), 5, 1e-9) {
		t.Errorf("dynamic power = %v, want 5 W", got)
	}
	// Paper: t_be = 77.5 / 6.6 = 11.7 s.
	if got := s.BreakEven(); !almost(float64(got), 11.742, 0.01) {
		t.Errorf("break-even = %v, want ~11.7 s", got)
	}
}

func TestServiceTimeAndBandwidth(t *testing.T) {
	s := Barracuda()
	small := s.ServiceTime(4 * simtime.KB)
	if small <= s.SeekTime {
		t.Error("service time missing mechanical overhead")
	}
	big := s.ServiceTime(16 * simtime.MB)
	if big <= small {
		t.Error("service time not increasing in size")
	}
	// Bandwidth approaches the media rate for large requests and is tiny
	// for small ones.
	if bw := s.Bandwidth(64 * simtime.MB); bw < 0.9*s.TransferRate {
		t.Errorf("large-request bandwidth %g too low", bw)
	}
	if bw := s.Bandwidth(4 * simtime.KB); bw > 0.01*s.TransferRate {
		t.Errorf("small-request bandwidth %g too high", bw)
	}
	if s.Bandwidth(0) != 0 {
		t.Error("Bandwidth(0) != 0")
	}
}

func TestAlwaysOnNeverSpinsDown(t *testing.T) {
	d := New(Barracuda(), 0.5)
	d.Submit(0, simtime.MB)
	d.FinishTo(10000)
	st := d.Stats()
	if st.SpinDowns != 0 {
		t.Fatalf("spin-downs = %d", st.SpinDowns)
	}
	if d.State() != StateIdle {
		t.Fatalf("state = %v", d.State())
	}
	// Energy: all on-time at idle power + one short service burst.
	e := d.Energy()
	if e.Floor <= 0 || e.StaticOn <= 0 || e.Transition != 0 {
		t.Errorf("energy breakdown %+v", e)
	}
}

func TestTimeoutSpinDown(t *testing.T) {
	d := New(Barracuda(), 0.5)
	d.SetTimeout(0, 10)
	d.Submit(0, simtime.MB)
	d.FinishTo(100)
	if d.State() != StateStandby {
		t.Fatalf("state = %v, want standby", d.State())
	}
	st := d.Stats()
	if st.SpinDowns != 1 {
		t.Fatalf("spin-downs = %d", st.SpinDowns)
	}
	// On-time = service + 10 s timeout; standby = the rest.
	service := float64(Barracuda().ServiceTime(simtime.MB))
	if !almost(float64(st.OnTime), service+10, 1e-9) {
		t.Errorf("on time = %v, want %g", st.OnTime, service+10)
	}
	if !almost(float64(st.StandbyTime), 100-service-10, 1e-9) {
		t.Errorf("standby time = %v", st.StandbyTime)
	}
}

func TestSpinUpDelayAndLatency(t *testing.T) {
	spec := Barracuda()
	d := New(spec, 0.5)
	d.SetTimeout(0, 5)
	d.Submit(0, simtime.MB)
	// Long gap; the disk spins down at service+5 and the next request
	// pays the 10 s spin-up.
	finish, lat := d.Submit(100, simtime.MB)
	service := spec.ServiceTime(simtime.MB)
	if !almost(float64(finish), 100+10+float64(service), 1e-9) {
		t.Errorf("finish = %v", finish)
	}
	if !almost(float64(lat), 10+float64(service), 1e-9) {
		t.Errorf("latency = %v", lat)
	}
	st := d.Stats()
	if st.Delayed != 1 {
		t.Errorf("delayed = %d, want 1 (spin-up > 0.5s)", st.Delayed)
	}
	if st.IdleCount != 1 {
		t.Errorf("idle intervals = %d, want 1", st.IdleCount)
	}
	if !almost(float64(st.IdleSum), 100-float64(service), 1e-9) {
		t.Errorf("idle sum = %v", st.IdleSum)
	}
}

func TestQueueingFCFS(t *testing.T) {
	spec := Barracuda()
	d := New(spec, 0.5)
	size := 10 * simtime.MB
	service := spec.ServiceTime(size)
	f1, l1 := d.Submit(0, size)
	f2, l2 := d.Submit(0.01, size)
	if !almost(float64(f1), float64(service), 1e-9) {
		t.Errorf("f1 = %v", f1)
	}
	if !almost(float64(f2), float64(service)*2, 1e-9) {
		t.Errorf("f2 = %v, want %v", f2, service*2)
	}
	if l2 <= l1 {
		t.Error("queued request should wait longer")
	}
	st := d.Stats()
	if !almost(float64(st.BusyTime), 2*float64(service), 1e-9) {
		t.Errorf("busy time = %v", st.BusyTime)
	}
	// No phantom idle interval was recorded for the queued arrival.
	if st.IdleCount != 0 {
		t.Errorf("idle count = %d, want 0", st.IdleCount)
	}
}

func TestEnergyBreakEvenProperty(t *testing.T) {
	// An idle gap exactly equal to the break-even time consumes the same
	// energy spun down (transition + standby floor) as staying on.
	spec := Barracuda()
	tbe := spec.BreakEven()

	on := New(spec, 0.5) // never spins down
	on.Submit(0, simtime.MB)
	gapEnd := float64(spec.ServiceTime(simtime.MB)) + float64(tbe)
	on.FinishTo(simtime.Seconds(gapEnd))

	off := New(spec, 0.5)
	off.Submit(0, simtime.MB)
	off.SetTimeout(off.Now(), 0) // spin down the moment the request completes
	off.FinishTo(simtime.Seconds(gapEnd))

	eOn := on.Energy().Total()
	eOff := off.Energy().Total()
	if !almost(float64(eOn), float64(eOff), 1e-6) {
		t.Errorf("break-even violated: on=%v off=%v", eOn, eOff)
	}
}

func TestSetTimeoutRetroactive(t *testing.T) {
	d := New(Barracuda(), 0.5)
	d.Submit(0, simtime.MB)
	d.FinishTo(50)
	if d.State() != StateIdle {
		t.Fatal("should still be idle under +Inf timeout")
	}
	// New timeout of 5 s has already "expired"; the disk spins down now.
	d.SetTimeout(50, 5)
	if d.State() != StateStandby {
		t.Fatal("retroactive timeout did not spin down")
	}
	if d.Stats().SpinDowns != 1 {
		t.Fatal("missing spin-down count")
	}
}

func TestObserverSeesIdleEvents(t *testing.T) {
	d := New(Barracuda(), 0.5)
	d.SetTimeout(0, 5)
	var events []struct {
		idle float64
		down bool
	}
	d.SetObserver(observerFunc(func(idle simtime.Seconds, down bool) {
		events = append(events, struct {
			idle float64
			down bool
		}{float64(idle), down})
	}))
	d.Submit(0, simtime.MB)
	d.Submit(2, simtime.MB)   // short gap, no spin-down
	d.Submit(100, simtime.MB) // long gap, spun down
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].down {
		t.Error("short gap reported as spun down")
	}
	if !events[1].down {
		t.Error("long gap not reported as spun down")
	}
}

type observerFunc func(simtime.Seconds, bool)

func (f observerFunc) IdleEnded(idle simtime.Seconds, spunDown bool) { f(idle, spunDown) }

func TestIdleRecorder(t *testing.T) {
	d := New(Barracuda(), 0.5)
	var got []simtime.Seconds
	d.SetIdleRecorder(func(s simtime.Seconds) { got = append(got, s) })
	d.Submit(0, simtime.MB)
	d.Submit(3, simtime.MB)
	if len(got) != 1 {
		t.Fatalf("recorded %d intervals", len(got))
	}
}

func TestStateAfterSubmit(t *testing.T) {
	d := New(Barracuda(), 0.5)
	d.Submit(0, 100*simtime.MB)
	// Submit advances the timeline through completion, so the resting
	// state is idle; busy time is tracked separately.
	if d.State() != StateIdle {
		t.Errorf("state = %v, want idle", d.State())
	}
	if d.Stats().BusyTime <= 0 {
		t.Error("busy time not accounted")
	}
}

func TestStatsSubWindows(t *testing.T) {
	d := New(Barracuda(), 0.5)
	d.Submit(0, simtime.MB)
	snap := d.Stats()
	d.Submit(1, simtime.MB)
	w := d.Stats().Sub(snap)
	if w.Requests != 1 {
		t.Errorf("windowed requests = %d", w.Requests)
	}
	if w.BytesMoved != simtime.MB {
		t.Errorf("windowed bytes = %d", w.BytesMoved)
	}
}

func TestEnergyMatchesHandComputation(t *testing.T) {
	// One request, then 30 s idle with a 10 s timeout:
	// on-time = service + 10, standby = 20, one transition.
	spec := Barracuda()
	d := New(spec, 0.5)
	d.SetTimeout(0, 10)
	d.Submit(0, simtime.MB)
	service := float64(spec.ServiceTime(simtime.MB))
	end := service + 30
	d.FinishTo(simtime.Seconds(end))
	e := d.Energy()
	wantDyn := 5.0 * service
	wantOn := 6.6 * (service + 10)
	wantFloor := 0.9 * end
	wantTr := 77.5
	if !almost(float64(e.Dynamic), wantDyn, 1e-6) {
		t.Errorf("dynamic = %v, want %g", e.Dynamic, wantDyn)
	}
	if !almost(float64(e.StaticOn), wantOn, 1e-6) {
		t.Errorf("staticOn = %v, want %g", e.StaticOn, wantOn)
	}
	if !almost(float64(e.Floor), wantFloor, 1e-6) {
		t.Errorf("floor = %v, want %g", e.Floor, wantFloor)
	}
	if !almost(float64(e.Transition), wantTr, 1e-6) {
		t.Errorf("transition = %v, want %g", e.Transition, wantTr)
	}
	sum := e.Dynamic + e.StaticOn + e.Floor + e.Transition
	if !almost(float64(e.Total()), float64(sum), 1e-9) {
		t.Error("Total != sum of parts")
	}
}

func TestMeanIdle(t *testing.T) {
	var s Stats
	if s.MeanIdle() != 0 {
		t.Error("empty MeanIdle != 0")
	}
	s.IdleSum, s.IdleCount = 10, 4
	if got := s.MeanIdle(); !almost(float64(got), 2.5, 1e-12) {
		t.Errorf("MeanIdle = %v", got)
	}
}

// TestSpeedChangeStartsAtBoundary pins when a speed change occupies the
// platter: from the time it is ordered, overlapping the tail of a
// request already in service, not queued behind it.
func TestSpeedChangeStartsAtBoundary(t *testing.T) {
	spec := Barracuda()
	levels := []SpeedLevel{
		{RPM: 12000, IdlePower: spec.IdlePower, ActivePower: spec.ActivePower,
			TransferRate: spec.TransferRate, RotLatency: spec.RotationalLatency},
		{RPM: 6000, IdlePower: spec.IdlePower / 4, ActivePower: spec.IdlePower/4 + spec.DynamicPower(),
			TransferRate: spec.TransferRate / 2, RotLatency: 2 * spec.RotationalLatency},
	}
	const perRPM = 1e-4 // 0.6 s across the ladder
	run := func(change simtime.Seconds) (busyUntil, next simtime.Seconds) {
		d := New(spec, 0.5)
		d.SetSpeedLevels(levels, perRPM)
		busyUntil, _ = d.Submit(0, 58*simtime.MB) // ~1.01 s at full speed
		d.SetSpeedLevel(change, 1)
		next, _ = d.Submit(change, 0)
		return busyUntil, next
	}
	slowService := spec.SeekTime + levels[1].RotLatency
	// The change ordered at 0.5 s ends at 1.1 s, after the request in
	// service completes: the next request waits for the change.
	if _, next := run(0.5); !almost(float64(next), 1.1+float64(slowService), 1e-12) {
		t.Errorf("change at 0.5 s: next request finishes at %v, want %v", next, 1.1+slowService)
	}
	// The change ordered at 0.1 s ends at 0.7 s, inside the request in
	// service: the next request waits only for that request.
	if busy, next := run(0.1); !almost(float64(next), float64(busy+slowService), 1e-12) {
		t.Errorf("change at 0.1 s: next request finishes at %v, want %v", next, busy+slowService)
	}
}
