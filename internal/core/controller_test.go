package core

import (
	"reflect"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

func testControllerConfig() ControllerConfig {
	return ControllerConfig{
		PageSize:     64 * simtime.KB,
		BankSize:     simtime.MB,
		InstalledMem: 64 * simtime.MB,
		DiskSpec:     disk.Barracuda(),
		MemSpec:      mem.RDRAM(simtime.MB),
		Period:       60,
	}
}

// controllerRefs is a Zipf page stream with Pareto-ish gaps spanning
// several 60 s periods.
func controllerRefs(n int, seed int64) (times []simtime.Seconds, pages []int64) {
	rng := stats.NewRNG(seed)
	z := stats.NewZipf(stats.NewRNG(seed+1), 1<<11, 0.9)
	tm := 0.0
	for i := 0; i < n; i++ {
		times = append(times, simtime.Seconds(tm))
		pages = append(pages, int64(z.Next()))
		tm += rng.Pareto(1.4, 0.02)
	}
	return times, pages
}

// TestControllerMatchesManager pins the controller to its definition: a
// bare stack and manager handed each period's whole depth log through
// Decide, with warmup periods discarded. A record is flagged warmup
// exactly when no decision was made.
func TestControllerMatchesManager(t *testing.T) {
	for _, warmup := range []int{0, 2} {
		cfg := testControllerConfig()
		cfg.WarmupPeriods = warmup
		ctl, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewManager(cfg.Params())
		stack := lrusim.NewStackSim(int(cfg.InstalledMem / cfg.PageSize))
		var log []lrusim.DepthRecord

		times, pages := controllerRefs(20000, 5)
		boundary := cfg.Period
		decided := 0
		closeBoth := func() {
			dec, rec := ctl.Close(boundary, 3, 2)
			if int(rec.Period) <= warmup {
				ref.DiscardPeriod()
				log = log[:0]
				if !rec.Warmup || !reflect.DeepEqual(dec, ref.Last()) {
					t.Fatalf("warmup %d: period %d decided during warmup (record warmup %v)", warmup, rec.Period, rec.Warmup)
				}
			} else {
				want := ref.Decide(Observation{
					Log: log, CacheAccesses: int64(len(log)), CoalesceFactor: 1.5,
					PeriodStart: boundary - cfg.Period, PeriodEnd: boundary, CurrentBanks: ref.Last().Banks,
				})
				log = log[:0]
				if rec.Warmup || !reflect.DeepEqual(dec, want) {
					t.Fatalf("warmup %d: period %d: controller %+v, manager %+v (record warmup %v)", warmup, rec.Period, dec, want, rec.Warmup)
				}
				decided++
			}
			if rec.DecideNs != 0 || rec.IngestNs != 0 {
				t.Fatalf("untimed controller recorded spans %+v", rec)
			}
			boundary += cfg.Period
		}
		for i, tm := range times {
			for tm >= boundary {
				closeBoth()
			}
			d := ctl.Reference(tm, pages[i])
			if want := stack.Reference(pages[i]); d != want {
				t.Fatalf("reference %d: depth %d, want %d", i, d, want)
			}
			log = append(log, lrusim.DepthRecord{Time: tm, Page: pages[i], Depth: d, Bytes: cfg.PageSize})
		}
		closeBoth()
		if decided < 3 {
			t.Fatalf("warmup %d: only %d decisions", warmup, decided)
		}
	}
}

// TestControllerStateRestore: a controller restored from a mid-period
// checkpoint of a log-retaining controller decides exactly as the
// original does from there on.
func TestControllerStateRestore(t *testing.T) {
	cfg := testControllerConfig()
	cfg.RetainLog = true
	a, _ := NewController(cfg)
	times, pages := controllerRefs(12000, 9)
	cut := len(times) / 2
	boundary := cfg.Period
	feed := func(c *Controller, from, to int, b simtime.Seconds) simtime.Seconds {
		for i := from; i < to; i++ {
			for times[i] >= b {
				c.Close(b, 4, 3)
				b += cfg.Period
			}
			c.Reference(times[i], pages[i])
		}
		return b
	}
	boundary = feed(a, 0, cut, boundary)
	st := a.State()
	if st.IngestedRefs != int64(len(st.Log)) || st.Refs != int64(len(st.Log)) {
		t.Fatalf("checkpoint holds %d ingested refs, %d counted, %d logged", st.IngestedRefs, st.Refs, len(st.Log))
	}
	b, _ := NewController(cfg)
	got, err := b.Restore(st)
	if err != nil || got != st.IngestedRefs {
		t.Fatalf("restore replayed %d refs (err %v), want %d", got, err, st.IngestedRefs)
	}
	ea := feed(a, cut, len(times), boundary)
	eb := feed(b, cut, len(times), boundary)
	da, ra := a.Close(ea, 4, 3)
	db, rb := b.Close(eb, 4, 3)
	if !reflect.DeepEqual(da, db) || ra != rb || a.Periods() != b.Periods() {
		t.Fatalf("restored controller diverged:\n%+v\n%+v", ra, rb)
	}
}

// TestControllerSpans: a timed controller records the period's manager
// ingest and the decide call; a warmup boundary records ingest only.
func TestControllerSpans(t *testing.T) {
	cfg := testControllerConfig()
	cfg.WarmupPeriods = 1
	cfg.Timed = true
	ctl, _ := NewController(cfg)
	times, pages := controllerRefs(4000, 3)
	for p := 1; p <= 2; p++ {
		for i := range times {
			ctl.Reference(simtime.Seconds(p-1)*cfg.Period+times[i]*cfg.Period/(times[len(times)-1]+1), pages[i])
		}
		_, rec := ctl.Close(simtime.Seconds(p)*cfg.Period, 1, 1)
		if rec.IngestNs <= 0 {
			t.Errorf("period %d: ingest span %d ns after %d references", p, rec.IngestNs, len(times))
		}
		if rec.Warmup != (rec.DecideNs == 0) {
			t.Errorf("period %d: warmup %v with decide span %d ns", p, rec.Warmup, rec.DecideNs)
		}
	}
}
