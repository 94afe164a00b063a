package sim

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/policy"
	"jointpm/internal/simtime"
	"jointpm/internal/workload"
)

// drpmGoldenPoint is one run of the standalone DRPM loop that
// internal/drpm carried until the speed-cap policy became the DR method
// (commit 1be0850): drpm.Run on the ladder drpm.DeriveLevels(Barracuda,
// 0, 4), under its FullSpeed or Adaptive (utilization cap 0.5) policy,
// with a nap-mode fixed cache of MemBytes. Floats are recorded as %x.
type drpmGoldenPoint struct {
	Name           string  `json:"name"`
	DataSetBytes   int64   `json:"dataset_bytes"`
	RateKBps       float64 `json:"rate_kb_per_s"`
	DurationS      float64 `json:"duration_s"`
	Seed           int64   `json:"seed"`
	MemBytes       int64   `json:"mem_bytes"`
	BankBytes      int64   `json:"bank_bytes"`
	PeriodS        float64 `json:"period_s"`
	Policy         string  `json:"policy"`
	DiskEnergy     string  `json:"disk_energy_j"`
	MemEnergy      string  `json:"mem_energy_j"`
	MeanLatency    string  `json:"mean_latency_s"`
	DiskAccesses   int64   `json:"disk_accesses"`
	ClientRequests int64   `json:"client_requests"`
	Transitions    int64   `json:"speed_transitions"`
}

// runEngine is Run, returning the engine too so tests can read the disk
// model's speed state.
func runEngine(t testing.TB, c Config) (*Result, *engine) {
	t.Helper()
	cfg, err := c.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

func hexFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// drpmGoldenSlack names the golden points allowed past 1e-12, with the
// relative bound each is held to instead.
var drpmGoldenSlack = map[string]float64{
	// The disk is still serving a request for 12.5 ms past the 300 s
	// boundary at which the policy drops from full speed to the lowest
	// level. The disk model charges that tail at the full-speed idle
	// power the request started under; the retired loop charged it at
	// the new level's. 0.0125 s × (7.5 − 1.875) W = 0.07 J of ~15.5 kJ.
	"speedcontrol/cold-512KBps/DRFM-256MB disk energy": 1e-5,
}

// TestSpeedCapMatchesDRPMGolden replays every recorded point of the
// retired standalone loop through the one simulator engine: ALWAYS-ON
// against FullSpeed and DRFM-<MemBytes> against Adaptive. Counts and
// memory energy must match exactly; disk energy and mean latency sum
// the same terms in a different order (per-level residency instead of a
// running total), so they are held to 1e-12 relative, except the points
// drpmGoldenSlack names.
func TestSpeedCapMatchesDRPMGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/drpm_equivalence.json")
	if err != nil {
		t.Fatal(err)
	}
	var points []drpmGoldenPoint
	if err := json.Unmarshal(raw, &points); err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("empty golden")
	}
	for _, p := range points {
		tr, err := workload.Generate(workload.Config{
			DataSetBytes: simtime.Bytes(p.DataSetBytes),
			PageSize:     16 * simtime.KB,
			Rate:         p.RateKBps * float64(simtime.KB),
			Popularity:   0.1,
			Duration:     simtime.Seconds(p.DurationS),
			Seed:         p.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		mem := simtime.Bytes(p.MemBytes)
		m := policy.AlwaysOn(mem)
		if p.Policy == "adaptive" {
			m = policy.Method{Disk: policy.DiskSpeedCap, Mem: policy.MemFixedNap, MemBytes: mem}
		}
		res, e := runEngine(t, Config{
			Trace:        tr,
			Method:       m,
			InstalledMem: mem,
			BankSize:     simtime.Bytes(p.BankBytes),
			Period:       simtime.Seconds(p.PeriodS),
			SpeedLevels:  4,
		})
		id := p.Name + "/" + m.Name()
		if res.DiskAccesses != p.DiskAccesses || res.ClientRequests != p.ClientRequests ||
			e.disk.SpeedTransitions() != p.Transitions {
			t.Errorf("%s: disk accesses %d, client requests %d, transitions %d; golden %d, %d, %d", id,
				res.DiskAccesses, res.ClientRequests, e.disk.SpeedTransitions(),
				p.DiskAccesses, p.ClientRequests, p.Transitions)
		}
		if got, want := float64(res.MemEnergy.Total()), hexFloat(t, p.MemEnergy); got != want {
			t.Errorf("%s: memory energy %x, golden %x", id, got, want)
		}
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"disk energy", float64(res.DiskEnergy.Total()), hexFloat(t, p.DiskEnergy)},
			{"mean latency", float64(res.MeanLatency()), hexFloat(t, p.MeanLatency)},
		} {
			tol := 1e-12
			if slack, ok := drpmGoldenSlack[id+" "+c.what]; ok {
				tol = slack
			}
			if rel := math.Abs(c.got-c.want) / math.Abs(c.want); rel > tol {
				t.Errorf("%s: %s %x, golden %x (relative error %.3g > %g)", id, c.what, c.got, c.want, rel, tol)
			}
		}
	}
}

func speedCapMethod(mem simtime.Bytes) policy.Method {
	return policy.Method{Disk: policy.DiskSpeedCap, Mem: policy.MemFixedNap, MemBytes: mem}
}

// speedCapConfig runs m on a 64 MB data set at the given rate, with a
// four-level ladder and 128 MB of memory.
func speedCapConfig(t testing.TB, rateKBps float64, m policy.Method) Config {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     16 * simtime.KB,
		Rate:         rateKBps * float64(simtime.KB),
		Popularity:   0.1,
		Duration:     3600,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Trace:        tr,
		Method:       m,
		InstalledMem: 128 * simtime.MB,
		BankSize:     simtime.MB,
		Period:       300,
		SpeedLevels:  4,
	}
}

func TestSpeedCapDropsToSlowestWhenQuiet(t *testing.T) {
	_, e := runEngine(t, speedCapConfig(t, 64, speedCapMethod(128*simtime.MB)))
	if got := e.disk.SpeedLevel(); got != 3 {
		t.Errorf("light load ended at level %d, want the slowest (3)", got)
	}
	if e.disk.SpeedTransitions() == 0 {
		t.Error("DR made no speed transitions on a light load")
	}
}

func TestSpeedCapSavesEnergyCostsLatency(t *testing.T) {
	full, err := Run(speedCapConfig(t, 128, policy.AlwaysOn(128*simtime.MB)))
	if err != nil {
		t.Fatal(err)
	}
	dr, err := Run(speedCapConfig(t, 128, speedCapMethod(128*simtime.MB)))
	if err != nil {
		t.Fatal(err)
	}
	if dr.DiskEnergy.Total() >= full.DiskEnergy.Total() {
		t.Errorf("DR disk energy %v not below always-on %v", dr.DiskEnergy.Total(), full.DiskEnergy.Total())
	}
	if dr.MeanLatency() < full.MeanLatency() {
		t.Errorf("DR latency %v below always-on %v (slower platters cannot be faster)",
			dr.MeanLatency(), full.MeanLatency())
	}
	// Speed does not touch the cache or the memory model.
	if dr.DiskAccesses != full.DiskAccesses || dr.MemEnergy != full.MemEnergy {
		t.Errorf("cache or memory differs: %d/%v misses, %v/%v memory energy",
			dr.DiskAccesses, full.DiskAccesses, dr.MemEnergy, full.MemEnergy)
	}
}

// TestSpeedCapConfigValidation: the DR method needs a ladder, and the
// zoned disk has none, on both the fused and the replayed path.
func TestSpeedCapConfigValidation(t *testing.T) {
	for _, levels := range []int{0, 1} {
		cfg := speedCapConfig(t, 64, speedCapMethod(128*simtime.MB))
		cfg.SpeedLevels = levels
		if _, err := Run(cfg); err == nil {
			t.Errorf("SpeedLevels %d accepted", levels)
		}
	}
	cfg := speedCapConfig(t, 64, speedCapMethod(128*simtime.MB))
	z := disk.BarracudaZoned()
	cfg.Zoned = &z
	if _, err := Run(cfg); err == nil {
		t.Error("zoned disk accepted")
	}

	cfg = speedCapConfig(t, 64, policy.AlwaysOn(128*simtime.MB))
	cfg.SpeedLevels = 0
	rec, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Release()
	if _, err := rec.Replay(speedCapMethod(128 * simtime.MB)); err == nil {
		t.Error("Replay accepted DR on a recording without a ladder")
	}
}

// TestSplitMatchesFusedSpeedCap extends the split-path equivalence to
// the DR method: replaying the shared recording must be
// reflect.DeepEqual to the fused engine. At 4 MB/s the disk sits near
// the cap, so one-minute periods move it up and down the ladder, often
// while a request is in service at the boundary.
func TestSplitMatchesFusedSpeedCap(t *testing.T) {
	var transitions int64
	for _, rate := range []float64{64, 4096} {
		for _, m := range []policy.Method{
			speedCapMethod(32 * simtime.MB),
			speedCapMethod(128 * simtime.MB),
			{Disk: policy.DiskSpeedCap, Mem: policy.MemPowerDown, MemBytes: 128 * simtime.MB},
			{Disk: policy.DiskSpeedCap, Mem: policy.MemDisable, MemBytes: 128 * simtime.MB},
		} {
			cfg := speedCapConfig(t, rate, m)
			cfg.Period = 60
			cfg.Warmup = 120
			fused, e := runEngine(t, cfg)
			transitions += e.disk.SpeedTransitions()
			rec, err := Record(cfg)
			if err != nil {
				t.Fatal(err)
			}
			split, err := rec.Replay(m)
			rec.Release()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fused, split) {
				t.Errorf("%gKB/s %s: split result differs from fused engine\nfused: %+v\nsplit: %+v",
					rate, m.Name(), fused, split)
			}
		}
	}
	if transitions < 20 {
		t.Errorf("%d speed transitions across the sweep; the test needs the levels to move", transitions)
	}
}
