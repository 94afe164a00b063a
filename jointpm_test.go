package jointpm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func tinyWorkload(t testing.TB, seed int64) *Trace {
	t.Helper()
	tr, err := GenerateWorkload(WorkloadConfig{
		DataSetBytes: 32 * MB,
		PageSize:     16 * KB,
		Rate:         200 * float64(KB),
		Popularity:   0.1,
		Duration:     1800,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFacadeEndToEnd(t *testing.T) {
	tr := tinyWorkload(t, 1)

	memSpec := RDRAM(MB)
	memSpec.NapPowerPerMB *= 1024 // paper-like memory:disk ratio at toy size

	run := func(m Method) *SimResult {
		res, err := Run(SimConfig{
			Trace:        tr,
			Method:       m,
			InstalledMem: 128 * MB,
			BankSize:     MB,
			MemSpec:      memSpec,
			Period:       5 * Minute,
			Joint:        &JointParams{DelayCap: 0.02},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseline := run(AlwaysOnMethod(128 * MB))
	joint := run(JointMethod(128 * MB))
	if joint.TotalEnergy() >= baseline.TotalEnergy() {
		t.Errorf("joint %v not below always-on %v", joint.TotalEnergy(), baseline.TotalEnergy())
	}
	if joint.CacheAccesses != baseline.CacheAccesses {
		t.Errorf("cache accesses depend on method: %d vs %d",
			joint.CacheAccesses, baseline.CacheAccesses)
	}
}

// TestEngineMatchesStackPrediction is the cross-module inclusion
// invariant the whole joint method rests on: the miss count the engine
// observes with a fixed LRU cache of m pages must equal the prediction
// the extended LRU list makes by replaying the same reference stream —
// for every m. (The paper's Section IV-B correctness argument.)
func TestEngineMatchesStackPrediction(t *testing.T) {
	tr := tinyWorkload(t, 3)
	const pageSize = 16 * KB
	const bank = MB
	bankPages := int(bank / pageSize)

	stack := NewStackSim(1 << 20)
	curve := NewMissCurve(bankPages)
	for _, r := range tr.Requests {
		for k := int32(0); k < r.Pages; k++ {
			curve.Add(stack.Reference(r.FirstPage + int64(k)))
		}
	}

	for _, banks := range []int{1, 2, 8, 32, 128} {
		m := Method{MemBytes: Bytes(banks) * bank}
		m2, err := ParseMethod("2TFM-" + m.MemBytes.String())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(SimConfig{
			Trace:        tr,
			Method:       m2,
			InstalledMem: 128 * MB,
			BankSize:     bank,
			Period:       5 * Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := curve.Misses(int64(banks) * int64(bankPages))
		if res.DiskAccesses != want {
			t.Errorf("%d banks: engine saw %d misses, stack predicts %d",
				banks, res.DiskAccesses, want)
		}
	}
}

// TestQuickMissMonotonicity: across random workloads, a bigger fixed
// cache never misses more (LRU inclusion at the whole-engine level).
func TestQuickMissMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := GenerateWorkload(WorkloadConfig{
			DataSetBytes: 16 * MB,
			PageSize:     16 * KB,
			Rate:         100 * float64(KB),
			Popularity:   0.2,
			Duration:     600,
			Seed:         seed,
		})
		if err != nil {
			return false
		}
		prev := int64(-1)
		for _, banks := range []Bytes{32, 16, 8, 4, 2, 1} { // descending size
			res, err := Run(SimConfig{
				Trace:        tr,
				Method:       Method{MemBytes: banks * MB},
				InstalledMem: 32 * MB,
				BankSize:     MB,
				Period:       5 * Minute,
			})
			if err != nil {
				return false
			}
			if prev >= 0 && res.DiskAccesses < prev {
				return false
			}
			prev = res.DiskAccesses
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRoundTripViaFacade(t *testing.T) {
	tr := tinyWorkload(t, 5)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != len(tr.Requests) || got.DataSetPages != tr.DataSetPages {
		t.Error("round trip mangled trace")
	}
}

func TestFacadeHelpers(t *testing.T) {
	if Barracuda().BreakEven() <= 0 {
		t.Error("Barracuda break-even")
	}
	if RDRAM(16*MB).NapPower() <= 0 {
		t.Error("RDRAM nap power")
	}
	ms := ComparisonMethods(128*GB, []Bytes{8 * GB, 16 * GB})
	if len(ms) != 10 { // 2 disks × (2 FM + PD + DS) + joint + always-on
		t.Errorf("comparison set = %d", len(ms))
	}
	if len(ExperimentIDs()) != 13 {
		t.Errorf("experiments = %d", len(ExperimentIDs()))
	}
	if _, err := ExperimentByID("fig7"); err != nil {
		t.Error(err)
	}
	if ColdDepth != -1 {
		t.Error("ColdDepth changed")
	}
	d, err := FitPareto([]float64{1, 2, 4, 8, 16}, 0.5)
	if err != nil || !d.Valid() {
		t.Errorf("FitPareto: %v %v", d, err)
	}
	p := DefaultJointParams(64*KB, 16*MB, 8192, Barracuda(), RDRAM(16*MB))
	if _, err := NewJointManager(p); err != nil {
		t.Error(err)
	}
	if got := DiskPMPowerModel(ParetoDist{Alpha: 1.5, Beta: 5}, 10, 20, 600, Barracuda()); got <= 0 {
		t.Errorf("DiskPMPowerModel = %g", got)
	}
	if PopularityOf(tinyWorkload(t, 9)) <= 0 {
		t.Error("PopularityOf")
	}
	if NewSynthesizer(1) == nil {
		t.Error("NewSynthesizer")
	}
	if PaperScale(7200).Name != "paper" || QuickScale(600).Name != "quick" {
		t.Error("scale presets")
	}
}

func TestFacadeExtensions(t *testing.T) {
	tr := tinyWorkload(t, 21)

	// Workload analysis and modulation.
	st := AnalyzeTrace(tr)
	if st.Requests != len(tr.Requests) || st.Popularity <= 0 {
		t.Error("AnalyzeTrace")
	}
	mod := ModulateTrace(tr, Diurnal{CycleLength: tr.Duration, Amplitude: 0.5})
	if len(mod.Requests) != len(tr.Requests) {
		t.Error("ModulateTrace")
	}
	if (OnOff{OnSpan: 1, OffSpan: 1, OnFactor: 2, OffFactor: 0.5}).Factor(0.5) != 2 {
		t.Error("OnOff factor")
	}

	// Zoned disk model through the engine.
	z := BarracudaZoned()
	res, err := Run(SimConfig{
		Trace:        tr,
		Method:       AlwaysOnMethod(64 * MB),
		InstalledMem: 64 * MB,
		BankSize:     MB,
		Period:       5 * Minute,
		Zoned:        &z,
	})
	if err != nil || res.DiskAccesses == 0 {
		t.Fatalf("zoned run: %v", err)
	}

	// The DR (speed-cap) method through the engine, on a derived ladder.
	if spec := DeriveDRPMLevels(Barracuda(), 12000, 3); len(spec.Levels) != 3 {
		t.Errorf("ladder has %d levels, want 3", len(spec.Levels))
	}
	dres, err := Run(SimConfig{
		Trace:        tr,
		Method:       mustParse(t, "DRFM-64MB"),
		InstalledMem: 64 * MB,
		BankSize:     MB,
		Period:       5 * Minute,
		SpeedLevels:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dres.TotalEnergy() <= 0 || dres.Method.Name() != "DRFM-64MB" {
		t.Errorf("DR run: energy %v, method %s", dres.TotalEnergy(), dres.Method.Name())
	}

	// EA method through the engine.
	eares, err := Run(SimConfig{
		Trace:        tr,
		Method:       Method{MemBytes: 64 * MB, Disk: mustParse(t, "EAFM-64MB").Disk},
		InstalledMem: 64 * MB,
		BankSize:     MB,
		Period:       5 * Minute,
	})
	if err != nil || eares.CacheAccesses == 0 {
		t.Fatalf("EA run: %v", err)
	}
}

func mustParse(t *testing.T, name string) Method {
	t.Helper()
	m, err := ParseMethod(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
