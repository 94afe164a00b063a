package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

func quick() Scale { return QuickScale(1800) }

func TestScalePresets(t *testing.T) {
	p := PaperScale(7200)
	if p.InstalledMem != 128*simtime.GB || p.Unit != simtime.GB {
		t.Error("paper scale dimensions wrong")
	}
	if p.BankSize%p.PageSize != 0 || p.InstalledMem%p.BankSize != 0 {
		t.Error("paper scale not aligned")
	}
	q := quick()
	if q.BankSize%q.PageSize != 0 || q.InstalledMem%q.BankSize != 0 {
		t.Error("quick scale not aligned")
	}
	// Quick scale preserves the paper's installed-memory:disk power ratio.
	paperRatio := float64(p.MemSpec.NapPowerPerMB) * p.InstalledMem.MBValue() / float64(p.DiskSpec.StaticPower())
	quickRatio := float64(q.MemSpec.NapPowerPerMB) * q.InstalledMem.MBValue() / float64(q.DiskSpec.StaticPower())
	if ratio := quickRatio / paperRatio; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("power ratio drifted: %g", ratio)
	}
}

func TestScaleAxes(t *testing.T) {
	s := quick()
	if got := len(s.FMSizes()); got != 5 {
		t.Errorf("FM sizes = %d", got)
	}
	if got := len(s.DataSetSizes()); got != 5 {
		t.Errorf("data sets = %d", got)
	}
	if got := len(s.Rates()); got != 5 {
		t.Errorf("rates = %d", got)
	}
	if s.GBLabel(16*s.Unit) != "16GB" {
		t.Errorf("GBLabel = %q", s.GBLabel(16*s.Unit))
	}
	if s.RateLabel(100*s.RateUnit) != "100MB/s" {
		t.Errorf("RateLabel = %q", s.RateLabel(100*s.RateUnit))
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"drpm", "extdelay", "extoracle", "extutil", "fig1", "fig5", "fig7", "fig8pop", "fig8rate", "fig9", "table3", "table4", "table5"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("id %d = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(All()) != len(want) {
		t.Error("All() incomplete")
	}
	for _, e := range All() {
		if e.Run == nil || e.Paper == "" || e.Desc == "" {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
	}
}

func TestAnalyticExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(quick(), 1, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"break-even time t_be", "11.7", "disable timeout", "Fig. 1(a)", "Fig. 1(b)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
	buf.Reset()
	if err := Fig5(quick(), 1, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Optimal timeouts") {
		t.Error("fig5 output missing timeout table")
	}
}

func TestDataSetSweepShape(t *testing.T) {
	s := quick()
	points, err := runDataSetSweep(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Label != "4GB" || points[4].Label != "64GB" {
		t.Errorf("labels: %s..%s", points[0].Label, points[4].Label)
	}
	for _, p := range points {
		if len(p.Rows) != 16 {
			t.Fatalf("%s: %d methods", p.Label, len(p.Rows))
		}
		var joint, alwaysOn *Row
		for i := range p.Rows {
			switch p.Rows[i].Method.Name() {
			case "JOINT":
				joint = &p.Rows[i]
			case "ALWAYS-ON":
				alwaysOn = &p.Rows[i]
			}
		}
		if joint == nil || alwaysOn == nil {
			t.Fatal("missing joint/always-on rows")
		}
		// Baseline normalises to itself.
		if alwaysOn.TotalPct < 99.9 || alwaysOn.TotalPct > 100.1 {
			t.Errorf("%s: baseline normalised to %g%%", p.Label, alwaysOn.TotalPct)
		}
		// The joint method must save energy vs always-on everywhere.
		if !joint.Omitted && joint.TotalPct >= 100 {
			t.Errorf("%s: joint at %g%% of always-on", p.Label, joint.TotalPct)
		}
		// Utilization cap: joint stays below the 10% cap with slack for
		// the warmup-excluded early periods.
		if joint.Result.Utilization > 0.15 {
			t.Errorf("%s: joint utilization %g", p.Label, joint.Result.Utilization)
		}
	}
	// Growing data sets mean more misses for the smallest fixed memory
	// (the paper's 8 GB, i.e. 8 axis units at any scale).
	idx := -1
	for i, r := range points[0].Rows {
		m := r.Method
		if m.Disk == policy.DiskTwoCompetitive && m.Mem == policy.MemFixedNap && m.MemBytes == 8*s.Unit {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("missing the 8-unit 2TFM method")
	}
	if points[4].Rows[idx].Result.DiskAccesses <= points[0].Rows[idx].Result.DiskAccesses {
		t.Error("small fixed memory misses did not grow with the data set")
	}
}

func TestRenderersProduceTables(t *testing.T) {
	s := quick()
	points, err := runDataSetSweep(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := renderFig7(points, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 7(a)", "Fig. 7(f)", "JOINT", "ALWAYS-ON", "64GB"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q", want)
		}
	}
	buf.Reset()
	if err := renderTable3(points, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "memory accesses (MA)") {
		t.Error("table3 output missing MA row")
	}
}

func TestRateSweepShape(t *testing.T) {
	s := quick()
	points, err := runRateSweep(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 || points[0].Label != "5MB/s" || points[4].Label != "200MB/s" {
		t.Fatalf("rate labels wrong: %+v", []string{points[0].Label, points[4].Label})
	}
	// Higher rates move more bytes: baseline disk busy time rises.
	lo := points[0].Baseline.Utilization
	hi := points[4].Baseline.Utilization
	if hi <= lo {
		t.Errorf("utilization did not grow with rate: %g -> %g", lo, hi)
	}
}

func TestPopularitySweepShape(t *testing.T) {
	s := quick()
	points, err := runPopularitySweep(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Label != "pop=0.05" || points[4].Label != "pop=0.60" {
		t.Errorf("labels: %s..%s", points[0].Label, points[4].Label)
	}
}

func TestSensitivityTablesRun(t *testing.T) {
	var buf bytes.Buffer
	if err := Table4(quick(), 3, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table IV") {
		t.Error("table4 missing title")
	}
	buf.Reset()
	if err := Table5(quick(), 3, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table V") || !strings.Contains(out, "64KB") {
		t.Error("table5 output incomplete")
	}
}

func TestFig9Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig9(quick(), 3, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 9", "req@8GB", "prediction error", "mean variation"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 output missing %q", want)
		}
	}
}

func TestPointRequiresBaseline(t *testing.T) {
	s := quick()
	r := newRunner(s)
	tr, err := s.GenerateBase(4*s.Unit, 50*s.RateUnit, 0.1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.point("x", tr, []policy.Method{policy.Joint(s.InstalledMem)}, 0)
	if err == nil {
		t.Error("point without baseline accepted")
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtPct(12.345, false) != "12.3" || fmtPct(1, true) != "-" {
		t.Error("fmtPct")
	}
	if fmtF(1.23456, 2, false) != "1.23" || fmtF(1, 0, true) != "-" {
		t.Error("fmtF")
	}
	tests := []struct {
		v    int64
		want string
	}{
		{0, "0"}, {999, "999"}, {1000, "1,000"}, {1234567, "1,234,567"}, {12, "12"},
	}
	for _, tt := range tests {
		if got := fmtCount(tt.v); got != tt.want {
			t.Errorf("fmtCount(%d) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestWarmupFor(t *testing.T) {
	s := PaperScale(7200)
	// 4 GB at 100 MB/s: cold fill takes 360 s; the 1200 s floor applies.
	if got := s.WarmupFor(4*s.Unit, 100*s.RateUnit); got != 1200 {
		t.Errorf("4GB warmup = %v, want floor 1200", got)
	}
	// 32 GB at 100 MB/s: 28.8 GB cold at 10 MB/s ≈ 2880 s → 5 periods.
	if got := s.WarmupFor(32*s.Unit, 100*s.RateUnit); got != 3000 {
		t.Errorf("32GB warmup = %v, want 3000", got)
	}
	// 64 GB: 5760 s → 10 periods.
	if got := s.WarmupFor(64*s.Unit, 100*s.RateUnit); got != 6000 {
		t.Errorf("64GB warmup = %v, want 6000", got)
	}
	// Low rate hits the cap.
	if got := s.WarmupFor(16*s.Unit, 5*s.RateUnit); got != s.MaxWarmup {
		t.Errorf("low-rate warmup = %v, want cap %v", got, s.MaxWarmup)
	}
	// Warmup is always a whole number of periods.
	for _, ds := range s.DataSetSizes() {
		w := s.WarmupFor(ds, 100*s.RateUnit)
		if float64(w) != float64(int(float64(w)/float64(s.Period)))*float64(s.Period) {
			t.Errorf("warmup %v not period-aligned", w)
		}
	}
}

func TestClaimsOnQuickSweep(t *testing.T) {
	s := quick()
	points, err := runDataSetSweep(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	claims := CheckFig7(s, points)
	if len(claims) < 6 {
		t.Fatalf("only %d claims evaluated", len(claims))
	}
	// The structurally-robust claims must hold even at quick scale.
	robust := map[string]bool{
		"fig7-baseline":    true,
		"fig7-joint-saves": true,
		"fig7-breakeven":   true,
		"fig7-pd-memory":   true,
	}
	for _, c := range claims {
		if robust[c.ID] && !c.Holds {
			t.Errorf("robust claim %s failed: %s", c.ID, c.Detail)
		}
	}
	var buf bytes.Buffer
	failed := RenderClaims(claims, &buf)
	if !strings.Contains(buf.String(), "fig7-baseline") {
		t.Error("render incomplete")
	}
	var counted int
	for _, c := range claims {
		if !c.Holds {
			counted++
		}
	}
	if failed != counted {
		t.Errorf("failed count %d != %d", failed, counted)
	}
}

func TestClaimsDetectBrokenSweep(t *testing.T) {
	s := quick()
	claims := CheckFig7(s, nil)
	if len(claims) != 1 || claims[0].Holds {
		t.Error("empty sweep not flagged")
	}
	if c := CheckFig8Rate(s, nil); len(c) != 1 || c[0].Holds {
		t.Error("empty rate sweep not flagged")
	}
	if c := CheckFig8Popularity(s, nil); len(c) != 1 || c[0].Holds {
		t.Error("empty popularity sweep not flagged")
	}
}

func TestSweepsRegistry(t *testing.T) {
	for _, id := range []string{"fig7", "fig8rate", "fig8pop"} {
		sw, ok := Sweeps[id]
		if !ok || sw.Produce == nil || sw.Render == nil || sw.Check == nil {
			t.Errorf("sweep %s incompletely registered", id)
		}
	}
	if _, err := RunSweep("table4", quick(), 1, io.Discard, nil, false); err == nil {
		t.Error("non-sweep id accepted")
	}
}

func TestRunSweepWithCSVAndClaims(t *testing.T) {
	var out, csvBuf bytes.Buffer
	failed, err := RunSweep("fig8pop", quick(), 5, &out, &csvBuf, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = failed // claims may or may not hold at quick scale
	if !strings.Contains(out.String(), "claims:") {
		t.Error("claims not rendered")
	}
	csvText := csvBuf.String()
	if !strings.Contains(csvText, "total_pct") || !strings.Contains(csvText, "JOINT") {
		t.Error("CSV incomplete")
	}
	// Header + 5 points × 16 methods rows.
	lines := strings.Count(strings.TrimSpace(csvText), "\n") + 1
	if lines != 1+5*16 {
		t.Errorf("CSV rows = %d, want %d", lines, 1+5*16)
	}
}

func TestRunSweepReplicated(t *testing.T) {
	var buf bytes.Buffer
	if err := RunSweepReplicated("fig8pop", quick(), []int64{1, 2}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "±") || !strings.Contains(out, "JOINT") {
		t.Error("replicated table incomplete")
	}
	// Exactly one row per method (16), plus title/underline/header lines.
	if got := strings.Count(out, "JOINT"); got != 1 {
		t.Errorf("JOINT appears %d times, want 1", got)
	}
	if err := RunSweepReplicated("fig8pop", quick(), []int64{1}, &buf); err == nil {
		t.Error("single seed accepted")
	}
	if err := RunSweepReplicated("table4", quick(), []int64{1, 2}, &buf); err == nil {
		t.Error("non-sweep accepted")
	}
}
