package policy

import (
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/simtime"
)

func TestMethodNames(t *testing.T) {
	tests := []struct {
		m    Method
		want string
	}{
		{Method{Disk: DiskTwoCompetitive, Mem: MemFixedNap, MemBytes: 8 * simtime.GB}, "2TFM-8GB"},
		{Method{Disk: DiskAdaptive, Mem: MemPowerDown, MemBytes: 128 * simtime.GB}, "ADPD-128GB"},
		{Method{Disk: DiskTwoCompetitive, Mem: MemDisable, MemBytes: 128 * simtime.GB}, "2TDS-128GB"},
		{Joint(128 * simtime.GB), "JOINT"},
		{AlwaysOn(128 * simtime.GB), "ALWAYS-ON"},
	}
	for _, tt := range tests {
		if got := tt.m.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestParseNameRoundTrip(t *testing.T) {
	names := []string{"2TFM-8GB", "2TFM-16GB", "ADFM-128GB", "2TPD-128GB",
		"ADDS-128GB", "2TDS-64MB", "DRFM-256MB", "DRDS-128GB", "JOINT", "ALWAYS-ON"}
	for _, n := range names {
		m, err := ParseName(n)
		if err != nil {
			t.Errorf("ParseName(%q): %v", n, err)
			continue
		}
		if m.IsJoint() || m.Disk == DiskAlwaysOn {
			continue // size-less names
		}
		if got := m.Name(); got != n {
			t.Errorf("round trip %q -> %q", n, got)
		}
	}
}

func TestParseNameRejects(t *testing.T) {
	for _, n := range []string{"", "XXFM-8GB", "2TXX-8GB", "2TFM", "2TFM-", "2TFM-xyz"} {
		if _, err := ParseName(n); err == nil {
			t.Errorf("ParseName(%q) accepted", n)
		}
	}
}

func TestComparisonSet(t *testing.T) {
	sizes := []simtime.Bytes{8 * simtime.GB, 16 * simtime.GB, 32 * simtime.GB, 64 * simtime.GB, 128 * simtime.GB}
	ms := Comparison(128*simtime.GB, sizes)
	// Paper: 14 combination methods + joint + always-on = 16.
	if len(ms) != 16 {
		t.Fatalf("comparison set has %d methods, want 16", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		if names[m.Name()] {
			t.Errorf("duplicate method %s", m.Name())
		}
		names[m.Name()] = true
	}
	for _, want := range []string{"2TFM-8GB", "ADFM-128GB", "2TPD-128GB", "ADDS-128GB", "JOINT", "ALWAYS-ON"} {
		if !names[want] {
			t.Errorf("missing method %s", want)
		}
	}
}

func TestSortMethods(t *testing.T) {
	ms := []Method{
		AlwaysOn(128 * simtime.GB),
		Joint(128 * simtime.GB),
		{Disk: DiskAdaptive, Mem: MemFixedNap, MemBytes: 8 * simtime.GB},
		{Disk: DiskTwoCompetitive, Mem: MemFixedNap, MemBytes: 16 * simtime.GB},
		{Disk: DiskTwoCompetitive, Mem: MemFixedNap, MemBytes: 8 * simtime.GB},
	}
	SortMethods(ms)
	if ms[len(ms)-1].Name() != "ALWAYS-ON" || ms[len(ms)-2].Name() != "JOINT" {
		t.Errorf("tail order wrong: %s, %s", ms[len(ms)-2].Name(), ms[len(ms)-1].Name())
	}
	if ms[0].Name() != "2TFM-8GB" || ms[1].Name() != "2TFM-16GB" {
		t.Errorf("head order wrong: %s, %s", ms[0].Name(), ms[1].Name())
	}
}

func TestBankPolicyMapping(t *testing.T) {
	if MemFixedNap.BankPolicy().String() != "nap" {
		t.Error("FM mapping")
	}
	if MemPowerDown.BankPolicy().String() != "power-down" {
		t.Error("PD mapping")
	}
	if MemDisable.BankPolicy().String() != "disable" {
		t.Error("DS mapping")
	}
	if MemJoint.BankPolicy().String() != "nap" {
		t.Error("joint mapping")
	}
}

func TestAdaptiveTimeoutAdjusts(t *testing.T) {
	d := disk.New(disk.Barracuda(), 0.5)
	a := NewAdaptiveTimeout(d)
	if a.Timeout() != 10 {
		t.Fatalf("start timeout = %v", a.Timeout())
	}
	// Short idle before a spin-up (ratio 10/idle > 0.05): increase.
	a.IdleEnded(50, true)
	if a.Timeout() != 15 {
		t.Errorf("timeout = %v, want 15", a.Timeout())
	}
	// Long idle before a spin-up: decrease.
	a.IdleEnded(1000, true)
	if a.Timeout() != 10 {
		t.Errorf("timeout = %v, want 10", a.Timeout())
	}
	// Idle gaps without spin-down leave it alone.
	a.IdleEnded(3, false)
	if a.Timeout() != 10 {
		t.Errorf("timeout = %v, want 10", a.Timeout())
	}
}

func TestAdaptiveTimeoutBounds(t *testing.T) {
	d := disk.New(disk.Barracuda(), 0.5)
	a := NewAdaptiveTimeout(d)
	for i := 0; i < 10; i++ {
		a.IdleEnded(20, true) // always "too short" → increase
	}
	if a.Timeout() != a.Max {
		t.Errorf("timeout = %v, want cap %v", a.Timeout(), a.Max)
	}
	for i := 0; i < 10; i++ {
		a.IdleEnded(1e6, true)
	}
	if a.Timeout() != a.Min {
		t.Errorf("timeout = %v, want floor %v", a.Timeout(), a.Min)
	}
}

func TestAdaptiveTimeoutDrivesDisk(t *testing.T) {
	d := disk.New(disk.Barracuda(), 0.5)
	NewAdaptiveTimeout(d)
	if d.Timeout() != 10 {
		t.Fatalf("disk timeout = %v, want 10", d.Timeout())
	}
	// End-to-end: a long gap spins the disk down, the observer fires, and
	// the new timeout lands on the disk.
	d.Submit(0, simtime.MB)
	d.Submit(100, simtime.MB) // 100 s idle; ratio 10/100 > 0.05 → increase
	if d.Timeout() != 15 {
		t.Errorf("disk timeout after spin-up = %v, want 15", d.Timeout())
	}
}

func TestKindStrings(t *testing.T) {
	if DiskTwoCompetitive.String() != "2T" || DiskAdaptive.String() != "AD" ||
		DiskAlwaysOn.String() != "ON" || DiskJoint.String() != "JT" {
		t.Error("disk kind strings")
	}
	if MemFixedNap.String() != "FM" || MemPowerDown.String() != "PD" ||
		MemDisable.String() != "DS" || MemJoint.String() != "JT" {
		t.Error("mem kind strings")
	}
	if DiskKind(99).String() != "??" || MemKind(99).String() != "??" {
		t.Error("unknown kind strings")
	}
}
