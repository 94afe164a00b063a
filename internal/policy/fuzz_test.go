package policy

import "testing"

// FuzzParseName: the method-name parser never panics, and any accepted
// sized method round-trips through Name().
func FuzzParseName(f *testing.F) {
	for _, s := range []string{"JOINT", "ALWAYS-ON", "2TFM-8GB", "ADPD-128GB", "EAFM-16GB", "DRFM-256MB", "", "2T", "XXYY-1GB"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseName(s)
		if err != nil {
			return
		}
		if m.IsJoint() || m.Disk == DiskAlwaysOn {
			return // size-less canonical names
		}
		again, err := ParseName(m.Name())
		if err != nil {
			t.Fatalf("canonical name %q not re-parseable: %v", m.Name(), err)
		}
		if again != m {
			t.Fatalf("round trip %q -> %q changed method", s, m.Name())
		}
	})
}
