package fault

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPlanDecode holds the fault-plan parser to its contract on arbitrary
// input: decoding and validation never panic, and a plan it accepts
// re-encodes to JSON that parses back to the same plan.
func FuzzPlanDecode(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "faults", "*.json"))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"seed":1,"trace":[{"start_s":10,"end_s":5}]}`))
	f.Add([]byte(`{"disk":{"spinup_fail_prob":2}}`))
	f.Add([]byte(`{"trace":[{"start_s":0},{"start_s":1}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		q, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("re-encoded plan rejected: %v\n%s", err, enc)
		}
		again, _ := json.Marshal(q)
		if !bytes.Equal(enc, again) {
			t.Fatalf("plan does not round-trip:\n%s\n%s", enc, again)
		}
	})
}
