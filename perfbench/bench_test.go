package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload at its tiny size, untraced and traced,
// and checks the result line: every catalogued metric of the mode is
// there with its unit, end-to-end metrics are positive, and no
// operation or output check failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			w, traced := w, traced
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", traced,
					"-tiny", "-out", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !strings.Contains(lines[0], `"fold_kernel"`) {
					t.Errorf("first line is not the host stamp: %s", lines[0])
				}
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				var keys []string
				for k := range res {
					keys = append(keys, k)
				}
				if len(keys) != 4 {
					t.Errorf("result keys %v, want correct, attempted, failed, metrics", keys)
				}
				var r resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d (error rate must be 0)\n%s",
						r.Correct, r.Attempted, r.Failed, out.String())
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case traced == "0" && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json to the
// catalogue in metrics.go.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type benchJSON struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	want := benchJSON{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		want.EndToEnd = append(want.EndToEnd, metric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, metric{m.Name, m.Unit, m.Better, nil})
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the catalogue; want:\n%s", exp)
	}
}

// TestCatalogueDocumented checks that METRICS.md names every workload
// and metric, and that every older BENCH_*.json file is superseded by
// some metric of the catalogue.
func TestCatalogueDocumented(t *testing.T) {
	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !bytes.Contains(doc, []byte("`"+w.Name+"`")) {
			t.Errorf("METRICS.md does not describe workload %s", w.Name)
		}
	}
	var supersedes strings.Builder
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if !bytes.Contains(doc, []byte("`"+m.Name+"`")) {
				t.Errorf("METRICS.md does not describe metric %s", m.Name)
			}
			supersedes.WriteString(m.Supersedes + "\n")
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", m.Name)
		}
	}
	olds, _ := filepath.Glob(filepath.Join("..", "BENCH_*.json"))
	more, _ := filepath.Glob(filepath.Join("..", "internal", "experiments", "BENCH_*.json"))
	for _, p := range append(olds, more...) {
		if name := filepath.Base(p); !strings.Contains(supersedes.String(), name) {
			t.Errorf("no metric supersedes %s", name)
		}
	}
}
