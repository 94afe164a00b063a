// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed wall-clock budget, checks the program's outputs,
// and prints one JSON result line:
//
//	perfbench --workload stream-1disk --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the run records spans around every
// call into the layers it drives and reports the per-layer metrics
// instead; the spans are written to <out>/spans/ when the run ends.
// Workloads, metrics and the layer each metric belongs to are listed in
// metrics.go and METRICS.md. All inputs are generated from --seed; the
// program under test only ever sees the generated traces.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// runSeconds is the measurement budget BENCHMARK.json gives each run,
// and the default of --seconds.
const runSeconds = 20

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool   // smoke-test sizes
	out      string // directory for checkpoints and span files
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measurement budget in wall seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.traced = trace == 1
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if workloadRunner(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	return o, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func workloadRunner(name string) func(*env) error {
	switch name {
	case wStream:
		return runStream
	case wFleet:
		return runFleet
	case wSim:
		return runSimSweep
	}
	return nil
}

// run parses args, runs the workload, and prints the host stamp, the
// span summary (traced runs) and, last, the result line.
func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	ckptDir, err := os.MkdirTemp(ensureDir(o.out), "ckpt-")
	if err != nil {
		return fmt.Errorf("creating checkpoint directory: %w", err)
	}
	defer os.RemoveAll(ckptDir)

	e := &env{opt: o, ckptDir: ckptDir, layer: map[string]float64{}, e2e: map[string]float64{}}
	if o.traced {
		e.tr = newTracer()
	}
	stamp := hostStamp(ckptDir)
	if err := json.NewEncoder(stdout).Encode(map[string]any{"host": stamp}); err != nil {
		return err
	}
	if err := workloadRunner(o.workload)(e); err != nil {
		return err
	}
	for _, n := range e.notes {
		fmt.Fprintln(stdout, "note:", n)
	}

	res, err := e.result()
	if err != nil {
		return err
	}
	if o.traced {
		path := filepath.Join(ensureDir(filepath.Join(o.out, "spans")),
			fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := e.tr.write(path, stamp); err != nil {
			return err
		}
		if err := e.tr.summary(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "spans:", path)
	}
	return json.NewEncoder(stdout).Encode(res)
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first file created in dir
	return dir
}

// env is one run's shared state: options, the op/check tally, the
// tracer (nil when tracing is off) and the collected metrics.
type env struct {
	opt     options
	ckptDir string
	tr      *tracer

	attempted, failed int64
	notes             []string

	e2e   map[string]float64
	layer map[string]float64
}

// deadline returns the wall time at which a measurement loop that
// started now must stop.
func (e *env) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(e.opt.seconds * share * float64(time.Second)))
}

// op counts one operation of the workload and records whether it failed.
func (e *env) op(err error) error {
	e.attempted++
	if err != nil {
		e.failed++
		e.notes = append(e.notes, "failed: "+err.Error())
	}
	return err
}

// check counts one untimed output check.
func (e *env) check(name string, err error) {
	e.attempted++
	if err != nil {
		e.failed++
		e.notes = append(e.notes, fmt.Sprintf("check %s failed: %v", name, err))
		return
	}
	e.notes = append(e.notes, "check "+name+": ok")
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// result assembles the result line: the end-to-end metrics untraced,
// the per-layer metrics traced. A per-layer metric the workload does not
// exercise reports 0; an end-to-end metric must always be measured.
func (e *env) result() (resultLine, error) {
	res := resultLine{
		Correct:   e.failed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metricValue{},
	}
	if e.attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	if !e.opt.traced {
		for _, m := range endToEnd {
			v, ok := e.e2e[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return res, fmt.Errorf("end-to-end metric %s not measured (got %v)", m.Name, v)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		return res, nil
	}
	for _, m := range perLayer {
		v := e.layer[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("per-layer metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// timeSetup runs build n times and returns the median wall time; every
// repetition builds identical state from the seed, and the last one is
// kept.
func timeSetup(n int, build func() error) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapPeak tracks the peak live heap. Each sample forces a collection
// and reads runtime/metrics /gc/heap/live:bytes, so it is the heap
// reachable at that instant rather than at whichever collection last
// ran. Samples are taken only in untimed passes.
type heapPeak struct {
	sample [1]metrics.Sample
	peak   uint64
	n      int
}

func newHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.sample[0].Name = "/gc/heap/live:bytes"
	return h
}

func (h *heapPeak) observe() {
	runtime.GC()
	metrics.Read(h.sample[:])
	if h.sample[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, h.sample[0].Value.Uint64())
		h.n++
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// populationSeed fixes the file population every workload's traces are
// generated over: which files exist, their sizes, and which are popular.
// The population is part of a workload's definition. --seed drives the
// request stream over it (through the synthesizer's data-set scaling,
// which spreads each file's accesses over its replicas), so runs with
// different seeds see different inputs of the same workload rather than
// workloads whose page-per-request mix differs by tens of percent.
const populationSeed = 1

var errNoProgress = errors.New("measurement loop made no progress")

// boundaries stores the boundary percentiles and notes them, with the
// p99 and the sample count. The p90 is the reported tail: on a shared
// 2-vCPU virtual machine the p99 is set by hypervisor steal and moved by
// half between runs of identical code.
func (e *env) boundaries(ms []float64) {
	e.e2e["boundary_p50_ms"] = quantile(ms, 0.5)
	e.e2e["boundary_p90_ms"] = quantile(ms, 0.9)
	e.note("%s: boundary p50 %.4f ms, p90 %.4f ms, p99 %.4f ms over %d samples", e.opt.workload,
		quantile(ms, 0.5), quantile(ms, 0.9), quantile(ms, 0.99), len(ms))
}
