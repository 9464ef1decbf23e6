// Command perfbench is the reproduction's benchmark: one command that
// runs a workload against the tree it was built from, checks the
// program's outputs, and prints every metric by name and unit.
//
// It measures each layer from outside, by timing calls into the
// modules' public functions and reading the hooks the program already
// exposes (chaos.WithTrace, chaos.WithProgress, GET /v1/traces/{id},
// /v1/stats, /metrics). End-to-end metrics come from untraced passes
// (-trace 0); per-layer metrics come from a run with a traced pass
// (-trace 1), which also reports the tracing overhead. The metric
// names, units and bounds are declared once, in BENCHMARK.json at the
// repository root; see NOTES.md for what each one means.
//
// Run it through run.sh, which builds it and chaos-serve from source:
//
//	bash perfbench/run.sh --workload native-pagerank --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A fuller record with host provenance and raw samples is written under
// the build directory's records/ folder.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produced: correctness tallies plus
// the metrics it measured, keyed by their BENCHMARK.json names.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	// samples records how many observations stand behind a value,
	// for the record file (a median of three reads differently from a
	// median of three hundred).
	samples map[string]int
	// extra holds per-run raw figures and validity notes for the record.
	extra map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}, extra: map[string]any{}}
}

// set records a measured value; NaN, the median of no samples, is left
// unset and so reads 0 like any idle layer.
func (o *outcome) set(name string, v float64, n int) {
	if math.IsNaN(v) {
		return
	}
	o.values[name] = v
	o.samples[name] = n
}

// fail counts one failed run or job and remembers why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// config carries the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	buildDir string
	serveBin string
	commit   string
}

// workloads maps each BENCHMARK.json workload name to its runner.
var workloads = map[string]func(cfg config, o *outcome) error{
	"native-pagerank": runEngine,
	"native-spill":    runEngine,
	"des-lab":         runEngine,
	"serve-mixed":     runServe,
	"serve-hits":      runServe,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name from BENCHMARK.json")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
	flag.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "directory for build outputs, scratch files and records")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "chaos-serve binary built from the same tree (serve-mixed)")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the tree was checked out at, if known")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	runner, ok := workloads[cfg.workload]
	if !ok || !spec.hasWorkload(cfg.workload) {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	scratch, err := os.MkdirTemp(cfg.buildDir, "run-*")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	// Every temp file the program makes (native spill directories
	// included) lands inside the checkout.
	os.Setenv("TMPDIR", scratch)

	o := newOutcome()
	started := time.Now()
	refBefore := refLoopMs(5)
	steal0, total0, errA := cpuStat()
	if err := runner(cfg, o); err != nil {
		return err
	}
	steal1, total1, errB := cpuStat()
	o.set("host.ref_loop_ms", median([]float64{refBefore, refLoopMs(5)}), 10)
	if errA == nil && errB == nil {
		o.set("host.steal_share", ratio(steal1-steal0, total1-total0), 1)
	}
	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
	}
	metrics, err := collect(spec, declared, o.values)
	if err != nil {
		return err
	}
	if err := writeRecord(cfg, o, metrics, time.Since(started)); err != nil {
		return err
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// collect picks the declared metrics out of the measured values. A
// declared metric the workload did not measure belongs to a layer this
// workload leaves idle and reads 0; a measured value that is not
// declared is a bug in the benchmark.
func collect(spec *benchSpec, declared []specMetric, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, m := range declared {
		out[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	known := map[string]bool{}
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		known[m.Name] = true
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("measured metric %q is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// writeRecord stores the full record of this run under records/.
func writeRecord(cfg config, o *outcome, metrics map[string]metric, took time.Duration) error {
	dir := filepath.Join(cfg.buildDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := 0
	if cfg.trace {
		mode = 1
	}
	rec := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      mode,
		"took_s":     took.Seconds(),
		"host":       hostInfo(cfg),
		"attempted":  o.attempted,
		"failed":     o.failed,
		"problems":   o.problems,
		"metrics":    metrics,
		"samples":    o.samples,
		"all_values": o.values,
		"extra":      o.extra,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", cfg.workload, cfg.seed, mode, time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
