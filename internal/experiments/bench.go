package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// BenchArm is one measured series of a benchmark experiment: a named
// configuration swept over the machine axis, with the simulated runtime
// per point and the host wall-clock the whole sweep cost.
type BenchArm struct {
	Name             string    `json:"name"`
	Machines         []int     `json:"machines"`
	SimulatedSeconds []float64 `json:"simulated_seconds"`
	WallSeconds      float64   `json:"wall_seconds"`
	// WallSecondsPerPoint breaks WallSeconds down per machine-axis
	// point, for experiments whose arms are compared on wall-clock
	// (the native-vs-DES record). Empty for the simulated figures.
	WallSecondsPerPoint []float64 `json:"wall_seconds_per_point,omitempty"`
	// SpillBytesPerPoint records the out-of-core spill traffic per
	// point; present only on the forced-spill (oocore) arm.
	SpillBytesPerPoint []int64 `json:"spill_bytes_per_point,omitempty"`
}

// BenchRecord is the machine-readable result of one benchmark experiment,
// written as BENCH_<experiment>.json next to the human-readable output.
// Wall-clock numbers track the reproduction's own performance trajectory
// across PRs (compare wall_seconds between runs of the same scale on the
// same host); simulated numbers are the paper-facing results.
type BenchRecord struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	// GoMaxProcs identifies the host parallelism the wall-clock numbers
	// were measured under (simulated numbers are identical for every
	// value).
	GoMaxProcs  int        `json:"gomaxprocs"`
	WallSeconds float64    `json:"wall_seconds"`
	GeneratedAt string     `json:"generated_at"`
	Arms        []BenchArm `json:"arms"`
	// NativeBeatsDES is set by the native-vs-DES experiment: true when
	// the native plane's summed wall-clock was at or under the DES
	// driver's on the same graphs (the CI bench smoke asserts it).
	// Absent from every other record; a pointer so a losing run still
	// serializes an explicit false instead of vanishing from the JSON.
	NativeBeatsDES *bool `json:"native_beats_des,omitempty"`
}

// newBenchRecord starts a record for the given experiment at this scale.
func (s Scale) newBenchRecord(experiment string) *BenchRecord {
	return &BenchRecord{
		Experiment:  experiment,
		Scale:       s.Name,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// emitBench writes the record to BENCH_<experiment>.json under
// Scale.BenchDir. An empty BenchDir (the Lab/Quick defaults, used by the
// test harness) disables emission.
func (s Scale) emitBench(rec *BenchRecord) error {
	if s.BenchDir == "" {
		return nil
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.BenchDir, "BENCH_"+rec.Experiment+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("experiments: writing %s: %w", path, err)
	}
	return nil
}
