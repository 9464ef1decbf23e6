//go:build ignore

// perf_gate compares a freshly measured BENCH_native.json against the
// committed record (records/BENCH_native.json) and fails when any arm
// got more than -factor times slower, with -slack seconds of absolute
// headroom so quick-scale runs (tens of milliseconds) are not judged
// on scheduler noise. It is the CI tripwire for engine wall-clock
// regressions: the committed record is the trajectory, the fresh run
// is today.
//
// Different hosts are different speeds, which is why the gate is a
// coarse 2x and not a percentage — it catches "accidentally quadratic",
// not "3% slower".
//
//	go run scripts/perf_gate.go -fresh BENCH_native.json -committed records/BENCH_native.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// record mirrors the fields of experiments.BenchRecord the gate reads.
type record struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Arms       []struct {
		Name        string  `json:"name"`
		WallSeconds float64 `json:"wall_seconds"`
	} `json:"arms"`
}

func load(path string) (record, error) {
	var r record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	var (
		freshPath     = flag.String("fresh", "BENCH_native.json", "record measured by this run")
		committedPath = flag.String("committed", "records/BENCH_native.json", "record committed to the repo")
		factor        = flag.Float64("factor", 2.0, "fail when fresh wall-clock exceeds committed*factor+slack")
		slack         = flag.Float64("slack", 0.75, "absolute headroom in seconds per arm")
		armFactors    = flag.String("arm-factors", "oocore=3",
			"per-arm factor overrides as name=factor[,name=factor...]; disk-bound arms get a wider envelope than CPU-bound ones")
	)
	flag.Parse()
	perArm := make(map[string]float64)
	if *armFactors != "" {
		for _, kv := range strings.Split(*armFactors, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "perf_gate: bad -arm-factors entry %q (want name=factor)\n", kv)
				os.Exit(1)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perf_gate: bad factor in %q: %v\n", kv, err)
				os.Exit(1)
			}
			perArm[name] = f
		}
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf_gate:", err)
		os.Exit(1)
	}
	committed, err := load(*committedPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf_gate:", err)
		os.Exit(1)
	}
	if fresh.Scale != committed.Scale {
		fmt.Fprintf(os.Stderr, "perf_gate: scale mismatch: fresh %q vs committed %q — not comparable\n",
			fresh.Scale, committed.Scale)
		os.Exit(1)
	}
	base := make(map[string]float64, len(committed.Arms))
	for _, a := range committed.Arms {
		base[a.Name] = a.WallSeconds
	}
	failed := false
	for _, a := range fresh.Arms {
		want, ok := base[a.Name]
		if !ok {
			// A new arm has no trajectory yet; report, don't fail.
			fmt.Printf("perf_gate: arm %-12s %8.3fs (no committed baseline)\n", a.Name, a.WallSeconds)
			continue
		}
		f := *factor
		if af, ok := perArm[a.Name]; ok {
			f = af
		}
		limit := want*f + *slack
		verdict := "ok"
		if a.WallSeconds > limit {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("perf_gate: arm %-12s %8.3fs vs committed %8.3fs (limit %8.3fs) %s\n",
			a.Name, a.WallSeconds, want, limit, verdict)
	}
	if len(fresh.Arms) == 0 {
		fmt.Fprintln(os.Stderr, "perf_gate: fresh record has no arms")
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "perf_gate: wall-clock regression past the factor+slack envelope")
		os.Exit(1)
	}
}
