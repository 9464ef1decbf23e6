// Package experiments regenerates every table and figure of the Chaos
// evaluation (SOSP 2015, §8-§10) at laboratory scale: the same sweeps, the
// same normalizations and the same comparisons, run against the simulated
// rack described in DESIGN.md. Absolute numbers differ from the paper's
// testbed; shapes, winners and crossovers are the reproduction target, and
// EXPERIMENTS.md records both sides for every experiment.
//
// Record emission must be byte-stable across runs — BENCH_*.json files
// are committed and diffed — so every file in this package that could
// iterate a map carries //chaos:sorted-maps and is checked by
// chaos-vet's detrange analyzer.
//
//chaos:sorted-maps
package experiments

import (
	"fmt"
	"io"

	"chaos"
)

// Scale selects the experiment size. Lab is sized so the full suite runs
// in a couple of minutes inside the discrete-event simulation.
type Scale struct {
	// WeakBase is the RMAT scale run on one machine in weak-scaling
	// sweeps (doubling per doubling of machines, as RMAT-27..32 in §9.1).
	WeakBase int
	// StrongScale is the fixed RMAT scale of strong-scaling sweeps
	// (RMAT-27 in §9.2).
	StrongScale int
	// WebPages is the synthetic Data Commons page count (§9.2).
	WebPages uint64
	// Machines is the cluster-size sweep (1..32 in the paper).
	Machines []int
	// ChunkBytes scales the 4 MB chunk down with the graphs.
	ChunkBytes int
	// PartitionsPerMachine forces the streaming-partition multiple.
	PartitionsPerMachine int
	// Storage and Network set the default modeled hardware for every
	// experiment (chaos-bench -storage/-network); experiments that sweep
	// a device still apply their own override on top.
	Storage chaos.Storage
	Network chaos.Network
	// Name labels the scale in machine-readable benchmark records.
	Name string
	// BenchDir, when set, makes experiments that support it write
	// BENCH_<experiment>.json records there (chaos-bench -bench-json).
	BenchDir string
}

// Lab is the default laboratory scale, calibrated so that chunk counts per
// partition stay large enough for the randomized protocol to behave as it
// does at paper scale, while the whole suite still runs in minutes.
var Lab = Scale{
	Name:                 "lab",
	WeakBase:             10,
	StrongScale:          12,
	WebPages:             1 << 14,
	Machines:             []int{1, 2, 4, 8, 16, 32},
	ChunkBytes:           1 << 10,
	PartitionsPerMachine: 2,
}

// Quick is a reduced scale for smoke tests.
var Quick = Scale{
	Name:                 "quick",
	WeakBase:             8,
	StrongScale:          9,
	WebPages:             1 << 11,
	Machines:             []int{1, 4, 16},
	ChunkBytes:           1 << 10,
	PartitionsPerMachine: 2,
}

// options builds run options for m machines over a graph with n vertices
// whose vertex records occupy roughly vbytes.
func (s Scale) options(m int, n uint64) chaos.Options {
	const vbytes = 8
	budget := int64(n)*vbytes/int64(s.PartitionsPerMachine*m) + vbytes
	return chaos.Options{
		Machines:       m,
		Storage:        s.Storage,
		Network:        s.Network,
		ChunkBytes:     s.ChunkBytes,
		MemBudgetBytes: budget,
		LatencyScale:   float64(s.ChunkBytes) / float64(4<<20),
		Seed:           1,
	}
}

// graphFor generates the RMAT input for one algorithm at the given scale.
func graphFor(alg string, scale int) ([]chaos.Edge, uint64) {
	edges := chaos.GenerateRMAT(scale, chaos.NeedsWeights(alg), 42)
	return edges, uint64(1) << uint(scale)
}

// header prints an experiment banner.
func header(w io.Writer, id, title, paper string) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", id, title)
	fmt.Fprintf(w, "    paper: %s\n", paper)
}

// series prints one named row of values.
func series(w io.Writer, name string, xs []int, vals []float64, format string) {
	fmt.Fprintf(w, "  %-14s", name)
	for i := range xs {
		fmt.Fprintf(w, " "+format, vals[i])
	}
	fmt.Fprintln(w)
}

// xAxis prints the machine-count axis row.
func xAxis(w io.Writer, label string, xs []int) {
	fmt.Fprintf(w, "  %-14s", label)
	for _, x := range xs {
		fmt.Fprintf(w, " %8d", x)
	}
	fmt.Fprintln(w)
}
