package core

import (
	"reflect"
	"runtime"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/gas"
	"chaos/internal/graph"
)

// checkWorkerDeterminism runs the same program twice — once with the Go
// scheduler confined to one OS thread (GOMAXPROCS = 1) and once with
// eight — and requires bit-identical vertex values and a bit-identical
// metrics.Run, including every simulated timestamp-derived figure. Chunk
// compute runs inline inside simulation processes, which are goroutines,
// so the host's thread count is the only worker count left; it must
// never leak into the results.
func checkWorkerDeterminism[V, U, A any](t *testing.T, name string,
	mkProg func() gas.Program[V, U, A], edges []graph.Edge, n uint64, mutate func(*Config)) {
	t.Helper()
	cfg := testConfig(4, n, 8)
	if mutate != nil {
		mutate(&cfg)
	}
	run := func(procs int) ([]V, any) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		vals, r, err := Run(cfg, mkProg(), edges, n)
		if err != nil {
			t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
		}
		return vals, r
	}
	sVals, sRun := run(1)
	pVals, pRun := run(8)
	if !reflect.DeepEqual(sVals, pVals) {
		t.Errorf("%s: values differ across GOMAXPROCS", name)
	}
	if !reflect.DeepEqual(sRun, pRun) {
		t.Errorf("%s: run metrics differ across GOMAXPROCS:\n1: %+v\n8: %+v", name, sRun, pRun)
	}
}

// TestParallelChunkProcessingIsDeterministic covers the three required
// algorithm shapes: PR (float accumulators, dense updates), SSSP
// (weighted edges, min-folds), SCC (multi-phase with engine-visible
// program state).
func TestParallelChunkProcessingIsDeterministic(t *testing.T) {
	edges, n := testGraph(8, true)

	checkWorkerDeterminism(t, "PR",
		func() gas.Program[algorithms.PRVertex, float32, float64] {
			return &algorithms.PageRank{Iterations: 5}
		}, edges, n, nil)

	checkWorkerDeterminism(t, "SSSP",
		func() gas.Program[algorithms.SSSPVertex, float32, float32] {
			return &algorithms.SSSP{}
		}, graph.Undirected(edges), n, nil)

	checkWorkerDeterminism(t, "SCC",
		func() gas.Program[algorithms.SCCVertex, uint32, algorithms.SCCAccum] {
			return &algorithms.SCC{}
		}, algorithms.AugmentEdges(edges), n, nil)
}

// The extended-model paths run their kernels inline too: the combiner
// merges inside per-chunk maps, the rewriter emits next-generation edge
// chunks, and checkpoint/rollback replays iterations.
func TestParallelExtensionsAreDeterministic(t *testing.T) {
	edges, n := testGraph(8, true)

	checkWorkerDeterminism(t, "PR+combine",
		func() gas.Program[algorithms.PRVertex, float32, float64] {
			return &algorithms.PageRank{Iterations: 5}
		}, edges, n, func(c *Config) { c.CombineUpdates = true })

	checkWorkerDeterminism(t, "MCST+rewrite",
		func() gas.Program[algorithms.MCSTVertex, algorithms.MCSTUpdate, algorithms.MCSTAccum] {
			return &algorithms.MCST{}
		}, graph.Undirected(edges), n, func(c *Config) { c.RewriteEdges = true })

	checkWorkerDeterminism(t, "PR+ckpt+fail",
		func() gas.Program[algorithms.PRVertex, float32, float64] {
			return &algorithms.PageRank{Iterations: 5}
		}, edges, n, func(c *Config) { c.CheckpointEvery = 2; c.FailAtIteration = 3 })
}
