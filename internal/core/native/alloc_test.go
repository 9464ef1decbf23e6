package native_test

import (
	"runtime"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/core"
	"chaos/internal/core/native"
)

// TestAllocsPerEdgeIteration guards the allocation-free steady state of
// the in-memory update path: once the first iteration has sized the
// resident buckets and warmed the chunk pools, an iteration of PageRank
// with no memory budget allocates almost nothing. The per-iteration
// cost is the difference between a 10- and a 5-iteration run, over
// 5 x edges; the best of three runs of each keeps a GC that empties the
// pools mid-run from failing the guard.
func TestAllocsPerEdgeIteration(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const maxBytesPerEdge = 2.0
	edges, n := rmatEdges(12, false, 15)
	c := core.DefaultConfig(cluster.SSD(4))
	c.ChunkBytes = 4 << 10
	c.TransportBudgetBytes = 0
	allocs := func(iters int) uint64 {
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := native.Run(c, &algorithms.PageRank{Iterations: iters}, edges, n); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	short, long := allocs(5), allocs(10)
	perEdge := (float64(long) - float64(short)) / float64(5*len(edges))
	t.Logf("%d edges: %d B at 5 iterations, %d B at 10: %.2f B per edge per iteration", len(edges), short, long, perEdge)
	if perEdge > maxBytesPerEdge {
		t.Fatalf("steady-state iterations allocate %.2f B per edge, want at most %.1f", perEdge, maxBytesPerEdge)
	}
}
