// Package refalgo provides simple sequential in-memory reference
// implementations of the evaluation algorithms. The test suite validates
// the Chaos engine's distributed, out-of-core results against these.
package refalgo

import (
	"container/heap"
	"math"
	"sort"

	"chaos/internal/graph"
)

// BFSLevels returns the BFS level of every vertex from root (max uint32 for
// unreachable vertices).
func BFSLevels(adj *graph.Adjacency, root graph.VertexID) []uint32 {
	const inf = ^uint32(0)
	levels := make([]uint32, adj.N)
	for i := range levels {
		levels[i] = inf
	}
	levels[root] = 0
	frontier := []graph.VertexID{root}
	for len(frontier) > 0 {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, e := range adj.Out[v] {
				if levels[e.Dst] == inf {
					levels[e.Dst] = levels[v] + 1
					next = append(next, e.Dst)
				}
			}
		}
		frontier = next
	}
	return levels
}

// WCCLabels returns the minimum vertex ID in each vertex's weakly connected
// component (the edge list must already be symmetric).
func WCCLabels(adj *graph.Adjacency) []uint32 {
	labels := make([]uint32, adj.N)
	for i := range labels {
		labels[i] = uint32(i)
	}
	// Union-find by minimum label.
	parent := make([]int, adj.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := range adj.Out {
		for _, e := range adj.Out[v] {
			a, b := find(v), find(int(e.Dst))
			if a != b {
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
		}
	}
	for i := range labels {
		labels[i] = uint32(find(i))
	}
	return labels
}

// distHeap is a min-heap for Dijkstra.
type distItem struct {
	v graph.VertexID
	d float32
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// SSSPDistances returns Dijkstra distances from root (math.MaxFloat32 for
// unreachable vertices, the same sentinel as algorithms.Inf).
func SSSPDistances(adj *graph.Adjacency, root graph.VertexID) []float32 {
	inf := float32(math.MaxFloat32)
	dist := make([]float32, adj.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	h := &distHeap{{root, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, e := range adj.Out[it.v] {
			nd := it.d + e.Weight
			if nd < dist[e.Dst] {
				dist[e.Dst] = nd
				heap.Push(h, distItem{e.Dst, nd})
			}
		}
	}
	return dist
}

// PageRank runs iters rounds of the Figure 2 recurrence sequentially.
func PageRank(adj *graph.Adjacency, iters int) []float64 {
	rank := make([]float64, adj.N)
	for i := range rank {
		rank[i] = 1
	}
	for it := 0; it < iters; it++ {
		sum := make([]float64, adj.N)
		for v := range adj.Out {
			deg := len(adj.Out[v])
			if deg == 0 {
				continue
			}
			share := rank[v] / float64(deg)
			for _, e := range adj.Out[v] {
				sum[e.Dst] += share
			}
		}
		for i := range rank {
			rank[i] = 0.15 + 0.85*sum[i]
		}
	}
	return rank
}

// MSTWeight returns the total weight of a minimum spanning forest
// (Kruskal's algorithm; the edge list must be symmetric).
func MSTWeight(adj *graph.Adjacency) (float64, int) {
	type we struct {
		w        float32
		src, dst graph.VertexID
	}
	var edges []we
	for v := range adj.Out {
		for _, e := range adj.Out[v] {
			if e.Src < e.Dst { // each undirected edge once
				edges = append(edges, we{e.Weight, e.Src, e.Dst})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]int, adj.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var total float64
	count := 0
	for _, e := range edges {
		a, b := find(int(e.src)), find(int(e.dst))
		if a != b {
			parent[a] = b
			total += float64(e.w)
			count++
		}
	}
	return total, count
}

// SCCIDs returns strongly connected component IDs via Tarjan's algorithm
// (iterative).
func SCCIDs(adj *graph.Adjacency) []uint32 {
	n := int(adj.N)
	const undef = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]uint32, n)
	for i := range index {
		index[i] = undef
	}
	next := 0
	var stack []int
	var ncomp uint32

	type frame struct {
		v, ei int
	}
	for start := 0; start < n; start++ {
		if index[start] != undef {
			continue
		}
		work := []frame{{start, 0}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(adj.Out[v]) {
				w := int(adj.Out[v][f.ei].Dst)
				f.ei++
				if index[w] == undef {
					work = append(work, frame{w, 0})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			// v finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return comp
}

// SpMV computes y = A*x where A[dst][src] = weight.
func SpMV(adj *graph.Adjacency, x []float32) []float64 {
	y := make([]float64, adj.N)
	for v := range adj.Out {
		for _, e := range adj.Out[v] {
			y[e.Dst] += float64(e.Weight) * float64(x[v])
		}
	}
	return y
}

// Conductance computes cut(S,~S)/min(vol(S), vol(~S)) for membership inS.
func Conductance(adj *graph.Adjacency, inS func(graph.VertexID) bool) float64 {
	var cut, volS, volO uint64
	for v := range adj.Out {
		s := inS(graph.VertexID(v))
		if s {
			volS += uint64(len(adj.Out[v]))
		} else {
			volO += uint64(len(adj.Out[v]))
		}
		for _, e := range adj.Out[v] {
			if s != inS(e.Dst) {
				cut++
			}
		}
	}
	den := volS
	if volO < den {
		den = volO
	}
	if den == 0 {
		return 0
	}
	return float64(cut) / float64(den)
}

// IsIndependentSet verifies no two set members are adjacent.
func IsIndependentSet(adj *graph.Adjacency, in []bool) bool {
	for v := range adj.Out {
		if !in[v] {
			continue
		}
		for _, e := range adj.Out[v] {
			if e.Dst != graph.VertexID(v) && in[e.Dst] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependentSet verifies independence plus maximality: every
// non-member has a member neighbor (self-loops ignored).
func IsMaximalIndependentSet(adj *graph.Adjacency, in []bool) bool {
	if !IsIndependentSet(adj, in) {
		return false
	}
	for v := range adj.Out {
		if in[v] {
			continue
		}
		covered := false
		for _, e := range adj.Out[v] {
			if e.Dst != graph.VertexID(v) && in[e.Dst] {
				covered = true
				break
			}
		}
		if !covered && len(nonSelf(adj.Out[v], graph.VertexID(v))) > 0 {
			return false
		}
		if !covered && len(nonSelf(adj.Out[v], graph.VertexID(v))) == 0 {
			// Isolated vertex must be in the set.
			return false
		}
	}
	return true
}

func nonSelf(es []graph.Edge, v graph.VertexID) []graph.Edge {
	var out []graph.Edge
	for _, e := range es {
		if e.Dst != v {
			out = append(out, e)
		}
	}
	return out
}

// BPBeliefs runs the same simplified BP recurrence sequentially.
func BPBeliefs(adj *graph.Adjacency, prior func(graph.VertexID) float32, iters int) []float32 {
	belief := make([]float32, adj.N)
	for i := range belief {
		belief[i] = prior(graph.VertexID(i))
	}
	for it := 0; it < iters; it++ {
		sum := make([]float64, adj.N)
		for v := range adj.Out {
			msg := float64(0)
			for _, e := range adj.Out[v] {
				msg = float64(e.Weight) * math.Tanh(float64(belief[v]))
				sum[e.Dst] += float64(float32(msg))
			}
		}
		for i := range belief {
			nb := float64(prior(graph.VertexID(i))) + 0.5*sum[i]
			if nb > 10 {
				nb = 10
			}
			if nb < -10 {
				nb = -10
			}
			belief[i] = float32(nb)
		}
	}
	return belief
}
