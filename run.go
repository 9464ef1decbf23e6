package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"chaos/internal/algorithms"
	"chaos/internal/core"
	"chaos/internal/core/native"
	"chaos/internal/gas"
	"chaos/internal/metrics"
)

// runProgram executes a GAS program through the configured driver —
// the DES engine by default, the native execution plane for
// Options.Engine = "native" — and wraps the statistics. A cancelable ctx
// is observed at iteration boundaries under both drivers: the run
// finishes the current iteration, unwinds cleanly and the error is
// ctx.Err() (so callers can errors.Is against context.Canceled).
func runProgram[V, U, A any](ctx context.Context, opt Options, prog gas.Program[V, U, A], edges []Edge, n uint64) ([]V, *Report, error) {
	engine, err := ParseEngine(opt.Engine)
	if err != nil {
		return nil, nil, err
	}
	cfg := opt.config()
	if ctx == nil {
		ctx = context.Background()
	}
	if done := ctx.Done(); done != nil {
		cfg.Interrupt = func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
	}
	if fn := traceFrom(ctx); fn != nil {
		cfg.Trace = fn // TraceSpan = drive.Span, same time base per engine
	}
	cfg.SpillDir = spillDirFrom(ctx)
	if fn := progressFrom(ctx); fn != nil {
		if engine == EngineNative {
			// The native driver has no virtual clock: its Now is host
			// wall-clock, surfaced as WallSeconds so SimulatedSeconds
			// never carries a non-simulated figure.
			cfg.Progress = func(p core.Progress) { fn(nativeProgress(p)) }
		} else {
			cfg.Progress = func(p core.Progress) { fn(coreProgress(p)) }
		}
	}
	var values []V
	var run *metrics.Run
	if engine == EngineNative {
		values, run, err = native.Run(cfg, prog, edges, n)
	} else {
		values, run, err = core.Run(cfg, prog, edges, n)
	}
	if err != nil {
		if errors.Is(err, core.ErrInterrupted) && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	if engine == EngineNative {
		return values, nativeReportFrom(run, cfg.Spec.Machines), nil
	}
	return values, reportFrom(run, cfg.Spec.Machines), nil
}

// View names the edge-list transformation an algorithm consumes. The
// evaluation (§8) runs the undirected algorithms over edges plus their
// reverses and SCC over the forward/backward augmented list; callers that
// run many jobs over one graph (the job service) apply the view once,
// cache it, and dispatch through RunPrepared.
type View int

const (
	// ViewDirected is the raw edge list (PR, Cond, SpMV, BP).
	ViewDirected View = iota
	// ViewUndirected adds each edge's reverse (BFS, WCC, MCST, MIS, SSSP).
	ViewUndirected
	// ViewAugmented is the SCC forward/backward augmentation.
	ViewAugmented
)

func (v View) String() string {
	switch v {
	case ViewUndirected:
		return "undirected"
	case ViewAugmented:
		return "augmented"
	default:
		return "directed"
	}
}

// Apply materializes the view of edges. ViewDirected returns edges
// unchanged (no copy).
func (v View) Apply(edges []Edge) []Edge {
	switch v {
	case ViewUndirected:
		return Undirected(edges)
	case ViewAugmented:
		return algorithms.AugmentEdges(edges)
	default:
		return edges
	}
}

// ViewFor returns the view RunByName applies for the named algorithm.
func ViewFor(name string) (View, error) {
	switch name {
	case "BFS", "WCC", "MCST", "MIS", "SSSP":
		return ViewUndirected, nil
	case "SCC":
		return ViewAugmented, nil
	case "PR", "Cond", "SpMV", "BP":
		return ViewDirected, nil
	}
	return ViewDirected, errUnknownAlgorithm(name)
}

// RunBFS computes breadth-first levels from root over the undirected view
// of edges. Levels of unreachable vertices are ^uint32(0). n may be zero
// to infer the vertex count.
func RunBFS(edges []Edge, n uint64, root VertexID, opt Options) ([]uint32, *Report, error) {
	return runBFS(context.Background(), ViewUndirected.Apply(edges), n, root, opt)
}

func runBFS(ctx context.Context, undirected []Edge, n uint64, root VertexID, opt Options) ([]uint32, *Report, error) {
	values, rep, err := runProgram(ctx, opt, &algorithms.BFS{Root: root}, undirected, n)
	if err != nil {
		return nil, nil, err
	}
	levels := make([]uint32, len(values))
	for i := range values {
		levels[i] = values[i].Level
	}
	return levels, rep, nil
}

// RunWCC returns the minimum vertex ID of each vertex's weakly connected
// component.
func RunWCC(edges []Edge, n uint64, opt Options) ([]uint32, *Report, error) {
	return runWCC(context.Background(), ViewUndirected.Apply(edges), n, opt)
}

func runWCC(ctx context.Context, undirected []Edge, n uint64, opt Options) ([]uint32, *Report, error) {
	values, rep, err := runProgram(ctx, opt, &algorithms.WCC{}, undirected, n)
	if err != nil {
		return nil, nil, err
	}
	labels := make([]uint32, len(values))
	for i := range values {
		labels[i] = values[i].Label
	}
	return labels, rep, nil
}

// RunSSSP returns shortest-path distances from root over the undirected
// weighted view of edges. Unreachable vertices hold math.MaxFloat32 (the
// algorithms.Inf sentinel), not +Inf.
func RunSSSP(edges []Edge, n uint64, root VertexID, opt Options) ([]float32, *Report, error) {
	return runSSSP(context.Background(), ViewUndirected.Apply(edges), n, root, opt)
}

func runSSSP(ctx context.Context, undirected []Edge, n uint64, root VertexID, opt Options) ([]float32, *Report, error) {
	values, rep, err := runProgram(ctx, opt, &algorithms.SSSP{Root: root}, undirected, n)
	if err != nil {
		return nil, nil, err
	}
	dists := make([]float32, len(values))
	for i := range values {
		dists[i] = values[i].Dist
	}
	return dists, rep, nil
}

// RunPageRank runs iters rounds of PageRank over the directed edge list
// and returns the rank vector.
func RunPageRank(edges []Edge, n uint64, iters int, opt Options) ([]float32, *Report, error) {
	return runPageRank(context.Background(), edges, n, iters, opt)
}

func runPageRank(ctx context.Context, edges []Edge, n uint64, iters int, opt Options) ([]float32, *Report, error) {
	values, rep, err := runProgram(ctx, opt, &algorithms.PageRank{Iterations: iters}, edges, n)
	if err != nil {
		return nil, nil, err
	}
	ranks := make([]float32, len(values))
	for i := range values {
		ranks[i] = values[i].Rank
	}
	return ranks, rep, nil
}

// RunMIS computes a maximal independent set over the undirected view of
// edges and returns the membership vector.
func RunMIS(edges []Edge, n uint64, opt Options) ([]bool, *Report, error) {
	return runMIS(context.Background(), ViewUndirected.Apply(edges), n, opt)
}

func runMIS(ctx context.Context, undirected []Edge, n uint64, opt Options) ([]bool, *Report, error) {
	prog := &algorithms.MIS{}
	values, rep, err := runProgram(ctx, opt, prog, undirected, n)
	if err != nil {
		return nil, nil, err
	}
	in := make([]bool, len(values))
	for i := range values {
		in[i] = prog.InSet(values[i])
	}
	return in, rep, nil
}

// MCSTResult reports a minimum-cost spanning forest.
type MCSTResult struct {
	// TotalWeight is the forest weight.
	TotalWeight float64
	// Edges is the number of forest edges.
	Edges int
	// Component is each vertex's component representative.
	Component []uint64
}

// RunMCST computes the minimum-cost spanning forest of the undirected
// weighted view of edges (Borůvka's algorithm).
func RunMCST(edges []Edge, n uint64, opt Options) (*MCSTResult, *Report, error) {
	return runMCST(context.Background(), ViewUndirected.Apply(edges), n, opt)
}

func runMCST(ctx context.Context, undirected []Edge, n uint64, opt Options) (*MCSTResult, *Report, error) {
	prog := &algorithms.MCST{}
	values, rep, err := runProgram(ctx, opt, prog, undirected, n)
	if err != nil {
		return nil, nil, err
	}
	res := &MCSTResult{TotalWeight: prog.Total, Edges: prog.Edges, Component: make([]uint64, len(values))}
	for i := range values {
		res.Component[i] = values[i].Comp
	}
	return res, rep, nil
}

// RunSCC returns each vertex's strongly connected component label over the
// directed edge list.
func RunSCC(edges []Edge, n uint64, opt Options) ([]uint32, *Report, error) {
	return runSCC(context.Background(), ViewAugmented.Apply(edges), n, opt)
}

func runSCC(ctx context.Context, augmented []Edge, n uint64, opt Options) ([]uint32, *Report, error) {
	values, rep, err := runProgram(ctx, opt, &algorithms.SCC{}, augmented, n)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]uint32, len(values))
	for i := range values {
		ids[i] = values[i].SCC
	}
	return ids, rep, nil
}

// RunConductance computes the conductance of a deterministic hash-based
// vertex subset over the directed edge list (a single pass).
func RunConductance(edges []Edge, n uint64, opt Options) (float64, *Report, error) {
	return runConductance(context.Background(), edges, n, opt)
}

func runConductance(ctx context.Context, edges []Edge, n uint64, opt Options) (float64, *Report, error) {
	prog := &algorithms.Conductance{}
	values, rep, err := runProgram(ctx, opt, prog, edges, n)
	if err != nil {
		return 0, nil, err
	}
	return prog.Aggregate(values), rep, nil
}

// RunSpMV computes y = A*x over the weighted directed edge list
// (A[dst][src] = weight; x is a deterministic input vector) and returns y.
func RunSpMV(edges []Edge, n uint64, opt Options) ([]float32, *Report, error) {
	return runSpMV(context.Background(), edges, n, opt)
}

func runSpMV(ctx context.Context, edges []Edge, n uint64, opt Options) ([]float32, *Report, error) {
	values, rep, err := runProgram(ctx, opt, &algorithms.SpMV{}, edges, n)
	if err != nil {
		return nil, nil, err
	}
	y := make([]float32, len(values))
	for i := range values {
		y[i] = values[i].Y
	}
	return y, rep, nil
}

// RunBP runs iters rounds of simplified loopy belief propagation over the
// weighted directed edge list and returns the belief vector.
func RunBP(edges []Edge, n uint64, iters int, opt Options) ([]float32, *Report, error) {
	return runBP(context.Background(), edges, n, iters, opt)
}

func runBP(ctx context.Context, edges []Edge, n uint64, iters int, opt Options) ([]float32, *Report, error) {
	values, rep, err := runProgram(ctx, opt, &algorithms.BP{Iterations: iters}, edges, n)
	if err != nil {
		return nil, nil, err
	}
	beliefs := make([]float32, len(values))
	for i := range values {
		beliefs[i] = values[i].Belief
	}
	return beliefs, rep, nil
}

// Algorithms lists the evaluation algorithm names in Table 1 order.
func Algorithms() []string {
	return []string{"BFS", "WCC", "MCST", "MIS", "SSSP", "PR", "SCC", "Cond", "SpMV", "BP"}
}

// Result captures an algorithm's output in a compact, JSON-friendly form.
// The job service returns it instead of the raw per-vertex vector, which
// for large graphs would dwarf the transport; the summaries are also what
// the evaluation checks against reference implementations.
type Result struct {
	// Algorithm is the canonical algorithm name.
	Algorithm string `json:"algorithm"`
	// Vertices is the length of the value vector the run produced.
	Vertices int `json:"vertices"`
	// Summary holds the per-algorithm scalar summaries (e.g. BFS
	// "reachable" and "depth", WCC "components", PR "rank_sum").
	Summary map[string]float64 `json:"summary"`
}

// RunPrepared runs the named algorithm with its evaluation-default
// parameters, assuming edges is already in the view ViewFor(name) returns.
// Callers that cache converted edge lists — the job service keeps one
// undirected and one augmented copy per graph — use it to skip the
// per-run conversion RunByName performs.
func RunPrepared(name string, edges []Edge, n uint64, opt Options) (*Result, *Report, error) {
	return RunPreparedContext(context.Background(), name, edges, n, opt)
}

// RunPreparedContext is RunPrepared with cooperative cancellation: the
// engine polls ctx at each iteration boundary and, once ctx is
// canceled, finishes the iteration, unwinds the simulation cleanly and
// returns ctx.Err(). The job service uses it to make DELETE on a
// running job take effect without killing the process.
func RunPreparedContext(ctx context.Context, name string, edges []Edge, n uint64, opt Options) (*Result, *Report, error) {
	res := &Result{Algorithm: name}
	var rep *Report
	var err error
	switch name {
	case "BFS":
		var levels []uint32
		levels, rep, err = runBFS(ctx, edges, n, 0, opt)
		if err == nil {
			reachable, depth := 0, uint32(0)
			for _, l := range levels {
				if l != ^uint32(0) {
					reachable++
					if l > depth {
						depth = l
					}
				}
			}
			res.Vertices = len(levels)
			res.Summary = map[string]float64{"reachable": float64(reachable), "depth": float64(depth)}
		}
	case "WCC":
		var labels []uint32
		labels, rep, err = runWCC(ctx, edges, n, opt)
		if err == nil {
			res.Vertices = len(labels)
			res.Summary = componentSummary(labels)
		}
	case "MCST":
		var forest *MCSTResult
		forest, rep, err = runMCST(ctx, edges, n, opt)
		if err == nil {
			res.Vertices = len(forest.Component)
			res.Summary = map[string]float64{
				"total_weight": forest.TotalWeight,
				"forest_edges": float64(forest.Edges),
			}
		}
	case "MIS":
		var in []bool
		in, rep, err = runMIS(ctx, edges, n, opt)
		if err == nil {
			size := 0
			for _, b := range in {
				if b {
					size++
				}
			}
			res.Vertices = len(in)
			res.Summary = map[string]float64{"set_size": float64(size)}
		}
	case "SSSP":
		var dists []float32
		dists, rep, err = runSSSP(ctx, edges, n, 0, opt)
		if err == nil {
			reached, maxDist := 0, 0.0
			for _, d := range dists {
				if d != algorithms.Inf {
					reached++
					if float64(d) > maxDist {
						maxDist = float64(d)
					}
				}
			}
			res.Vertices = len(dists)
			res.Summary = map[string]float64{"reached": float64(reached), "max_dist": maxDist}
		}
	case "PR":
		var ranks []float32
		ranks, rep, err = runPageRank(ctx, edges, n, 5, opt)
		if err == nil {
			sum, maxRank := 0.0, 0.0
			for _, r := range ranks {
				sum += float64(r)
				if float64(r) > maxRank {
					maxRank = float64(r)
				}
			}
			res.Vertices = len(ranks)
			res.Summary = map[string]float64{"rank_sum": sum, "max_rank": maxRank}
		}
	case "SCC":
		var ids []uint32
		ids, rep, err = runSCC(ctx, edges, n, opt)
		if err == nil {
			res.Vertices = len(ids)
			res.Summary = componentSummary(ids)
		}
	case "Cond":
		var cond float64
		cond, rep, err = runConductance(ctx, edges, n, opt)
		if err == nil {
			nv := n
			if nv == 0 {
				nv = NumVertices(edges)
			}
			res.Vertices = int(nv)
			res.Summary = map[string]float64{"conductance": cond}
		}
	case "SpMV":
		var y []float32
		y, rep, err = runSpMV(ctx, edges, n, opt)
		if err == nil {
			var norm1 float64
			for _, v := range y {
				norm1 += math.Abs(float64(v))
			}
			res.Vertices = len(y)
			res.Summary = map[string]float64{"norm1": norm1}
		}
	case "BP":
		var beliefs []float32
		beliefs, rep, err = runBP(ctx, edges, n, 5, opt)
		if err == nil {
			var sum float64
			for _, b := range beliefs {
				sum += float64(b)
			}
			res.Vertices = len(beliefs)
			res.Summary = map[string]float64{"belief_sum": sum}
		}
	default:
		return nil, nil, errUnknownAlgorithm(name)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// componentSummary summarizes a component-labeling vector.
func componentSummary(labels []uint32) map[string]float64 {
	sizes := make(map[uint32]int)
	for _, l := range labels {
		sizes[l]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	return map[string]float64{"components": float64(len(sizes)), "largest": float64(largest)}
}

// RunByNameResult dispatches to the named algorithm with its
// evaluation-default parameters, applying the algorithm's edge view
// first, and returns the captured Result alongside the Report.
func RunByNameResult(name string, edges []Edge, n uint64, opt Options) (*Result, *Report, error) {
	view, err := ViewFor(name)
	if err != nil {
		return nil, nil, err
	}
	return RunPrepared(name, view.Apply(edges), n, opt)
}

// RunByName dispatches to the named algorithm with its evaluation-default
// parameters, returning only the report (used by the benchmark harness).
func RunByName(name string, edges []Edge, n uint64, opt Options) (*Report, error) {
	_, rep, err := RunByNameResult(name, edges, n, opt)
	return rep, err
}

// NeedsWeights reports whether the named algorithm consumes edge weights.
func NeedsWeights(name string) bool {
	switch name {
	case "MCST", "SSSP", "SpMV", "BP":
		return true
	}
	return false
}

type errUnknownAlgorithm string

func (e errUnknownAlgorithm) Error() string {
	return fmt.Sprintf("chaos: unknown algorithm %q (want one of %s)", string(e), strings.Join(Algorithms(), " "))
}
