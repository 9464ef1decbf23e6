package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chaos"
	"chaos/internal/algorithms"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
	"chaos/internal/rmat"
)

// engineWorkload is one in-process engine workload: a generated graph,
// its edge view, and the options every measured chaos.RunPrepared call
// uses.
type engineWorkload struct {
	scale int
	alg   string // "PR" (5 iterations) or "WCC"
	view  chaos.View
	opt   func(seed int64, n uint64) chaos.Options
}

var engineWorkloads = map[string]engineWorkload{
	// Every vertex is active in every iteration and nothing spills:
	// the in-memory path (native phases, drive kernels, drive.Pool,
	// MemTransport) does nearly all the work.
	"native-pagerank": {scale: 17, alg: "PR", view: chaos.ViewDirected, opt: func(seed int64, _ uint64) chaos.Options {
		return chaos.Options{Engine: chaos.EngineNative, Machines: 4, ChunkBytes: 64 << 10, Seed: seed}
	}},
	// Same driver, transport the other way round: a 4 MiB update budget
	// sends most update bytes through spill files on the real disk, and
	// the shrinking WCC frontier makes late iterations fixed-cost.
	"native-spill": {scale: 17, alg: "WCC", view: chaos.ViewUndirected, opt: func(seed int64, _ uint64) chaos.Options {
		return chaos.Options{Engine: chaos.EngineNative, Machines: 4, ChunkBytes: 64 << 10, MemoryBudgetMB: 4, Seed: seed}
	}},
	// The paper-figure plane with the figure suite's lab options
	// (internal/experiments Lab): 1 KiB chunks, latencies scaled by
	// chunk/4 MiB, two streaming partitions per machine.
	"des-lab": {scale: 14, alg: "PR", view: chaos.ViewDirected, opt: func(seed int64, n uint64) chaos.Options {
		const machines, chunk, perMachine, vbytes = 16, 1 << 10, 2, 8
		return chaos.Options{
			Machines:       machines,
			ChunkBytes:     chunk,
			MemBudgetBytes: int64(n)*vbytes/(perMachine*machines) + vbytes,
			LatencyScale:   float64(chunk) / float64(4<<20),
			Seed:           seed,
		}
	}},
}

// setupReps is how many times set-up (generation plus edge view) runs
// per invocation; setup_s is their median.
const setupReps = 3

// engineRun is one measured chaos.RunPrepared call.
type engineRun struct {
	wall     float64
	cpu      float64 // process CPU seconds (user + system) during the call
	rep      *chaos.Report
	spans    []chaos.TraceSpan
	progress []chaos.Progress
	// hostBoundaries are host seconds since the call at each iteration
	// boundary (the DES reports virtual time in Progress).
	hostBoundaries []float64
}

// engineBench holds one invocation's inputs and expectations.
type engineBench struct {
	w        engineWorkload
	seed     int64
	edges    []chaos.Edge // generated graph
	view     []chaos.Edge // the algorithm's view of it
	n        uint64
	opt      chaos.Options
	spillDir string
	o        *outcome

	summary map[string]float64 // first run's summary; every run must equal it
	fixed   *desFixed          // first DES run's fixed points
}

func runEngine(cfg config, o *outcome) error {
	w := engineWorkloads[cfg.workload]
	b := &engineBench{w: w, seed: cfg.seed, n: uint64(1) << w.scale, o: o}
	b.opt = w.opt(cfg.seed, b.n)
	b.spillDir = os.Getenv("TMPDIR")

	var setups, gens, views []float64
	for i := 0; i < setupReps; i++ {
		b.edges, b.view = nil, nil
		runtime.GC()
		t0 := time.Now()
		b.edges = rmat.New(w.scale, cfg.seed).Generate()
		t1 := time.Now()
		b.view = w.view.Apply(b.edges)
		t2 := time.Now()
		gens = append(gens, t1.Sub(t0).Seconds())
		views = append(views, t2.Sub(t1).Seconds())
		setups = append(setups, t2.Sub(t0).Seconds())
	}
	o.set("setup_s", median(setups), len(setups))
	o.set("rmat.generate_s", median(gens), len(gens))
	o.set("chaos.view_s", median(views), len(views))

	// One untimed run first: lazy set-up (pools, page cache, heap
	// growth) is not what run_s measures.
	b.measure(false, 0, 1)
	if !cfg.trace {
		before := snapRuntime()
		runs := b.measure(false, cfg.seconds, 3)
		walls := wallsOf(runs)
		o.set("run_s", median(walls), len(walls))
		o.set("cpu_s_per_job", median(cpusOf(runs)), len(runs))
		// Completed runs per second of run time: back-to-back calls
		// leave no idle time, and dividing by the summed walls keeps
		// the figure free of the window's rounding to whole runs.
		o.set("jobs_per_s", float64(len(walls))/sum(walls), len(walls))
		b.recordRuntime(before, len(runs))
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		o.set("peak_rss_mb", rss, 1)
		o.extra["run_walls_s"] = walls
	} else if err := b.tracedPasses(cfg.seconds); err != nil {
		return err
	}
	b.checkReference()
	o.set("failed_ratio", ratio(float64(o.failed), float64(o.attempted)), o.attempted)
	return nil
}

func wallsOf(runs []engineRun) []float64 {
	walls := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = r.wall
	}
	return walls
}

func cpusOf(runs []engineRun) []float64 {
	cpus := make([]float64, len(runs))
	for i, r := range runs {
		cpus[i] = r.cpu
	}
	return cpus
}

// measure runs the workload's RunPrepared back to back until seconds
// have passed and at least minRuns succeeded (giving up on that after
// 2*minRuns tries past the deadline), checking every run, and returns
// the good runs. A traced pass subscribes a flight recorder
// (chaos.WithTrace) and a Progress callback to every run.
func (b *engineBench) measure(traced bool, seconds float64, minRuns int) []engineRun {
	ctx := chaos.WithSpillDir(context.Background(), b.spillDir)
	var runs []engineRun
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for late := 0; time.Now().Before(deadline) || (len(runs) < minRuns && late < 2*minRuns); {
		if !time.Now().Before(deadline) {
			late++
		}
		var run engineRun
		runCtx := ctx
		var rec *chaos.TraceRecorder
		var t0 time.Time
		if traced {
			rec = chaos.NewTraceRecorder(1 << 18)
			runCtx = chaos.WithTrace(runCtx, rec.Record)
			runCtx = chaos.WithProgress(runCtx, func(p chaos.Progress) {
				run.progress = append(run.progress, p)
				run.hostBoundaries = append(run.hostBoundaries, time.Since(t0).Seconds())
			})
		}
		b.o.attempted++
		cpu0 := processCPU()
		t0 = time.Now()
		res, rep, err := chaos.RunPreparedContext(runCtx, b.w.alg, b.view, b.n, b.opt)
		run.wall = time.Since(t0).Seconds()
		run.cpu = (processCPU() - cpu0).Seconds()
		run.rep = rep
		if !b.check(res, rep, err) {
			continue
		}
		if rec != nil {
			if rec.Dropped() > 0 {
				b.o.fail("flight recorder dropped %d spans", rec.Dropped())
				continue
			}
			run.spans, _ = rec.Spans()
		}
		runs = append(runs, run)
	}
	return runs
}

// check validates one run: no error, the same summary as every other
// run of this invocation, no spill file left behind, and for the DES
// its fixed points. It counts a failure and returns false otherwise.
func (b *engineBench) check(res *chaos.Result, rep *chaos.Report, err error) bool {
	if err != nil {
		b.o.fail("run error: %v", err)
		return false
	}
	if left, _ := os.ReadDir(b.spillDir); len(left) > 0 {
		b.o.fail("spill directory not empty after the run: %d entries (first %s)", len(left), left[0].Name())
		for _, e := range left {
			os.RemoveAll(filepath.Join(b.spillDir, e.Name()))
		}
		return false
	}
	if b.summary == nil {
		b.summary = res.Summary
	} else if !equalSummary(b.summary, res.Summary) {
		b.o.fail("summary %v differs from the first run's %v", res.Summary, b.summary)
		return false
	}
	if rep.Engine == chaos.EngineSim {
		got := desFixed{SimSeconds: rep.SimulatedSeconds, BytesRead: rep.BytesRead, StealsAccepted: rep.StealsAccepted, StealsRejected: rep.StealsRejected}
		if b.fixed == nil {
			b.fixed = &got
			if want, ok := desGolden[b.seed]; ok && want != got {
				b.o.fail("DES fixed points %+v, want %+v for seed %d", got, want, b.seed)
				return false
			}
		} else if *b.fixed != got {
			b.o.fail("DES fixed points %+v differ from the first run's %+v", got, *b.fixed)
			return false
		}
	}
	return true
}

func equalSummary(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// checkReference compares one full value vector against
// internal/refalgo: PageRank within the engine tests' float tolerance,
// WCC labels exactly. The summary of that vector must equal the
// summary every measured run returned. It runs after measurement so
// the reference's memory does not land in peak_rss_mb.
func (b *engineBench) checkReference() {
	b.o.attempted++
	var sum map[string]float64
	switch b.w.alg {
	case "PR":
		ranks, _, err := chaos.RunPageRank(b.edges, b.n, 5, b.opt)
		if err != nil {
			b.o.fail("reference run: %v", err)
			return
		}
		want := refalgo.PageRank(graph.BuildAdjacency(b.edges, b.n), 5)
		total, maxRank := 0.0, 0.0
		for i, r := range ranks {
			if math.Abs(float64(r)-want[i]) > 1e-3*math.Max(1, want[i]) {
				b.o.fail("PageRank vertex %d: rank %g, refalgo %g", i, r, want[i])
				return
			}
			total += float64(r)
			maxRank = math.Max(maxRank, float64(r))
		}
		sum = map[string]float64{"rank_sum": total, "max_rank": maxRank}
	case "WCC":
		labels, _, err := chaos.RunWCC(b.edges, b.n, b.opt)
		if err != nil {
			b.o.fail("reference run: %v", err)
			return
		}
		want := refalgo.WCCLabels(graph.BuildAdjacency(b.view, b.n))
		sizes := map[uint32]int{}
		largest := 0
		for i, l := range labels {
			if l != want[i] {
				b.o.fail("WCC vertex %d: label %d, refalgo %d", i, l, want[i])
				return
			}
			sizes[l]++
			largest = max(largest, sizes[l])
		}
		sum = map[string]float64{"components": float64(len(sizes)), "largest": float64(largest)}
	}
	if left, _ := os.ReadDir(b.spillDir); len(left) > 0 {
		b.o.fail("spill directory not empty after the reference run")
		return
	}
	if b.summary != nil && !equalSummary(b.summary, sum) {
		b.o.fail("measured runs' summary %v differs from the reference vector's %v", b.summary, sum)
	}
}

// recordRuntime reports the Go runtime layer over a stretch of timed
// calls.
func (b *engineBench) recordRuntime(before runtimeSnap, runs int) {
	alloc, gc, util := runtimeDelta(before, snapRuntime(), float64(runs)*float64(len(b.view)))
	b.o.set("runtime.alloc_bytes_per_edge", alloc, runs)
	b.o.set("runtime.gc_cpu_share", gc, runs)
	b.o.set("runtime.cpu_util", util, runs)
}

// tracedPasses is the -trace 1 run: an untraced pass and a traced pass
// of half the time each, the layer probes, and for the native plane a
// GOMAXPROCS=1 baseline.
func (b *engineBench) tracedPasses(seconds float64) error {
	before := snapRuntime()
	plain := b.measure(false, seconds/2, 3)
	b.recordRuntime(before, len(plain))
	b.o.set("cpu_s_per_job", median(cpusOf(plain)), len(plain))
	traced := b.measure(true, seconds/2, 3)
	if len(plain) == 0 || len(traced) == 0 {
		return nil // every run failed; the failures are counted
	}
	plainMed := median(wallsOf(plain))
	b.o.set("trace.overhead_share", median(wallsOf(traced))/plainMed-1, len(traced))

	kc, err := b.kernels()
	if err != nil {
		return err
	}
	b.o.set("drive.scatter_ns_per_edge", kc.nsPerEdge, 3)
	b.o.set("drive.gather_ns_per_update", kc.nsPerUpdate, 3)
	b.o.set("drive.pool_task_ns", measurePoolTask(), 7)
	rt, err := measureSpillRoundtrip(b.spillDir, 32<<20, 3)
	if err != nil {
		b.o.attempted++
		b.o.fail("spill roundtrip: %v", err)
	} else {
		b.o.set("storage.spill_roundtrip_mb_per_s", rt, 3)
	}

	if b.opt.Engine == chaos.EngineNative {
		b.nativeLayers(traced, kc)
		prev := runtime.GOMAXPROCS(1)
		single := b.measure(false, 0, 2)
		runtime.GOMAXPROCS(prev)
		if len(single) > 0 {
			b.o.set("native.speedup_1_to_n", median(wallsOf(single))/plainMed, len(single))
		}
	} else {
		b.desLayers(traced)
	}
	return nil
}

func (b *engineBench) kernels() (kernelCost, error) {
	machines, chunk := b.opt.Machines, b.opt.ChunkBytes
	if b.w.alg == "WCC" {
		return measureKernels(&algorithms.WCC{}, b.view, b.n, machines, chunk, b.opt.MemBudgetBytes, 3)
	}
	return measureKernels(&algorithms.PageRank{Iterations: 5}, b.view, b.n, machines, chunk, b.opt.MemBudgetBytes, 3)
}

// nativeLayers derives the native driver's per-phase figures from the
// traced runs' spans (self time, so nested spill and stolen spans are
// not counted twice) and Progress timestamps.
func (b *engineBench) nativeLayers(runs []engineRun, kc kernelCost) {
	var pre, scatter, gather, apply, steal, spill, unattributed, parts, iterMed, accept, overhead, spillBytes, spillFiles, spillRate []float64
	var lateShare []float64
	for _, r := range runs {
		byMachine := map[int][]interval{}
		first := int64(math.MaxInt64)
		var edgesScanned, updates int64
		for _, s := range r.spans {
			byMachine[s.Machine] = append(byMachine[s.Machine], interval{Label: s.Phase, Start: s.Start, End: s.Start + s.Dur})
			if s.Iter >= 0 {
				first = min(first, s.Start)
			}
			switch s.Phase {
			case chaos.PhaseScatter:
				edgesScanned += s.BytesIn / int64(kc.edgeSize)
			case chaos.PhaseGather:
				updates += s.BytesIn / int64(kc.updBytes)
			}
		}
		timelines := make([][]interval, 0, len(byMachine))
		for _, tl := range byMachine {
			timelines = append(timelines, tl)
		}
		self := selfByLabel(timelines)
		var total int64
		for _, v := range self {
			total += v
		}
		sec := func(ns int64) float64 { return float64(ns) / 1e9 }
		pre = append(pre, sec(first))
		scatter = append(scatter, sec(self[chaos.PhaseScatter]))
		gather = append(gather, sec(self[chaos.PhaseGather]))
		apply = append(apply, sec(self[chaos.PhaseApply]))
		steal = append(steal, sec(self[chaos.PhaseSteal]))
		spill = append(spill, sec(self[chaos.PhaseSpill]))
		unattributed = append(unattributed, 1-sec(total)/(float64(r.rep.Machines)*r.rep.WallSeconds))
		bounds := make([]float64, len(r.progress))
		for i, p := range r.progress {
			bounds[i] = p.WallSeconds
		}
		iters, share := partsShare(sec(first), bounds, r.wall)
		parts = append(parts, share)
		iterMed = append(iterMed, median(iters))
		if len(iters) > 1 {
			lateShare = append(lateShare, median(iters[len(iters)/2:])/r.wall)
		}
		accept = append(accept, ratio(float64(r.rep.StealsAccepted), float64(r.rep.StealsAccepted+r.rep.StealsRejected)))
		kernelNs := float64(edgesScanned)*kc.nsPerEdge + float64(updates)*kc.nsPerUpdate
		overhead = append(overhead, ratio(float64(self[chaos.PhaseScatter]+self[chaos.PhaseGather]), kernelNs))
		spillBytes = append(spillBytes, float64(r.rep.SpillBytes))
		spillFiles = append(spillFiles, float64(r.rep.SpillFiles))
		spillRate = append(spillRate, ratio(float64(r.rep.SpillBytes)/1e6, sec(self[chaos.PhaseSpill])))
	}
	n := len(runs)
	b.o.set("native.preprocess_s", median(pre), n)
	b.o.set("native.scatter_self_s", median(scatter), n)
	b.o.set("native.gather_self_s", median(gather), n)
	b.o.set("native.apply_self_s", median(apply), n)
	b.o.set("native.steal_self_s", median(steal), n)
	b.o.set("native.unattributed_share", median(unattributed), n)
	b.o.set("native.parts_share", median(parts), n)
	b.o.set("native.iter_p50_s", median(iterMed), n)
	b.o.set("native.iter_late_share", median(lateShare), len(lateShare))
	b.o.set("native.steal_accept_ratio", median(accept), n)
	b.o.set("native.overhead_ratio", median(overhead), n)
	b.o.set("drive.spill_bytes", median(spillBytes), n)
	b.o.set("drive.spill_bytes_spread", spread(spillBytes), n)
	b.o.set("drive.spill_files", median(spillFiles), n)
	b.o.set("drive.spill_self_s", median(spill), n)
	b.o.set("drive.spill_mb_per_s", median(spillRate), n)
	b.o.extra["parts_share_per_run"] = parts
	for _, p := range parts {
		if math.Abs(p-1) > 0.05 {
			b.o.extra["parts_share_warning"] = "preprocess plus iteration walls is off run_s by more than 5% on at least one traced run"
		}
	}
}

// desLayers reports the DES driver's host-side figures and its fixed
// points (simulated seconds, bytes read, steals), which must be
// identical on every run of a seed.
func (b *engineBench) desLayers(runs []engineRun) {
	var iterMed, chunkRate []float64
	for _, r := range runs {
		var chunks int
		for _, s := range r.spans {
			if s.Phase == chaos.PhaseScatter || s.Phase == chaos.PhaseGather {
				chunks += s.Chunks
			}
		}
		chunkRate = append(chunkRate, float64(chunks)/r.wall)
		var iters []float64
		for i := 1; i < len(r.hostBoundaries); i++ {
			iters = append(iters, r.hostBoundaries[i]-r.hostBoundaries[i-1])
		}
		if len(iters) > 0 {
			iterMed = append(iterMed, median(iters))
		}
	}
	b.o.set("core.iter_p50_s", median(iterMed), len(iterMed))
	b.o.set("core.chunks_per_s", median(chunkRate), len(chunkRate))
	if b.fixed != nil {
		b.o.set("core.sim_s", b.fixed.SimSeconds, len(runs))
		b.o.set("core.bytes_read", float64(b.fixed.BytesRead), len(runs))
		b.o.set("core.steals_accepted", float64(b.fixed.StealsAccepted), len(runs))
		b.o.set("core.steals_rejected", float64(b.fixed.StealsRejected), len(runs))
		b.o.extra["des_fixed_points"] = *b.fixed
	}
}

// desFixed are the DES run's fixed points at one seed.
type desFixed struct {
	SimSeconds     float64
	BytesRead      int64
	StealsAccepted int
	StealsRejected int
}
