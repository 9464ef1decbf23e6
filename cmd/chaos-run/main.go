// chaos-run executes one evaluation algorithm over an edge list on a
// simulated Chaos cluster and reports the runtime statistics the paper's
// evaluation uses (simulated wall-clock including pre-processing, I/O
// volumes, steal counts, and the Figure 17 breakdown).
//
// The input is either a binary edge-list file produced by chaos-gen (-input,
// with -vertices and -weighted describing its format) or a freshly
// generated R-MAT graph (-scale).
//
// Usage:
//
//	chaos-run -alg PR -scale 14 -machines 8
//	chaos-run -alg SSSP -input graph.bin -weighted -vertices 65536 -machines 4 -storage hdd
//	chaos-run -alg PR -scale 14 -machines 8 -engine native   # host-speed plane, wall-clock
//	chaos-run -alg PR -scale 14 -machines 4 -trace out.json  # flight-recorder timeline
//
// -engine native runs the same protocol on the native execution plane
// (goroutine groups, no virtual clock): identical results, host
// wall-clock instead of simulated seconds, no device-model figures.
//
// -trace attaches the flight recorder and writes the run's per-phase
// span timeline as Chrome trace_event JSON, loadable in about:tracing
// or Perfetto. Recording is observational-only: the run's results and
// report are bit-identical with and without it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"chaos"
	"chaos/internal/cli"
	"chaos/internal/graph"
)

func main() {
	logger := cli.NewLogger("chaos-run")
	var (
		algName  = flag.String("alg", "PR", "algorithm: BFS WCC MCST MIS SSSP PR SCC Cond SpMV BP")
		input    = flag.String("input", "", "binary edge-list file (default: generate R-MAT)")
		vertices = flag.Uint64("vertices", 0, "vertex count of -input (0 = infer)")
		weighted = flag.Bool("weighted", false, "-input carries weights")
		scale    = flag.Int("scale", 14, "R-MAT scale when generating")
		machines = flag.Int("machines", 1, "cluster size")
		storage  = flag.String("storage", "ssd", "storage device: ssd or hdd")
		network  = flag.String("network", "40g", "network: 40g or 1g")
		cores    = flag.Int("cores", 16, "cores per machine")
		chunkKB  = flag.Int("chunk-kb", 4096, "chunk size in KiB (paper: 4096)")
		budgetMB = flag.Int64("mem-mb", 0, "per-machine vertex memory budget in MiB (0 = unconstrained)")
		updateMB = flag.Int64("memory-budget-mb", 0,
			"native engine update-memory budget in MiB; past it updates spill to temp files (out-of-core mode, 0 = unlimited)")
		ckpt   = flag.Int("checkpoint", 0, "checkpoint every n iterations (0 = off)")
		seed   = flag.Int64("seed", 1, "randomization seed")
		engine = flag.String("engine", "sim",
			"execution engine: sim (discrete-event simulation, virtual time) or native (host-speed goroutine plane, wall-clock)")
		traceOut = flag.String("trace", "",
			"write the run's flight-recorder timeline to this file as Chrome trace_event JSON (empty = no recording)")
		traceSpans = flag.Int("trace-spans", 1<<16,
			"flight-recorder capacity in spans; the oldest are dropped past it (with -trace)")
	)
	flag.Parse()

	// The shared helpers validate algorithm/storage/network/engine names
	// exactly as chaos-serve does, so error messages match across front
	// ends.
	alg, hw, err := chaos.ParseOptions(*algName, *storage, *network, chaos.Options{})
	if err != nil {
		cli.Fatal(logger, "parsing options", err)
	}
	eng, err := chaos.ParseEngine(*engine)
	if err != nil {
		cli.Fatal(logger, "parsing engine", err)
	}

	var edges []chaos.Edge
	n := *vertices
	if *input != "" {
		needW := *weighted || chaos.NeedsWeights(alg)
		f, err := os.Open(*input)
		if err != nil {
			cli.Fatal(logger, "opening input", err)
		}
		defer f.Close()
		// Without an explicit vertex count, assume the compact format
		// (files under 2^32 vertices) and infer the count from the
		// edges read.
		format := graph.FormatFor(1, needW)
		if n > 0 {
			format = graph.FormatFor(n, needW)
		}
		edges, err = graph.NewReader(f, format).ReadAll()
		if err != nil {
			cli.Fatal(logger, "reading edge list", err)
		}
		if n == 0 {
			n = chaos.NumVertices(edges)
		}
	} else {
		edges = chaos.GenerateRMAT(*scale, chaos.NeedsWeights(alg), 42)
		n = uint64(1) << uint(*scale)
	}

	opt := chaos.Options{
		Machines:        *machines,
		Storage:         hw.Storage,
		Network:         hw.Network,
		Cores:           *cores,
		ChunkBytes:      *chunkKB << 10,
		MemBudgetBytes:  *budgetMB << 20,
		MemoryBudgetMB:  *updateMB,
		CheckpointEvery: *ckpt,
		Seed:            *seed,
		LatencyScale:    float64(*chunkKB<<10) / float64(4<<20),
		Engine:          eng,
	}

	// Convert to the algorithm's edge view explicitly (instead of
	// through RunByName) so the run can go through RunPreparedContext,
	// the entry point that observes a context-attached flight recorder.
	view, err := chaos.ViewFor(alg)
	if err != nil {
		cli.Fatal(logger, "resolving edge view", err)
	}
	ctx := context.Background()
	var rec *chaos.TraceRecorder
	if *traceOut != "" {
		rec = chaos.NewTraceRecorder(*traceSpans)
		ctx = chaos.WithTrace(ctx, rec.Record)
	}
	_, rep, err := chaos.RunPreparedContext(ctx, alg, view.Apply(edges), n, opt)
	if err != nil {
		cli.Fatal(logger, "running algorithm", err)
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			cli.Fatal(logger, "creating trace file", err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			cli.Fatal(logger, "writing trace", err)
		}
		if err := f.Close(); err != nil {
			cli.Fatal(logger, "closing trace file", err)
		}
		spans, dropped := rec.Spans()
		logger.Info("trace written", "path", *traceOut, "spans", len(spans), "dropped", dropped)
		if dropped > 0 {
			logger.Warn("trace ring overflowed; raise -trace-spans for a complete timeline", "dropped", dropped)
		}
	}

	fmt.Printf("algorithm          %s\n", rep.Algorithm)
	fmt.Printf("machines           %d\n", rep.Machines)
	fmt.Printf("engine             %s\n", rep.Engine)
	fmt.Printf("edges              %d\n", len(edges))
	if rep.Engine == chaos.EngineNative {
		// The native plane has no virtual clock: there are no simulated
		// seconds, device-utilization or breakdown figures to report.
		fmt.Printf("wall-clock runtime %.3fs\n", rep.WallSeconds)
	} else {
		fmt.Printf("simulated runtime  %.3fs (pre-processing %.3fs)\n", rep.SimulatedSeconds, rep.PreprocessSeconds)
	}
	fmt.Printf("iterations         %d\n", rep.Iterations)
	fmt.Printf("device I/O         %.2f MB read, %.2f MB written\n", float64(rep.BytesRead)/1e6, float64(rep.BytesWritten)/1e6)
	if rep.Engine == chaos.EngineNative {
		fmt.Printf("throughput         %.1f MB/s of chunk data moved\n", rep.AggregateBandwidth/1e6)
		fmt.Printf("steals             %d accepted, %d rejected\n", rep.StealsAccepted, rep.StealsRejected)
		// Checkpointing and recovery run for real on both planes; only
		// the device-model figures (utilization, breakdown) are sim-only.
		if rep.CheckpointBytes > 0 {
			fmt.Printf("checkpoint I/O     %.2f MB (%d recoveries)\n", float64(rep.CheckpointBytes)/1e6, rep.Recoveries)
		}
		if rep.SpillFiles > 0 {
			fmt.Printf("spill I/O          %.2f MB across %d spill files\n", float64(rep.SpillBytes)/1e6, rep.SpillFiles)
		}
		return
	}
	fmt.Printf("aggregate bw       %.1f MB/s (utilization %.1f%%)\n", rep.AggregateBandwidth/1e6, 100*rep.DeviceUtilization)
	fmt.Printf("steals             %d accepted, %d rejected\n", rep.StealsAccepted, rep.StealsRejected)
	if rep.CheckpointBytes > 0 {
		fmt.Printf("checkpoint I/O     %.2f MB\n", float64(rep.CheckpointBytes)/1e6)
	}
	fmt.Println("runtime breakdown:")
	keys := make([]string, 0, len(rep.Breakdown))
	for k := range rep.Breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-14s %6.1f%%\n", k, 100*rep.Breakdown[k])
	}
}
