// chaos-bench regenerates the tables and figures of the Chaos evaluation
// (SOSP 2015) on the simulated cluster. Each experiment prints the same
// rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	chaos-bench                     # run everything at laboratory scale
//	chaos-bench -experiment fig16   # just the batch-factor sweep
//	chaos-bench -experiment native  # native plane vs DES wall-clock (BENCH_native.json)
//	chaos-bench -quick              # reduced smoke scale
//
//chaos:sorted-maps
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"chaos"
	"chaos/internal/cli"
	"chaos/internal/experiments"
)

var all = []struct {
	name string
	run  func(io.Writer, experiments.Scale) error
}{
	{"table1", experiments.Table1},
	{"fig5", experiments.Figure5},
	{"fig7", experiments.Figure7},
	{"fig8", experiments.Figure8},
	{"fig9", experiments.Figure9},
	{"capacity", experiments.Capacity},
	{"fig10", experiments.Figure10},
	{"fig11", experiments.Figure11},
	{"fig12", experiments.Figure12},
	{"fig13", experiments.Figure13},
	{"fig14", experiments.Figure14},
	{"fig15", experiments.Figure15},
	{"fig16", experiments.Figure16},
	{"fig17", experiments.Figure17},
	{"fig18", experiments.Figure18},
	{"fig19", experiments.Figure19},
	{"fig20", experiments.Figure20},
	{"native", experiments.NativeVsDES},
	{"abl-combiners", experiments.AblationCombiner},
	{"abl-compaction", experiments.AblationCompaction},
	{"abl-replication", experiments.AblationReplication},
	{"abl-partitions", experiments.AblationPartitionCount},
}

func main() {
	logger := cli.NewLogger("chaos-bench")
	var (
		which      = flag.String("experiment", "all", "experiment id (all, table1, fig5..fig20, capacity)")
		quick      = flag.Bool("quick", false, "use the reduced smoke scale")
		benchJSON  = flag.String("bench-json", ".", "directory for BENCH_<experiment>.json records (empty disables)")
		cpuProfile = flag.String("cpuprofile", "",
			"write a runtime/pprof CPU profile of the experiments' timed region to this file (setup and flag parsing excluded)")
		memProfile = flag.String("memprofile", "",
			"write a runtime/pprof allocs profile to this file after the experiments finish (records every allocation since program start, so iteration-loop hot spots dominate)")
	)
	// Hardware and engine names go through the same helpers as chaos-run
	// and chaos-serve, so a typo fails with the identical message
	// everywhere.
	var opt chaos.Options
	flag.TextVar(&opt.Storage, "storage", chaos.SSD, "default storage device: ssd or hdd")
	flag.TextVar(&opt.Network, "network", chaos.Net40GigE, "default network: 40g or 1g")
	flag.Func("engine",
		"execution engine: sim reproduces the paper's figures; native selects the native-vs-DES wall-clock comparison (the figures themselves are DES-only) (default sim)",
		func(name string) (err error) {
			opt.Engine, err = chaos.ParseEngine(name)
			return err
		})
	flag.Parse()

	if opt.Engine == chaos.EngineNative {
		// The evaluation figures are produced by the DES driver and only
		// it (EXPERIMENTS.md): the native plane has no virtual clock, so
		// the only native benchmark is the wall-clock comparison.
		switch *which {
		case "all":
			*which = "native"
		case "native":
		default:
			cli.Fatal(logger, "bad flag combination", fmt.Errorf(
				"-engine native only applies to the native-vs-DES comparison; the figures are DES-only (run -experiment %s without -engine, or -experiment native)", *which))
		}
	}

	scale := experiments.Lab
	if *quick {
		scale = experiments.Quick
	}
	scale.Storage, scale.Network = opt.Storage, opt.Network
	scale.BenchDir = *benchJSON
	// Profiling brackets exactly the experiments' timed region — the
	// same code the wall-clock records measure — so "profile-driven" is
	// reproducible by anyone: chaos-bench -experiment native -cpuprofile
	// cpu.pb.gz, then go tool pprof (see EXPERIMENTS.md).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			cli.Fatal(logger, "creating cpu profile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			cli.Fatal(logger, "starting cpu profile", err)
		}
		defer pprof.StopCPUProfile()
	}
	ran := 0
	for _, e := range all {
		if *which != "all" && e.name != *which {
			continue
		}
		if err := e.run(os.Stdout, scale); err != nil {
			cli.Fatal(logger, e.name, err)
		}
		ran++
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			cli.Fatal(logger, "creating mem profile", err)
		}
		runtime.GC() // settle live objects so alloc_space dominates the view
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			cli.Fatal(logger, "writing mem profile", err)
		}
		f.Close()
	}
	if ran == 0 {
		names := make([]string, len(all))
		for i, e := range all {
			names[i] = e.name
		}
		cli.Fatal(logger, "unknown experiment", fmt.Errorf(
			"%q is not an experiment (want all or one of %s)", *which, strings.Join(names, " ")))
	}
	fmt.Println()
}
