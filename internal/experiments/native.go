// Emission/listing order in this file must be byte-stable across runs:
// chaos-vet's detrange analyzer checks every map iteration below.
//
//chaos:sorted-maps
package experiments

import (
	"fmt"
	"io"
	"time"

	"chaos"
)

// NativeVsDES compares the native execution plane against the DES driver
// on the same graphs: identical algorithm, partitioning and seed, the
// two drivers' host wall-clock side by side, plus the DES arm's
// simulated seconds for reference. This experiment has no paper
// counterpart — it tracks the reproduction's own performance trajectory
// (ROADMAP: "as fast as the hardware allows") and backs the CI assertion
// that running the protocol without the simulator is never slower than
// running it under the simulator. Emits BENCH_native.json.
func NativeVsDES(w io.Writer, s Scale) error {
	header(w, "native", "native execution plane vs DES driver (host wall-clock)",
		"no figure; reproduction performance record (DESIGN.md, Two planes one protocol)")
	const alg = "PR"
	edges, n := graphFor(alg, s.StrongScale)
	rec := s.newBenchRecord("native")

	des := BenchArm{Name: "des"}
	nat := BenchArm{Name: "native"}
	var desWall, natWall float64
	for _, m := range s.Machines {
		opt := s.options(m, n)

		t0 := time.Now()
		rep, err := chaos.RunByName(alg, edges, n, opt)
		if err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		des.Machines = append(des.Machines, m)
		des.SimulatedSeconds = append(des.SimulatedSeconds, rep.SimulatedSeconds)
		des.WallSecondsPerPoint = append(des.WallSecondsPerPoint, wall)
		desWall += wall

		// Same external clock as the DES arm (around the whole call,
		// setup and value collection included) so the CI-asserted
		// verdict compares identical measurement scopes —
		// Report.WallSeconds covers only the driver's execute loop.
		opt.Engine = chaos.EngineNative
		t0 = time.Now()
		if _, err := chaos.RunByName(alg, edges, n, opt); err != nil {
			return err
		}
		wall = time.Since(t0).Seconds()
		nat.Machines = append(nat.Machines, m)
		nat.SimulatedSeconds = append(nat.SimulatedSeconds, 0) // no virtual clock
		nat.WallSecondsPerPoint = append(nat.WallSecondsPerPoint, wall)
		natWall += wall
	}
	des.WallSeconds, nat.WallSeconds = desWall, natWall

	// Out-of-core arms: the native plane once more over a graph big
	// enough that a 1 MiB update budget forces real spill-file traffic,
	// beside an unlimited (zero-copy, all in memory) run of the same
	// graph. The pair prices the spill round-trip — encode, write, read
	// back, decode — against the typed fast path; results are identical
	// either way, so only wall-clock separates the arms.
	oocScale := s.StrongScale
	if oocScale < 14 {
		oocScale = 14
	}
	oocEdges, oocN := graphFor(alg, oocScale)
	fast := BenchArm{Name: "native-zerocopy"}
	ooc := BenchArm{Name: "oocore"}
	var fastWall, oocWall float64
	for _, m := range s.Machines {
		opt := s.options(m, oocN)
		opt.Engine = chaos.EngineNative

		t0 := time.Now()
		if _, err := chaos.RunByName(alg, oocEdges, oocN, opt); err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		fast.Machines = append(fast.Machines, m)
		fast.SimulatedSeconds = append(fast.SimulatedSeconds, 0)
		fast.WallSecondsPerPoint = append(fast.WallSecondsPerPoint, wall)
		fastWall += wall

		opt.MemoryBudgetMB = 1
		t0 = time.Now()
		rep, err := chaos.RunByName(alg, oocEdges, oocN, opt)
		if err != nil {
			return err
		}
		wall = time.Since(t0).Seconds()
		if rep.SpillBytes == 0 {
			return fmt.Errorf("experiments: oocore arm at m=%d did not spill (budget no longer binding at scale %d)", m, oocScale)
		}
		ooc.Machines = append(ooc.Machines, m)
		ooc.SimulatedSeconds = append(ooc.SimulatedSeconds, 0)
		ooc.WallSecondsPerPoint = append(ooc.WallSecondsPerPoint, wall)
		ooc.SpillBytesPerPoint = append(ooc.SpillBytesPerPoint, rep.SpillBytes)
		oocWall += wall
	}
	fast.WallSeconds, ooc.WallSeconds = fastWall, oocWall

	xAxis(w, "machines", des.Machines)
	series(w, "des wall s", des.Machines, des.WallSecondsPerPoint, "%8.3f")
	series(w, "native wall s", nat.Machines, nat.WallSecondsPerPoint, "%8.3f")
	series(w, "des simulated s", des.Machines, des.SimulatedSeconds, "%8.3f")
	if natWall > 0 {
		fmt.Fprintf(w, "  native speedup  %.1fx on host wall-clock (%.3fs vs %.3fs)\n",
			desWall/natWall, natWall, desWall)
	}
	fmt.Fprintf(w, "  results identical up to float fold order; simulated figures remain DES-only\n")
	fmt.Fprintf(w, "  out-of-core (RMAT-%d, 1 MiB update budget):\n", oocScale)
	series(w, "zero-copy wall s", fast.Machines, fast.WallSecondsPerPoint, "%8.3f")
	series(w, "oocore wall s", ooc.Machines, ooc.WallSecondsPerPoint, "%8.3f")
	if oocWall > 0 {
		fmt.Fprintf(w, "  spill overhead  %.1fx wall-clock vs zero-copy (%.3fs vs %.3fs)\n",
			oocWall/fastWall, oocWall, fastWall)
	}

	rec.Arms = []BenchArm{des, nat, fast, ooc}
	rec.WallSeconds = desWall + natWall + fastWall + oocWall
	verdict := natWall <= desWall
	rec.NativeBeatsDES = &verdict
	return s.emitBench(rec)
}
