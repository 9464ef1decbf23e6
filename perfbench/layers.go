package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chaos/internal/algorithms"
	"chaos/internal/core/drive"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/partition"
	"chaos/internal/storage"
)

// ---------------------------------------------------------------------
// Go runtime: deltas of runtime/metrics and process CPU time around a
// stretch of timed calls.

type runtimeSnap struct {
	at                       time.Time
	allocBytes               uint64
	gcCPU, totalCPU, idleCPU float64
	processCPU               time.Duration
}

// processCPU is the CPU time (user + system) this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{
		at:         time.Now(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
		processCPU: processCPU(),
	}
}

// runtimeDelta reports the runtime layer between two snapshots: bytes
// allocated per unit of work, the share of busy CPU the GC took, and
// process CPU time over the CPU the GOMAXPROCS budget offered.
func runtimeDelta(a, b runtimeSnap, units float64) (allocPerUnit, gcShare, cpuUtil float64) {
	wall := b.at.Sub(a.at).Seconds()
	busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	return ratio(float64(b.allocBytes-a.allocBytes), units),
		ratio(b.gcCPU-a.gcCPU, busy),
		ratio((b.processCPU - a.processCPU).Seconds(), wall*float64(runtime.GOMAXPROCS(0)))
}

// childCPU reads another process's CPU time (user + system) from
// /proc/<pid>/stat, in clock ticks of 1/100 s.
func childCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime
	// are the 14th and 15th fields of the whole line.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// refLoopMs times a fixed single-threaded integer loop: a yardstick for
// how fast this host ran while the workload was measured. Shared hosts
// drift (CPU steal, busy SMT siblings); the record keeps the yardstick
// beside the workload's timings so a reader can tell a slower host
// from a slower program. Median of reps, in milliseconds.
func refLoopMs(reps int) float64 {
	var ms []float64
	x := uint64(1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < 1<<23; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	refSink = x
	return median(ms)
}

// refSink keeps the yardstick loop from being optimized away.
var refSink uint64

// cpuStat reads the machine-wide CPU time split of /proc/stat: the
// ticks the hypervisor stole from this VM and the total ticks.
func cpuStat() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
	}
	steal, err = strconv.ParseFloat(f[8], 64)
	return steal, total, err
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// ---------------------------------------------------------------------
// internal/core/drive kernels, timed bare: Kernel.ScatterChunkTyped and
// the program's Gather on one goroutine over the workload's own edge
// chunks, with no driver, pool or transport around them.

type kernelCost struct {
	nsPerEdge, nsPerUpdate float64
	edgeSize, updBytes     int
}

// measureKernels bins edges into the layout and chunk size the engine
// would use and times iteration 0's scatter and gather reps times,
// reporting the medians.
func measureKernels[V, U, A any](prog gas.Program[V, U, A], edges []graph.Edge, n uint64, machines, chunkBytes int, memBudget int64, reps int) (kernelCost, error) {
	vbytes := int64(prog.VertexCodec().Bytes)
	if memBudget <= 0 {
		memBudget = int64(n+1) * vbytes
	}
	layout, err := partition.NewLayout(n, machines, vbytes, memBudget)
	if err != nil {
		return kernelCost{}, err
	}
	kern := drive.NewKernel(prog, layout)
	edgeSize := kern.EdgeFmt.EdgeSize()
	limit := drive.SpillLimit(chunkBytes, edgeSize)
	np := layout.NumPartitions
	chunks := make([][][]byte, np)
	tails := make([][]byte, np)
	deg := make([]uint32, n)
	for _, e := range edges {
		p := layout.Of(e.Src)
		off := len(tails[p])
		tails[p] = append(tails[p], make([]byte, edgeSize)...)
		kern.EdgeFmt.Encode(tails[p][off:], e)
		if len(tails[p]) >= limit {
			chunks[p] = append(chunks[p], tails[p])
			tails[p] = nil
		}
		deg[e.Src]++
	}
	verts := make([][]V, np)
	accums := make([][]A, np)
	for p := 0; p < np; p++ {
		if len(tails[p]) > 0 {
			chunks[p] = append(chunks[p], tails[p])
		}
		lo, _ := layout.Range(p)
		verts[p] = make([]V, layout.Size(p))
		accums[p] = make([]A, layout.Size(p))
		for i := range verts[p] {
			d := uint32(0)
			if prog.NeedsDegrees() {
				d = deg[lo+graph.VertexID(i)]
			}
			prog.Init(lo+graph.VertexID(i), &verts[p][i], d)
		}
	}

	var scatterNs, gatherNs []float64
	for r := 0; r < reps; r++ {
		outs := make([]drive.ScatterOut[U], 0, len(edges)/max(limit/edgeSize, 1)+np)
		edgesSeen := 0
		t0 := time.Now()
		for p := 0; p < np; p++ {
			for _, data := range chunks[p] {
				outs = append(outs, drive.ScatterOut[U]{})
				kern.ScatterChunkTyped(0, p, verts[p], data, &outs[len(outs)-1])
				edgesSeen += outs[len(outs)-1].N
			}
		}
		scatterNs = append(scatterNs, ratio(float64(time.Since(t0).Nanoseconds()), float64(edgesSeen)))

		for p := range accums {
			for i := range accums[p] {
				accums[p][i] = prog.InitAccum()
			}
		}
		updates := 0
		t0 = time.Now()
		for i := range outs {
			for tp, recs := range outs[i].Typed {
				lo, _ := layout.Range(tp)
				acc, vs := accums[tp], verts[tp]
				for j := range recs {
					u := &recs[j]
					acc[u.Dst-lo] = prog.Gather(acc[u.Dst-lo], u.Val, &vs[u.Dst-lo])
				}
				updates += len(recs)
			}
		}
		gatherNs = append(gatherNs, ratio(float64(time.Since(t0).Nanoseconds()), float64(updates)))
		for i := range outs {
			kern.ReleaseScatterOut(&outs[i])
		}
	}
	return kernelCost{
		nsPerEdge:   median(scatterNs),
		nsPerUpdate: median(gatherNs),
		edgeSize:    edgeSize,
		updBytes:    kern.UpdBytes,
	}, nil
}

// measurePoolTask times a no-op drive.Pool Submit plus Wait, the
// per-chunk dispatch both drivers pay, in nanoseconds (median of
// batches).
func measurePoolTask() float64 {
	pool := drive.NewPool(0)
	defer pool.Close()
	const batch = 20000
	var per []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			t := &drive.Task{Fn: func() {}}
			pool.Submit(t)
			t.Wait()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(per)
}

// measureSpillRoundtrip pushes a synthetic update stream through a
// SpillTransport whose budget forces every chunk to disk, then drains
// and loads it back: encode, write, read, decode, without the driver
// around it. It returns encoded MB per second (1 MB = 1e6 bytes,
// median of reps) and checks the records survive the trip.
func measureSpillRoundtrip(dir string, totalBytes int, reps int) (float64, error) {
	prog := &algorithms.PageRank{Iterations: 5}
	const np = 4
	layout, err := partition.FixedLayout(1<<20, np, np)
	if err != nil {
		return 0, err
	}
	kern := drive.NewKernel[algorithms.PRVertex, float32, float64](prog, layout)
	const perChunk = 8192
	chunks := max(totalBytes/(perChunk*kern.UpdBytes), np*np)
	var rates []float64
	for r := 0; r < reps; r++ {
		runDir, err := os.MkdirTemp(dir, "roundtrip-*")
		if err != nil {
			return 0, err
		}
		backend, err := storage.NewFileBackend(runDir)
		if err != nil {
			os.RemoveAll(runDir)
			return 0, err
		}
		tr := kern.NewSpillTransport(1, backend, func() error { return os.RemoveAll(runDir) })
		var wantSum, gotSum uint64
		var bytes int64
		t0 := time.Now()
		for c := 0; c < chunks; c++ {
			recs := kern.GrabRecs()
			for i := 0; i < perChunk; i++ {
				dst := graph.VertexID((c*perChunk + i) % (1 << 20))
				recs = append(recs, drive.UpdRec[float32]{Dst: dst, Val: float32(i)})
				wantSum += uint64(dst) + uint64(i)
			}
			sb, _ := tr.Put(c%np, (c/np)%np, recs)
			bytes += sb
		}
		for dst := 0; dst < np; dst++ {
			for src := 0; src < np; src++ {
				pending := tr.DrainFrom(dst, src)
				for i := range pending {
					recs := pending[i].Load()
					for _, u := range recs {
						gotSum += uint64(u.Dst) + uint64(u.Val)
					}
					pending[i].Release(recs)
				}
			}
		}
		elapsed := time.Since(t0).Seconds()
		if err := tr.Close(); err != nil {
			return 0, err
		}
		if gotSum != wantSum {
			return 0, fmt.Errorf("spill roundtrip checksum %d, want %d", gotSum, wantSum)
		}
		if _, err := os.Stat(runDir); !os.IsNotExist(err) {
			return 0, fmt.Errorf("spill roundtrip left %s behind", runDir)
		}
		rates = append(rates, float64(bytes)/elapsed/1e6)
	}
	return median(rates), nil
}
