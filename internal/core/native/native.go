// Package native is the second driver of the Chaos protocol: it executes
// the same data plane as internal/core — streaming partitions, chunked
// update sets, the GAS kernels of internal/core/drive, work stealing by
// the §5.4 criterion, checkpoint/recovery decisions — but directly on the
// host instead of under the discrete-event simulation. Machines are
// goroutine groups, vertex state is resident typed memory, update chunks
// move through shared per-(source, destination) buckets with
// completion-signaled hand-off, and the only clock is host wall-clock:
// nothing charges virtual time.
//
// What the native driver does and does not validate (see DESIGN.md, "Two
// planes, one protocol"): algorithm results are exact and are tested
// against internal/refalgo exactly like the DES driver's; performance
// numbers are host wall-clock with no claim of reproducing the paper's
// testbed. The evaluation figures remain DES-only.
//
// Determinism: for a fixed seed the final vertex values are reproducible
// run to run — every order that reaches a floating-point fold is fixed
// (edge chunks are binned per machine and concatenated in machine order;
// update chunks fold in (source partition, chunk) order; combiner
// flushes sort destinations). Which goroutine processes which partition
// varies with host scheduling, but partition processing is
// order-independent by the same GAS argument the paper relies on, so
// only the steal counters are scheduling-dependent. Pipelining the
// scatter→gather boundary keeps that argument intact because the fold
// order, not the phase order, is what the float folds see. Kernels and
// folds run inline on the machine goroutine that claimed the partition.
package native

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"chaos/internal/core"
	"chaos/internal/core/drive"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/metrics"
	"chaos/internal/partition"
	"chaos/internal/sim"
	"chaos/internal/storage"
)

// Run executes prog over the given unsorted edge list natively and
// returns the final vertex values plus runtime statistics. The returned
// metrics mirror the DES driver's shape, with wall-clock durations in
// the time fields (Runtime, Preprocess) — callers that report "simulated
// seconds" must not source them from a native run.
func Run[V, U, A any](cfg core.Config, prog gas.Program[V, U, A], edges []graph.Edge, numVertices uint64) ([]V, *metrics.Run, error) {
	r, err := newRun(cfg, prog, edges, numVertices)
	if err != nil {
		return nil, nil, err
	}
	interrupted, err := r.execute(edges)
	if err != nil {
		return nil, nil, err
	}
	if interrupted {
		// The partial vertex state is not a result anyone asked for.
		return nil, nil, core.ErrInterrupted
	}
	values := r.collectValues()
	return values, r.rmet, nil
}

// run carries the state of one native execution.
type run[V, U, A any] struct {
	cfg    core.Config
	prog   gas.Program[V, U, A]
	kern   *drive.Kernel[V, U, A]
	layout *partition.Layout
	nm     int

	// The resident vertex store. verts[p] holds partition p's decoded
	// vertex values, live across phases and iterations — the producer
	// and consumer share an address space, so the vertex set crosses no
	// boundary and is never encoded at rest. kern.VCodec runs only where
	// bytes genuinely move: checkpoint shadow copies (§6.6) and their
	// restore. Partition p's values are written by gather(p)'s Apply and
	// read by scatter(p); the scatter-completion signal plus the
	// iteration barrier order those accesses (see runIteration).
	verts [][]V
	// edges[p] holds partition p's current-generation encoded edge
	// chunks; edgesNext[p] the rewritten next generation under the §6.1
	// extended model. One writer per slot per iteration, promoted at the
	// decision point.
	edges     [][][]byte
	edgesNext [][][]byte

	// tr carries updates from scatter to gather through the transport
	// seam (internal/core/drive): typed record slices through
	// per-(src, dst) buckets under the one-writer-until-completion
	// discipline, zero-copy in memory and — past
	// Config.TransportBudgetBytes — encoded onto spill files.
	tr drive.Transport[U]

	// Per-phase partition ownership tables: masters claim their own
	// partitions first, idle machines steal the rest through the §5.4
	// criterion. Two tables because both phases of one iteration run
	// concurrently.
	scatterClaimed []atomic.Bool
	gatherClaimed  []atomic.Bool
	// scatterDone[p] closes when scatter(p) completes; remade each
	// iteration. The close is the happens-before edge that lets
	// gather(q) drain bucket (p, q) — and, once all np channels are
	// closed, run Apply — while other scatters may still be running.
	scatterDone []chan struct{}
	// rngs holds one steal-sweep RNG per machine, created once per run
	// so probe orders vary across phases (as the DES driver's
	// persistent env RNG does) while staying seed-deterministic. Each
	// goroutine touches only its own machine's entry.
	rngs []*rand.Rand
	// others[m] is machine m's steal-sweep probe scratch: the fixed set
	// of partitions m does not master, reshuffled in place each sweep
	// (allocated once per run, not once per sweep).
	others [][]int

	// accums[p] is partition p's gather accumulator slice, allocated
	// once and reset via InitAccum at the top of each gather — the
	// iteration loop's largest recurring allocation before pooling.
	accums [][]A
	// combined[p][dst] is scatter(p)'s combiner map for destination dst,
	// reused across iterations (flushes clear, never discard, the maps).
	// Only touched by the machine running scatter(p); the iteration
	// barrier orders cross-iteration handoff. Nil unless combining.
	combined [][]map[graph.VertexID]U

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	ckptBytes    atomic.Int64
	changed      atomic.Uint64
	stealsAcc    atomic.Int64
	stealsRej    atomic.Int64

	// applyMu serializes Init/Apply across partitions: those program
	// hooks run on the single simulation thread under the DES driver,
	// so programs are free to keep private state in them (MCST's
	// component forest does). Scatter/Gather/Combine/RewriteEdge run
	// concurrently here, one partition per machine goroutine; they are
	// pure per-chunk functions of phase-stable inputs. Pipelining
	// preserves the contract Apply additionally relies on — running
	// strictly after every scatter of its iteration — because gather(p)
	// waits on all np scatterDone channels before its Apply (see
	// gatherPartition).
	applyMu sync.Mutex

	// Checkpoint state (2-phase, §6.6): encoded shadow chunks staged per
	// partition during apply, committed by the decision point. The
	// checkpoint is the one place vertex bytes still move, so it is the
	// one place kern.VCodec still runs per iteration.
	ckptPending [][][]byte
	ckptVerts   [][][]byte
	ckptIter    int
	failed      bool

	start time.Time
	rmet  *metrics.Run
}

func newRun[V, U, A any](cfg core.Config, prog gas.Program[V, U, A], edges []graph.Edge, numVertices uint64) (*run[V, U, A], error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if cfg.CentralDirectory {
		return nil, fmt.Errorf("native: the central-directory baseline is a DES-only experiment")
	}
	if numVertices == 0 {
		numVertices = graph.MaxVertex(edges)
	}
	if numVertices == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	vcodec := prog.VertexCodec()
	memBudget := cfg.MemBudget
	if memBudget <= 0 {
		memBudget = int64(numVertices+1) * int64(vcodec.Bytes) // unconstrained
	}
	layout, err := partition.NewLayout(numVertices, cfg.Spec.Machines, int64(vcodec.Bytes), memBudget)
	if err != nil {
		return nil, err
	}
	r := &run[V, U, A]{
		cfg:      cfg,
		prog:     prog,
		kern:     drive.NewKernel(prog, layout),
		layout:   layout,
		nm:       cfg.Spec.Machines,
		ckptIter: -1,
		rmet:     metrics.NewRun(prog.Name(), cfg.Spec.Machines),
	}
	if cfg.CombineUpdates {
		c, ok := any(prog).(gas.Combiner[U])
		if !ok {
			return nil, fmt.Errorf("core: %s does not implement gas.Combiner; cannot combine updates", prog.Name())
		}
		r.kern.Combiner = c
	}
	if cfg.RewriteEdges {
		rw, ok := any(prog).(gas.EdgeRewriter[V])
		if !ok {
			return nil, fmt.Errorf("core: %s does not implement gas.EdgeRewriter; cannot rewrite edges", prog.Name())
		}
		r.kern.Rewriter = rw
	}
	np := layout.NumPartitions
	r.verts = make([][]V, np)
	r.edges = make([][][]byte, np)
	r.edgesNext = make([][][]byte, np)
	if cfg.TransportBudgetBytes > 0 {
		// Out-of-core mode: overflow past the budget is encoded with
		// the kernel codec and spilled to real temp files, one
		// directory per run, removed when the transport closes.
		dir, err := os.MkdirTemp(cfg.SpillDir, "chaos-spill-*")
		if err != nil {
			return nil, fmt.Errorf("native: spill dir: %w", err)
		}
		backend, err := storage.NewFileBackend(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		r.tr = r.kern.NewSpillTransport(cfg.TransportBudgetBytes, backend, func() error { return os.RemoveAll(dir) })
	} else {
		r.tr = r.kern.NewMemTransport()
	}
	r.scatterClaimed = make([]atomic.Bool, np)
	r.gatherClaimed = make([]atomic.Bool, np)
	r.scatterDone = make([]chan struct{}, np)
	r.rngs = make([]*rand.Rand, r.nm)
	r.others = make([][]int, r.nm)
	for m := range r.rngs {
		r.rngs[m] = rand.New(rand.NewSource(cfg.Seed + int64(m)))
		for p := 0; p < np; p++ {
			if layout.Master(p) != m {
				r.others[m] = append(r.others[m], p)
			}
		}
	}
	r.accums = make([][]A, np)
	for p := 0; p < np; p++ {
		r.accums[p] = make([]A, layout.Size(p))
	}
	if r.kern.Combiner != nil {
		r.combined = make([][]map[graph.VertexID]U, np)
	}
	r.ckptPending = make([][][]byte, np)
	r.ckptVerts = make([][][]byte, np)
	return r, nil
}

// execute drives the run: preprocess, then iterations of scatter and
// gather+apply with a decision point between iterations, mirroring the
// DES driver's loop. It reports whether Config.Interrupt stopped the run.
func (r *run[V, U, A]) execute(edges []graph.Edge) (interrupted bool, err error) {
	// The native plane measures real elapsed time by design: its report
	// carries wall-clock, never virtual time (see Report.WallSeconds).
	// These are the only two sanctioned clock reads in the deterministic
	// packages; chaos-vet's wallclock analyzer enforces that.
	r.start = time.Now() //chaos:wallclock-ok native plane measures wall time by design
	// Closing the transport removes any spill files, on every exit path:
	// completion, interrupt, and rollback alike (update sets are fully
	// consumed by the gather preceding each decision point, so nothing
	// pending is lost).
	defer func() {
		if cerr := r.tr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	r.preprocess(edges)
	r.rmet.Preprocess = r.elapsed()

	for iter := 0; ; {
		r.runIteration(iter)

		// Decision point (machine 0's role under the DES driver).
		changed := r.changed.Swap(0)
		if r.cfg.Progress != nil {
			r.cfg.Progress(core.Progress{
				Iterations:     iter + 1,
				Now:            r.elapsed(),
				BytesRead:      r.bytesRead.Load(),
				BytesWritten:   r.bytesWritten.Load(),
				StealsAccepted: int(r.stealsAcc.Load()),
				StealsRejected: int(r.stealsRej.Load()),
				SpillBytes:     r.tr.Stats().SpillBytes,
			})
		}
		done := r.prog.Converged(iter, changed) || iter+1 >= r.cfg.MaxIterations
		if !done && r.cfg.Interrupt != nil && r.cfg.Interrupt() {
			done = true
			interrupted = true
		}
		if r.checkpointDue(iter) {
			// Phase 2 of §6.6: promote pending to stable, then discard
			// the previous checkpoint.
			r.ckptVerts = r.ckptPending
			r.ckptPending = make([][][]byte, r.layout.NumPartitions)
			r.ckptIter = iter
		}
		if !done && r.cfg.FailAtIteration > 0 && !r.failed && iter+1 >= r.cfg.FailAtIteration && r.ckptIter >= 0 {
			// Transient failure injection: restore the last committed
			// checkpoint and resume after it.
			r.failed = true
			r.rmet.Recoveries++
			r.restore()
			iter = r.ckptIter + 1
			continue
		}
		if done {
			r.rmet.Iterations = iter + 1
			break
		}
		if r.kern.Rewriter != nil {
			r.promoteEdges()
		}
		iter++
	}

	r.rmet.Runtime = r.elapsed()
	r.rmet.BytesRead = r.bytesRead.Load()
	r.rmet.BytesWritten = r.bytesWritten.Load()
	r.rmet.CheckpointBytes = r.ckptBytes.Load()
	r.rmet.StealsAccepted = int(r.stealsAcc.Load())
	r.rmet.StealsRejected = int(r.stealsRej.Load())
	st := r.tr.Stats()
	r.rmet.SpillBytes = st.SpillBytes
	r.rmet.SpillFiles = st.SpillFiles
	return interrupted, nil
}

// elapsed is host wall-clock since the run started, in the same
// nanosecond unit the DES uses for virtual time.
func (r *run[V, U, A]) elapsed() sim.Time { return sim.Time(time.Since(r.start)) } //chaos:wallclock-ok native plane measures wall time by design

func (r *run[V, U, A]) checkpointDue(iter int) bool {
	return r.cfg.CheckpointEvery > 0 && (iter+1)%r.cfg.CheckpointEvery == 0
}

// runIteration processes every partition's scatter and gather exactly
// once, then returns with the iteration fully settled (the decision
// point still needs one barrier; pipelining removes the mid-iteration
// one).
//
// Each of the nm machine goroutines runs scatter over its own
// partitions, closes each partition's scatterDone as it finishes, sweeps
// for scatter steals, then moves straight into gather — its gathers
// fold each source's chunks as that source's channel closes, overlapping
// with other machines' still-running scatters. No goroutine ever blocks
// before finishing its scatter stage, so every scatterDone channel is
// guaranteed to close and the gather waits cannot deadlock.
func (r *run[V, U, A]) runIteration(iter int) {
	np := r.layout.NumPartitions
	for i := 0; i < np; i++ {
		r.scatterClaimed[i].Store(false)
		r.gatherClaimed[i].Store(false)
		r.scatterDone[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	wg.Add(r.nm)
	for m := 0; m < r.nm; m++ {
		go func(m int) {
			defer wg.Done()
			r.ownPartitions(iter, m, scatterPhase)
			r.stealSweep(iter, m, scatterPhase)
			r.ownPartitions(iter, m, gatherPhase)
			r.stealSweep(iter, m, gatherPhase)
		}(m)
	}
	wg.Wait()
}

// ownPartitions claims and processes machine m's own partitions, in
// order (masters take whatever of their own work nobody stole, so every
// partition is processed even when the criterion rejects stealing it).
func (r *run[V, U, A]) ownPartitions(iter, m int, ph phaseKind) {
	claimed := r.phaseClaimed(ph)
	for _, p := range r.layout.PartitionsOf(m) {
		if claimed[p].CompareAndSwap(false, true) {
			r.processPartition(iter, m, p, false, ph)
		}
	}
}

// stealSweep probes everyone else's partitions in machine m's
// seeded-random order (§5.3), stealing any still-unclaimed partition the
// §5.4 criterion accepts. The criterion's D is read live — the edge set
// is immutable within an iteration and the transport's PendingBytes is a
// single atomic — so the sweep needs no phase-start snapshot and stays
// correct while producers are still running.
func (r *run[V, U, A]) stealSweep(iter, m int, ph phaseKind) {
	if r.cfg.Alpha == 0 || r.nm <= 1 {
		return
	}
	claimed := r.phaseClaimed(ph)
	sweepT0 := r.elapsed()
	var acc, rej int
	rng := r.rngs[m]
	others := r.others[m]
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	for _, p := range others {
		if claimed[p].Load() {
			continue
		}
		if !drive.StealCriterion(r.vertexSetBytes(p), r.remainingBytes(ph, p), 1, r.cfg.Alpha) {
			r.stealsRej.Add(1)
			rej++
			continue
		}
		if claimed[p].CompareAndSwap(false, true) {
			r.stealsAcc.Add(1)
			acc++
			r.processPartition(iter, m, p, true, ph)
		}
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: m, Part: -1, Phase: drive.PhaseSteal,
			Start: int64(sweepT0), Dur: int64(r.elapsed() - sweepT0),
			StealsAccepted: acc, StealsRejected: rej,
		})
	}
}

// processPartition dispatches one claimed partition to its phase worker.
// Whoever claims scatter(p) — master or thief — closes its completion
// channel, exactly once, after the last Put of p's update set.
func (r *run[V, U, A]) processPartition(iter, m, p int, stolen bool, ph phaseKind) {
	if ph == scatterPhase {
		r.scatterPartition(iter, m, p, stolen)
		close(r.scatterDone[p])
	} else {
		r.gatherPartition(iter, m, p, stolen)
	}
}

type phaseKind int

const (
	scatterPhase phaseKind = iota
	gatherPhase
)

func (r *run[V, U, A]) phaseClaimed(ph phaseKind) []atomic.Bool {
	if ph == scatterPhase {
		return r.scatterClaimed
	}
	return r.gatherClaimed
}

// remainingBytes is D in the steal criterion: the unprocessed bytes of
// the partition's streamed set this phase. Safe to read while the
// partition's producers run: the edge set is immutable within an
// iteration, and PendingBytes is atomic.
func (r *run[V, U, A]) remainingBytes(ph phaseKind, p int) int64 {
	if ph == scatterPhase {
		return storedBytes(r.edges[p])
	}
	return r.tr.PendingBytes(p)
}

// vertexSetBytes is V in the steal criterion (encoded-equivalent, as the
// paper prices the transfer a real steal would cost).
func (r *run[V, U, A]) vertexSetBytes(p int) int64 {
	return int64(r.layout.Size(p)) * int64(r.kern.VBytes)
}

// promoteEdges swaps in the rewritten next-generation edge sets at the
// iteration boundary (§6.1 extended model).
func (r *run[V, U, A]) promoteEdges() {
	for p := range r.edges {
		r.edges[p] = r.edgesNext[p]
		r.edgesNext[p] = nil
	}
}

// restore decodes the last committed checkpoint back into the resident
// vertex store after an injected failure — one of the places vertex
// bytes genuinely move, so it reads through the codec and counts toward
// BytesRead.
func (r *run[V, U, A]) restore() {
	for p, chunks := range r.ckptVerts {
		if chunks == nil {
			continue
		}
		verts := r.verts[p]
		at := 0
		for _, c := range chunks {
			at += r.kern.VCodec.DecodeSliceInto(verts[at:], c)
			r.bytesRead.Add(int64(len(c)))
		}
		if at != len(verts) {
			panic(fmt.Sprintf("native: checkpoint for partition %d held %d records, want %d", p, at, len(verts)))
		}
	}
}

// collectValues copies the final vertex state out of the resident store.
func (r *run[V, U, A]) collectValues() []V {
	values := make([]V, r.layout.NumVertices)
	for p := 0; p < r.layout.NumPartitions; p++ {
		lo, hi := r.layout.Range(p)
		if lo == hi {
			continue
		}
		if copied := copy(values[lo:hi], r.verts[p]); uint64(copied) != uint64(hi-lo) {
			panic(fmt.Sprintf("native: partition %d store held %d records, want %d", p, copied, uint64(hi-lo)))
		}
	}
	return values
}
