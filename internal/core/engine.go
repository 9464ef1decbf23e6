package core

import (
	"errors"
	"fmt"

	"chaos/internal/cluster"
	"chaos/internal/core/drive"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/metrics"
	"chaos/internal/partition"
	"chaos/internal/sim"
	"chaos/internal/storage"
)

// ErrInterrupted reports a run stopped by Config.Interrupt at an
// iteration boundary before converging. No values are returned: the
// vertex state mid-algorithm is not a meaningful partial result.
var ErrInterrupted = errors.New("core: run interrupted")

// decision is the shared verdict machine 0 publishes between the gather
// barrier and the decision barrier of each iteration.
type decision struct {
	iter       int
	done       bool
	rollbackTo int // checkpointed iteration to restore, or -1
}

// engine carries the shared state of one run. Everything here is touched
// only from simulation context, where the DES scheduler serializes all
// access.
type engine[V, U, A any] struct {
	cfg    Config
	prog   gas.Program[V, U, A]
	layout *partition.Layout
	env    *sim.Env
	clu    *cluster.Cluster

	// kern is the driver-neutral data plane (record formats, pure chunk
	// kernels, scratch pools) shared with internal/core/native; see
	// internal/core/drive. The fields below mirror its geometry for the
	// engine's own chunk arithmetic.
	kern     *drive.Kernel[V, U, A]
	edgeFmt  graph.Format
	idBytes  int // update destination field width
	updBytes int // encoded update record size
	vBytes   int // encoded vertex record size
	window   int

	// Cached codecs: Program codec accessors construct fresh closures on
	// every call, which the per-chunk hot paths cannot afford.
	updCodec gas.Codec[U]
	vCodec   gas.Codec[V]

	stores   []*storage.Store
	storeIn  []*sim.Mailbox
	arbIn    []*sim.Mailbox
	machines []*machine[V, U, A]
	barrier  *sim.Barrier

	// Shared iteration state (serialized by the DES).
	changed  uint64
	decision decision

	// Checkpoint state: encoded vertex chunks per partition, captured
	// during apply write-back of checkpoint iterations (2-phase: pending
	// until machine 0 commits at the decision point).
	ckptPending map[int][][]byte
	ckptVerts   map[int][][]byte
	ckptIter    int
	failed      bool
	interrupted bool // Config.Interrupt fired; Run returns ErrInterrupted

	inputEdges [][]graph.Edge // per-machine slice of the unsorted input
	run        *metrics.Run
	dir        *storage.Directory
	dirIn      *sim.Mailbox

	// Optional model extensions (§6.1 footnote, §11.1).
	combiner gas.Combiner[U]
	rewriter gas.EdgeRewriter[V]
}

// Run executes prog over the given unsorted edge list on the configured
// cluster and returns the final vertex values plus runtime statistics.
// Timing covers pre-processing through the final apply, as in the paper.
func Run[V, U, A any](cfg Config, prog gas.Program[V, U, A], edges []graph.Edge, numVertices uint64) ([]V, *metrics.Run, error) {
	eng, err := newEngine(cfg, prog, edges, numVertices)
	if err != nil {
		return nil, nil, err
	}
	if err := eng.execute(); err != nil {
		return nil, nil, err
	}
	if eng.interrupted {
		// The partial vertex state is not a result anyone asked for.
		return nil, nil, ErrInterrupted
	}
	values, err := eng.collectValues()
	if err != nil {
		return nil, nil, err
	}
	return values, eng.run, nil
}

// newEngine validates the configuration and builds the simulated cluster,
// stores and machine state for one run.
func newEngine[V, U, A any](cfg Config, prog gas.Program[V, U, A], edges []graph.Edge, numVertices uint64) (*engine[V, U, A], error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
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

	env := sim.NewEnv(cfg.Seed)
	clu := cluster.New(env, cfg.Spec)
	eng := &engine[V, U, A]{
		cfg:         cfg,
		prog:        prog,
		layout:      layout,
		env:         env,
		clu:         clu,
		run:         metrics.NewRun(prog.Name(), cfg.Spec.Machines),
		ckptPending: make(map[int][][]byte),
		ckptVerts:   make(map[int][][]byte),
		ckptIter:    -1,
	}
	eng.decision.rollbackTo = -1
	eng.kern = drive.NewKernel(prog, layout)
	eng.edgeFmt = eng.kern.EdgeFmt
	eng.idBytes = eng.kern.IDBytes
	eng.updCodec = eng.kern.UpdCodec
	eng.vCodec = eng.kern.VCodec
	eng.updBytes = eng.kern.UpdBytes
	eng.vBytes = eng.kern.VBytes
	eng.window = cfg.window(clu)

	if cfg.CombineUpdates {
		c, ok := any(prog).(gas.Combiner[U])
		if !ok {
			return nil, fmt.Errorf("core: %s does not implement gas.Combiner; cannot combine updates", prog.Name())
		}
		eng.combiner = c
		eng.kern.Combiner = c
	}
	if cfg.RewriteEdges {
		r, ok := any(prog).(gas.EdgeRewriter[V])
		if !ok {
			return nil, fmt.Errorf("core: %s does not implement gas.EdgeRewriter; cannot rewrite edges", prog.Name())
		}
		eng.rewriter = r
		eng.kern.Rewriter = r
	}

	nm := cfg.Spec.Machines
	eng.inputEdges = splitInput(edges, nm)
	for i := 0; i < nm; i++ {
		backend := storage.Backend(storage.NewMemBackend())
		if cfg.BackendFor != nil {
			backend = cfg.BackendFor(i)
		}
		eng.stores = append(eng.stores, storage.NewStore(i, layout.NumPartitions, backend))
		eng.storeIn = append(eng.storeIn, sim.NewMailbox(env, fmt.Sprintf("store%d", i)))
		eng.arbIn = append(eng.arbIn, sim.NewMailbox(env, fmt.Sprintf("arb%d", i)))
	}
	if cfg.CentralDirectory {
		eng.dir = storage.NewDirectory(nm, env.Rand())
		eng.dirIn = sim.NewMailbox(env, "directory")
	}
	eng.barrier = sim.NewBarrier(env, nm)
	for i := 0; i < nm; i++ {
		eng.machines = append(eng.machines, newMachine(eng, i))
	}

	// Spawn the per-machine storage engines, steal arbiters and
	// computation engines, plus the optional central directory.
	for i := 0; i < nm; i++ {
		i := i
		env.Spawn(fmt.Sprintf("m%d.store", i), func(p *sim.Proc) { eng.storageProc(p, i) })
		env.Spawn(fmt.Sprintf("m%d.arbiter", i), func(p *sim.Proc) { eng.arbiterProc(p, i) })
	}
	if cfg.CentralDirectory {
		env.Spawn("directory", func(p *sim.Proc) { eng.directoryProc(p) })
	}
	for i := 0; i < nm; i++ {
		m := eng.machines[i]
		env.Spawn(fmt.Sprintf("m%d.compute", i), func(p *sim.Proc) { m.main(p) })
	}
	return eng, nil
}

// execute drives the simulation to completion.
func (eng *engine[V, U, A]) execute() error {
	eng.env.Run()
	if stuck := eng.env.Stuck(); len(stuck) > 0 {
		eng.env.Close()
		return fmt.Errorf("core: deadlock, stuck processes: %v", stuck)
	}
	eng.env.Close()
	eng.run.Runtime = eng.env.Now()
	eng.run.DeviceUtilization = eng.clu.DeviceUtilization()
	return nil
}

// splitInput divides the unsorted edge list evenly across machines,
// modeling the paper's input "randomly distributed over all storage
// devices" (§8). Shared with the native driver via internal/core/drive.
func splitInput(edges []graph.Edge, nm int) [][]graph.Edge {
	return drive.SplitInput(edges, nm)
}

// collectValues reads the final vertex state back from the stores
// (host-side; the computation has already recorded it on storage).
func (eng *engine[V, U, A]) collectValues() ([]V, error) {
	vcodec := eng.prog.VertexCodec()
	values := make([]V, eng.layout.NumVertices)
	perChunk := eng.verticesPerChunk()
	for part := 0; part < eng.layout.NumPartitions; part++ {
		lo, hi := eng.layout.Range(part)
		size := uint64(hi - lo)
		if size == 0 {
			continue
		}
		nchunks := int((size + uint64(perChunk) - 1) / uint64(perChunk))
		at := uint64(lo)
		for idx := 0; idx < nchunks; idx++ {
			home := storage.VertexChunkHome(part, idx, eng.layout.NumMachines)
			data, err := eng.stores[home].GetVertexChunk(part, idx)
			if err != nil && eng.cfg.ReplicateVertices {
				// Primary lost: recover from the replica (§6.6).
				rep := storage.VertexChunkReplica(part, idx, eng.layout.NumMachines)
				data, err = eng.stores[rep].GetVertexChunk(part, idx)
			}
			if err != nil {
				return nil, fmt.Errorf("core: collecting results: %w", err)
			}
			at += uint64(vcodec.DecodeSliceInto(values[at:], data))
		}
		if at != uint64(hi) {
			return nil, fmt.Errorf("core: partition %d vertex chunks held %d records, want %d", part, at-uint64(lo), size)
		}
	}
	return values, nil
}

func (eng *engine[V, U, A]) verticesPerChunk() int {
	per := eng.cfg.VertexChunkBytes / eng.vBytes
	if per < 1 {
		per = 1
	}
	return per
}

func (eng *engine[V, U, A]) vertexChunks(part int) int {
	size := eng.layout.Size(part)
	if size == 0 {
		return 0
	}
	per := uint64(eng.verticesPerChunk())
	return int((size + per - 1) / per)
}

// vertexSetBytes is V in the steal criterion: the partition's vertex-set
// size on storage.
func (eng *engine[V, U, A]) vertexSetBytes(part int) int64 {
	return int64(eng.layout.Size(part)) * int64(eng.vBytes)
}

// decide is machine 0's decision-point logic between the gather barrier and
// the decision barrier: convergence, checkpoint commit, failure injection.
func (eng *engine[V, U, A]) decide(iter int) {
	if eng.cfg.Progress != nil {
		// Same boundary as the Interrupt poll below. Purely observational:
		// every counter read here is already settled for this iteration,
		// and the callback cannot touch the RNG, clock or mailboxes, so a
		// run with a subscriber is bit-identical to one without.
		eng.cfg.Progress(Progress{
			Iterations:     iter + 1,
			Now:            eng.env.Now(),
			BytesRead:      eng.run.BytesRead,
			BytesWritten:   eng.run.BytesWritten,
			StealsAccepted: eng.run.StealsAccepted,
			StealsRejected: eng.run.StealsRejected,
			SpillBytes:     eng.run.SpillBytes,
		})
	}
	d := decision{iter: iter, rollbackTo: -1}
	d.done = eng.prog.Converged(iter, eng.changed) || iter+1 >= eng.cfg.MaxIterations
	if !d.done && eng.cfg.Interrupt != nil && eng.cfg.Interrupt() {
		// Cooperative cancellation: finish this iteration's barriers
		// normally (so every process unwinds cleanly) and stop.
		d.done = true
		eng.interrupted = true
	}
	eng.changed = 0

	if eng.checkpointDue(iter) {
		// Phase 2 of the checkpoint protocol: every master finished
		// writing its shadow copy before the gather barrier, so commit
		// by promoting pending to stable and only then discarding the
		// previous checkpoint (§6.6: new values completely stored
		// before the old values are removed).
		eng.ckptVerts = eng.ckptPending
		eng.ckptPending = make(map[int][][]byte)
		eng.ckptIter = iter
	}

	if !d.done && eng.cfg.FailAtIteration > 0 && !eng.failed && iter+1 >= eng.cfg.FailAtIteration && eng.ckptIter >= 0 {
		eng.failed = true
		eng.run.Recoveries++
		d.rollbackTo = eng.ckptIter
	}
	eng.decision = d
}

// checkpointDue reports whether iteration iter ends with a checkpoint.
func (eng *engine[V, U, A]) checkpointDue(iter int) bool {
	return eng.cfg.CheckpointEvery > 0 && (iter+1)%eng.cfg.CheckpointEvery == 0
}

// stealCriterion evaluates Equation 2 with the alpha bias of §10.2:
// accept iff V + D/(H+1) < alpha * D/H. Shared with the native driver
// via internal/core/drive.
func stealCriterion(vBytes, dBytes int64, workers int, alpha float64) bool {
	return drive.StealCriterion(vBytes, dBytes, workers, alpha)
}
