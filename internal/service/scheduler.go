// Emission/listing order in this file must be byte-stable across runs:
// chaos-vet's detrange analyzer checks every map iteration below.
//
//chaos:sorted-maps
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chaos"
	"chaos/internal/obs"
)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle: Submit puts a job in JobQueued; a worker moves it to
// JobRunning and then JobDone or JobFailed; Cancel moves a still-queued
// job straight to JobCanceled, and asks a running job to stop at its
// next iteration boundary (the engine observes the job's context there),
// after which the worker records JobCanceled. After a crash, recovery
// re-enqueues jobs that were queued or running and fails unrecoverable
// ones with a restart reason.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one algorithm run over a registered graph. Fields after Options
// are guarded by the scheduler's mutex; handlers read them through
// snapshots (JobView), never directly.
type Job struct {
	ID        string
	Graph     string
	Algorithm string
	Options   chaos.Options

	state      JobState
	err        string
	result     *chaos.Result
	report     *chaos.Report
	cacheHit   bool
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time

	// cancel stops the running simulation at its next iteration
	// boundary; set only while state == JobRunning.
	cancel context.CancelFunc
	// canceling records that Cancel was accepted on a running job;
	// atomic (all writes still happen under s.mu) so the lock-free
	// progress ticks can carry the flag — otherwise a cancel would
	// visibly "un-happen" in every tick between acceptance and the
	// iteration boundary that honors it.
	canceling atomic.Bool
	// restarts counts how many times crash recovery re-enqueued this
	// job (diagnostics; also journaled).
	restarts int
	// answeredFromCache marks a run the executor satisfied from the
	// result cache instead of computing (the restart-path lookup in
	// Service.execute); atomic because the executor sets it on the run
	// goroutine while metrics accounting reads it under s.mu. Such a
	// "run" must not count toward nativeWallSeconds — nothing ran.
	answeredFromCache atomic.Bool

	// progress is the engine's latest iteration-boundary snapshot,
	// written by the run goroutine at every tick and read by view();
	// atomic so ticks never contend on the scheduler mutex.
	progress atomic.Pointer[chaos.Progress]
	// trace is the flight recorder the executor attached before running
	// (nil for cache hits and journal-restored jobs — nothing ran, so
	// nothing was recorded); atomic because the run goroutine stores it
	// while GET /v1/jobs/{id}/trace loads it. The recorder itself is
	// safe for concurrent use, so reading it mid-run is fine: the trace
	// of a running job is simply a prefix.
	trace atomic.Pointer[chaos.TraceRecorder]

	// Trace state (all guarded by s.mu; see trace.go). traceID roots the
	// job's causal trace; spans is the journaled lifecycle span list
	// (request/admitted/queued/run/terminal, plus recovery and
	// checkpoint spans), carried in every jobRecord so the tree survives
	// a crash-restart. rootSpanID/queuedSpanID/runSpanID locate the
	// spans later transitions must close or parent under.
	traceID      string
	traceRemote  bool
	spans        []obs.TreeSpan
	spanSeq      uint64
	rootSpanID   string
	queuedSpanID string
	runSpanID    string
}

// JobView is an immutable snapshot of a Job, safe to serialize.
type JobView struct {
	ID        string `json:"id"`
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	// Engine is the execution plane that runs (or ran) the job: "sim"
	// or "native". Jobs journaled before the engine option existed
	// report "sim", the only engine there was.
	Engine string `json:"engine"`
	// TraceID is the job's end-to-end trace (GET /v1/traces/{id});
	// empty only for jobs journaled before tracing existed.
	TraceID    string        `json:"traceId,omitempty"`
	State      JobState      `json:"state"`
	CacheHit   bool          `json:"cacheHit,omitempty"`
	Canceling  bool          `json:"canceling,omitempty"`
	Restarts   int           `json:"restarts,omitempty"`
	Error      string        `json:"error,omitempty"`
	EnqueuedAt time.Time     `json:"enqueuedAt"`
	StartedAt  *time.Time    `json:"startedAt,omitempty"`
	FinishedAt *time.Time    `json:"finishedAt,omitempty"`
	Result     *chaos.Result `json:"result,omitempty"`
	Report     *chaos.Report `json:"report,omitempty"`
	// Progress is the live iteration-boundary snapshot of a running
	// job: iterations, simulated seconds, bytes moved, steals accepted.
	Progress *chaos.Progress `json:"progress,omitempty"`
}

// stripped returns the view without the Result/Report payloads —
// the uniform list/event form. Listings used to embed full payloads
// for in-memory done jobs but null for journal-restored ones (listing
// never hydrates from the disk store); stripping both ways keeps
// listings uniform and cheap, and GET /v1/jobs/{id} keeps the payload.
func (v JobView) stripped() JobView {
	v.Result, v.Report = nil, nil
	return v
}

// engine is the job's canonical execution-engine name ("" and aliases
// fold to "sim"); derived from the submitted options so journal-restored
// pre-engine jobs report "sim".
func (j *Job) engine() string {
	if eng, err := chaos.ParseEngine(j.Options.Engine); err == nil {
		return eng
	}
	return j.Options.Engine // unknown names never pass Submit; be honest
}

// identView builds the JobView fields that are stable while a job runs
// (identity, engine, enqueue/start times, restart count) — the one
// construction site shared by the locked view() and the lock-free
// NoteProgress tick, so a new JobView field cannot be added to one and
// silently stay zero in the other.
func (j *Job) identView() JobView {
	v := JobView{
		ID:         j.ID,
		Graph:      j.Graph,
		Algorithm:  j.Algorithm,
		Engine:     j.engine(),
		TraceID:    j.traceID, // written once at admission, before the job can run
		Restarts:   j.restarts,
		EnqueuedAt: j.enqueuedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
	}
	return v
}

// view snapshots the job; callers hold s.mu.
func (j *Job) view() JobView {
	v := j.identView()
	v.State = j.state
	v.CacheHit = j.cacheHit
	v.Canceling = j.canceling.Load() && j.state == JobRunning
	v.Error = j.err
	v.Result = j.result
	v.Report = j.report
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	if j.state == JobRunning {
		v.Progress = j.progress.Load()
	}
	return v
}

// runFunc executes one job and returns its result; the scheduler owns all
// state transitions around the call. ctx is canceled when the job's
// cancellation is requested; a run that returns ctx.Err() after that is
// recorded as canceled, not failed.
type runFunc func(ctx context.Context, j *Job) (*chaos.Result, *chaos.Report, error)

// Scheduler runs jobs on a bounded worker pool: at most `workers`
// simulations execute concurrently, the rest wait in a bounded FIFO
// queue (admission control rejects past MaxQueue).
type Scheduler struct {
	run      runFunc
	workers  int
	retain   int // finished jobs kept in history
	maxQueue int // queued-job bound (0 = unbounded)

	mu   sync.Mutex
	cond *sync.Cond
	// queue is the FIFO of submitted jobs: live entries are
	// queue[qhead:]. Popping advances qhead after nilling the slot —
	// queue = queue[1:] would pin every popped *Job (result payloads
	// included) in the backing array — and compacts once the dead
	// prefix dominates, the same ring-head discipline as resultCache.
	queue  []*Job
	qhead  int
	queued int // jobs in state JobQueued (admission-control depth)
	jobs   map[string]*Job
	// byTrace maps a trace id to the job that owns it (GET
	// /v1/traces/{id}); pruned together with the job history.
	byTrace map[string]string
	order   []string
	nextID  int
	running int
	closed  bool
	counts  map[string]int // submissions per algorithm
	engines map[string]int // submissions per execution engine
	// nativeWallSeconds accumulates the measured wall-clock of
	// completed native runs (the /metrics
	// chaos_native_wall_seconds_total counter); cache hits never ran,
	// so they add nothing.
	nativeWallSeconds float64
	// spillBytes / spillFiles accumulate the out-of-core spill traffic
	// of completed native runs (the /metrics chaos_spill_*_total
	// counters); like nativeWallSeconds, cache hits add nothing.
	spillBytes int64
	spillFiles int
	wg         sync.WaitGroup

	// events fans state transitions and progress ticks out to SSE
	// subscribers; it has its own lock and never blocks publishers.
	events *eventHub

	// onUpdate, when set (before any submission), observes every state
	// transition with s.mu held — the service journals them through it.
	// Holding the lock keeps the journal in transition order.
	onUpdate func(*Job)
	// hydrate, when set, lazily reloads the (result, report) of a done
	// job whose payload did not survive in memory (a job restored from
	// the journal); it may read the disk result store.
	hydrate func(graph, algorithm string, opt chaos.Options) (*chaos.Result, *chaos.Report, bool)
	// onJobStart and onJobDone, when set (before any submission), feed
	// the /metrics latency histograms: queue wait as a worker dequeues a
	// job, and wall time by engine when a run completes successfully.
	// Both are called with s.mu held, so they must stay cheap.
	onJobStart func(queueWait time.Duration)
	onJobDone  func(engine string, wall time.Duration)
}

// noteLocked reports a state transition to the service and to event
// subscribers; callers hold s.mu and call it after every mutation of a
// job's state.
func (s *Scheduler) noteLocked(j *Job) {
	if s.onUpdate != nil {
		s.onUpdate(j)
	}
	s.events.publish(j.ID, EventState, j.view().stripped())
}

// NoteProgress files an engine progress tick against a running job:
// the job's live snapshot is replaced (lock-free — ticks arrive at
// every simulated iteration boundary) and subscribers get an event.
// Ordering with state events is inherent: ticks happen strictly inside
// the run, after the running transition and before the terminal one.
func (s *Scheduler) NoteProgress(j *Job, p chaos.Progress) {
	j.progress.Store(&p)
	// The view is assembled lock-free from fields that cannot change
	// while the job runs (identView: identity, engine, enqueue/start
	// times, restart count), the atomic canceling flag (so an accepted
	// cancel never "un-happens" in a later tick), and the tick itself.
	v := j.identView()
	v.State = JobRunning
	v.Canceling = j.canceling.Load()
	v.Progress = &p
	s.events.publish(j.ID, EventProgress, v)
}

// Subscribe streams a job's state transitions and progress ticks; see
// eventHub.subscribe for the channel contract.
func (s *Scheduler) Subscribe(id string) (<-chan JobEvent, func()) {
	return s.events.subscribe(id)
}

// SchedulerConfig parameterizes a Scheduler.
type SchedulerConfig struct {
	// Workers bounds concurrently running simulations.
	Workers int
	// Retain bounds the finished-job history: once more than Retain jobs
	// exist, the oldest finished ones are evicted (queued and running
	// jobs never are), so an always-on server does not grow without
	// bound. <= 0 means the default of 10000.
	Retain int
	// MaxQueue bounds the number of queued (not yet running) jobs;
	// Submit past it returns *QueueFullError so the HTTP layer can
	// answer 429 with Retry-After. 0 = unbounded.
	MaxQueue int
}

// NewScheduler starts a pool of workers feeding jobs through run.
func NewScheduler(cfg SchedulerConfig, run runFunc) *Scheduler {
	if cfg.Retain <= 0 {
		cfg.Retain = 10000
	}
	s := &Scheduler{
		run:      run,
		workers:  cfg.Workers,
		retain:   cfg.Retain,
		maxQueue: cfg.MaxQueue,
		jobs:     make(map[string]*Job),
		byTrace:  make(map[string]string),
		counts:   make(map[string]int),
		engines:  make(map[string]int),
		events:   newEventHub(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = fmt.Errorf("service: shutting down")

// QueueFullError reports a submission rejected by admission control:
// the queue already holds MaxQueue jobs. The HTTP layer answers 429
// with a Retry-After derived from the backlog.
type QueueFullError struct {
	Depth   int // queued jobs at rejection time
	Max     int
	Workers int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: job queue is full (%d queued, max %d); retry later", e.Depth, e.Max)
}

// RetryAfterSeconds estimates when a retry could be admitted. Job
// durations are unknowable up front (they depend on graph size and
// options), so this is deliberately a coarse backlog-per-worker
// heuristic, never less than a second.
func (e *QueueFullError) RetryAfterSeconds() int {
	w := e.Workers
	if w < 1 {
		w = 1
	}
	retry := e.Depth / w
	if retry < 1 {
		retry = 1
	}
	if retry > 60 {
		retry = 60
	}
	return retry
}

// pruneLocked evicts the oldest finished jobs beyond the retention cap;
// callers hold s.mu.
func (s *Scheduler) pruneLocked() {
	excess := len(s.order) - s.retain
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		terminal := j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
		if excess > 0 && terminal {
			delete(s.jobs, id)
			if j.traceID != "" && s.byTrace[j.traceID] == id {
				delete(s.byTrace, j.traceID)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// newJobLocked files a new job; callers hold s.mu.
func (s *Scheduler) newJobLocked(graphID, alg string, opt chaos.Options) *Job {
	s.nextID++
	j := &Job{
		ID:         fmt.Sprintf("j%d", s.nextID),
		Graph:      graphID,
		Algorithm:  alg,
		Options:    opt,
		enqueuedAt: time.Now().UTC(),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.counts[alg]++
	s.engines[j.engine()]++
	s.pruneLocked() // the new job is not yet terminal, so never evicted
	return j
}

// Submit enqueues a job, rejecting it with *QueueFullError when
// admission control finds the queue at its bound.
func (s *Scheduler) Submit(graphID, alg string, opt chaos.Options) (JobView, error) {
	return s.SubmitTraced(nil, graphID, alg, opt)
}

// SubmitTraced is Submit rooted in the request's trace context (nil
// derives a synthetic root from the job's options fingerprint).
func (s *Scheduler) SubmitTraced(rt *reqTrace, graphID, alg string, opt chaos.Options) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrShuttingDown
	}
	if s.maxQueue > 0 && s.queued >= s.maxQueue {
		return JobView{}, &QueueFullError{Depth: s.queued, Max: s.maxQueue, Workers: s.workers}
	}
	j := s.newJobLocked(graphID, alg, opt)
	j.state = JobQueued
	s.initTraceLocked(j, rt)
	j.queuedSpanID = j.addSpanLocked(obs.KindLifecycle, "queued", "", j.rootSpanID, j.enqueuedAt.UnixNano(), 0)
	s.queue = append(s.queue, j)
	s.queued++
	s.noteLocked(j)
	s.cond.Signal()
	return j.view(), nil
}

// AdmitCached files an already-answered job (a result-cache hit) directly
// in the done state, so clients observe the same lifecycle either way.
func (s *Scheduler) AdmitCached(graphID, alg string, opt chaos.Options, res *chaos.Result, rep *chaos.Report) (JobView, error) {
	return s.AdmitCachedTraced(nil, graphID, alg, opt, res, rep)
}

// AdmitCachedTraced is AdmitCached rooted in the request's trace
// context; the trace tree records admission and an immediate done span
// (no queue, run or engine spans — nothing ran).
func (s *Scheduler) AdmitCachedTraced(rt *reqTrace, graphID, alg string, opt chaos.Options, res *chaos.Result, rep *chaos.Report) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrShuttingDown
	}
	j := s.newJobLocked(graphID, alg, opt)
	j.state = JobDone
	j.cacheHit = true
	j.result = res
	j.report = rep
	j.finishedAt = j.enqueuedAt
	s.initTraceLocked(j, rt)
	at := j.finishedAt.UnixNano()
	j.addSpanLocked(obs.KindLifecycle, "done", "served from the result cache", j.rootSpanID, at, at)
	s.noteLocked(j)
	return j.view(), nil
}

// Get snapshots the job with the given id, lazily rehydrating the
// result payload of a journal-restored done job from the disk store.
func (s *Scheduler) Get(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, false
	}
	needsHydration := j.state == JobDone && j.result == nil && s.hydrate != nil
	v := j.view()
	s.mu.Unlock()
	if !needsHydration {
		return v, true
	}
	// Hydration reads the disk store; doing it under s.mu would stall
	// every worker transition and submission behind one HTTP GET. The
	// payload for a key is immutable, so filling it in after re-locking
	// cannot race to a wrong value (a concurrent Get at worst loads the
	// same blob twice).
	res, rep, ok := s.hydrate(v.Graph, v.Algorithm, j.Options)
	if !ok {
		return v, true // blob evicted or lost: the view just lacks a result
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.result == nil {
		j.result, j.report = res, rep
	}
	return j.view(), true
}

// List snapshots every job in submission order.
func (s *Scheduler) List() []JobView {
	return s.ListFiltered(JobFilter{})
}

// Peek snapshots a job payload-stripped, without the lazy disk-store
// hydration Get performs — the right form for event streams and other
// callers that would discard the Result/Report anyway (hydrating would
// read and pin a potentially large blob just to strip it). The second
// return is the event-hub sequence the snapshot is current as of:
// subscribers that attached before the Peek must discard buffered
// events at or below it, or they would replay pre-snapshot history
// (stale progress, earlier states) after the newer snapshot.
func (s *Scheduler) Peek(id string) (JobView, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, 0, false
	}
	// Seq before view would be equally correct for state (both are
	// under s.mu); for lock-free progress ticks the store-then-publish
	// order in NoteProgress means a tick not yet published when we read
	// the seq is already visible to view() — replayed, it is a
	// duplicate, never a regression.
	return j.view().stripped(), s.events.lastSeq(), true
}

// Trace returns a job's flight recorder together with a
// payload-stripped view. The recorder is nil when the job never ran
// with one attached: still queued, answered from the result cache, or
// restored from the journal (spans are process-local and are not
// persisted). A running job's recorder is live — snapshotting it
// yields the spans emitted so far.
func (s *Scheduler) Trace(id string) (*chaos.TraceRecorder, JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobView{}, false
	}
	return j.trace.Load(), j.view().stripped(), true
}

// JobFilter selects and pages a job listing.
type JobFilter struct {
	// State keeps only jobs in this state ("" = all).
	State JobState
	// After resumes the listing just past this job id (exclusive
	// cursor). The id itself need not still exist — history eviction
	// may have removed it — because ids are ordered: jN sorts by N.
	After string
	// Limit caps the page size (0 = unlimited).
	Limit int
}

// ListFiltered snapshots jobs in submission order, restricted by f.
// Pagination protocol: pass the last id of one page as After for the
// next; a short (or empty) page means the listing is exhausted.
// Listing views are payload-stripped (no Result/Report): an unpaged
// listing of N done jobs must not serialize N full reports, and
// journal-restored done jobs would list null payloads anyway (listing
// never hydrates from the disk store). GET /v1/jobs/{id} serves the
// full payload.
func (s *Scheduler) ListFiltered(f JobFilter) []JobView {
	afterSeq := -1
	if f.After != "" {
		if seq, ok := jobSeq(f.After); ok {
			afterSeq = seq
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []JobView{}
	for _, id := range s.order {
		if afterSeq >= 0 {
			if seq, ok := jobSeq(id); ok && seq <= afterSeq {
				continue
			}
		}
		j := s.jobs[id]
		if f.State != "" && j.state != f.State {
			continue
		}
		out = append(out, j.view().stripped())
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// jobSeq extracts the numeric part of a job id ("j42" -> 42). Ids are
// assigned from a single counter, so the sequence orders submissions
// even across restarts.
func jobSeq(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Cancel stops a job. A queued job moves to JobCanceled immediately; a
// running job gets its context canceled and stops at the simulation's
// next iteration boundary (the returned view still says "running" with
// canceling set — poll until the worker records the final state).
// Finished jobs are immutable and report a state conflict.
func (s *Scheduler) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, &notFoundError{what: "job", id: id}
	}
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		j.finishedAt = time.Now().UTC()
		s.queued--
		j.noteTerminalLocked(j.finishedAt)
		s.noteLocked(j)
		// The job stays in s.queue; workers skip non-queued entries.
		return j.view(), nil
	case JobRunning:
		if !j.canceling.Load() {
			j.canceling.Store(true)
			j.cancel() // observed at the next iteration boundary
			if j.traceID != "" {
				at := time.Now().UTC().UnixNano()
				j.addSpanLocked(obs.KindLifecycle, "cancel requested",
					"stops at the next iteration boundary", j.rootSpanID, at, at)
			}
			// Journal the accepted cancellation: if the process dies
			// before the boundary, recovery must cancel the job, not
			// rerun it to completion.
			s.noteLocked(j)
		}
		return j.view(), nil // idempotent: repeat cancels just re-report
	default:
		return j.view(), fmt.Errorf("service: job %s is already %s", id, j.state)
	}
}

// popLocked removes and returns the queue head; callers hold s.mu and
// have checked non-emptiness. The vacated slot is nilled immediately
// (so a finished job's payload is collectable the moment history
// eviction drops it) and the dead prefix is compacted once it
// dominates, releasing the backing array that queue = queue[1:] used
// to pin every popped *Job in.
func (s *Scheduler) popLocked() *Job {
	j := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	switch {
	case s.qhead == len(s.queue):
		// Drained: every slot behind qhead is already nil, so resetting
		// in place pins nothing.
		s.queue = s.queue[:0]
		s.qhead = 0
	case s.qhead >= 32 && s.qhead*2 >= len(s.queue):
		s.queue = append(make([]*Job, 0, len(s.queue)-s.qhead), s.queue[s.qhead:]...)
		s.qhead = 0
	}
	return j
}

// queueLen reports the live queue window; callers hold s.mu.
func (s *Scheduler) queueLenLocked() int { return len(s.queue) - s.qhead }

// worker pops queued jobs until shutdown.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queueLenLocked() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queueLenLocked() == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		j := s.popLocked()
		if j.state != JobQueued { // canceled while waiting
			s.mu.Unlock()
			continue
		}
		j.state = JobRunning
		j.startedAt = time.Now().UTC()
		if s.onJobStart != nil {
			s.onJobStart(j.startedAt.Sub(j.enqueuedAt))
		}
		// Trace: the queue wait ends here, the run span opens — the
		// engine flight recording parents under it at serve time.
		startNs := j.startedAt.UnixNano()
		j.closeSpanLocked(j.queuedSpanID, startNs, "")
		j.runSpanID = j.addSpanLocked(obs.KindLifecycle, "run", "", j.rootSpanID, startNs, 0)
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		s.running++
		s.queued--
		s.noteLocked(j)
		s.mu.Unlock()

		res, rep, err := s.run(ctx, j)
		cancel()

		s.mu.Lock()
		s.running--
		j.cancel = nil
		j.finishedAt = time.Now().UTC()
		switch {
		case err == nil:
			j.state = JobDone
			j.result = res
			j.report = rep
			if rep != nil && rep.Engine == chaos.EngineNative && !j.answeredFromCache.Load() {
				// The cached report's WallSeconds belongs to the run
				// that produced the blob (already counted when it
				// completed), not to this process.
				s.nativeWallSeconds += rep.WallSeconds
				s.spillBytes += rep.SpillBytes
				s.spillFiles += rep.SpillFiles
			}
			if s.onJobDone != nil && !j.answeredFromCache.Load() {
				// Cache-answered restarts excluded for the same reason
				// as nativeWallSeconds: nothing ran.
				s.onJobDone(j.engine(), j.finishedAt.Sub(j.startedAt))
			}
		case errors.Is(err, context.Canceled) && j.canceling.Load():
			j.state = JobCanceled
			j.err = "canceled while running; stopped at an iteration boundary"
		default:
			j.state = JobFailed
			j.err = err.Error()
		}
		j.noteTerminalLocked(j.finishedAt)
		s.noteLocked(j)
		s.mu.Unlock()
	}
}

// CloseEventStreams disconnects every event subscriber and refuses new
// ones. The HTTP front end registers it as an on-shutdown hook: an SSE
// stream is never idle as far as the HTTP server can tell, so without
// this a single attached viewer would hold the entire drain budget.
func (s *Scheduler) CloseEventStreams() { s.events.closeAll() }

// Shutdown stops accepting submissions, cancels still-queued jobs,
// disconnects event subscribers, and waits for the running ones to
// drain (or ctx to expire).
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.events.closeAll()
	s.mu.Lock()
	s.closed = true
	for _, j := range s.queue[s.qhead:] {
		if j.state == JobQueued {
			j.state = JobCanceled
			j.err = "canceled at shutdown before running"
			j.finishedAt = time.Now().UTC()
			s.queued--
			j.noteTerminalLocked(j.finishedAt)
			s.noteLocked(j)
		}
	}
	s.queue, s.qhead = nil, 0
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown timed out with jobs still running: %w", ctx.Err())
	}
}

// schedStats is the scheduler's contribution to /v1/stats.
type schedStats struct {
	queueDepth        int
	running           int
	jobs              map[string]int
	perAlgorithm      map[string]int
	perEngine         map[string]int
	nativeWallSeconds float64
	spillBytes        int64
	spillFiles        int
}

func (s *Scheduler) stats() schedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := schedStats{
		running:           s.running,
		queueDepth:        s.queued,
		jobs:              make(map[string]int),
		perAlgorithm:      make(map[string]int),
		perEngine:         make(map[string]int),
		nativeWallSeconds: s.nativeWallSeconds,
		spillBytes:        s.spillBytes,
		spillFiles:        s.spillFiles,
	}
	for _, j := range s.jobs {
		st.jobs[string(j.state)]++
	}
	for alg, n := range s.counts {
		st.perAlgorithm[alg] = n
	}
	for eng, n := range s.engines {
		st.perEngine[eng] = n
	}
	return st
}
