package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"chaos"
	"chaos/internal/rmat"
)

// The serve workloads drive the real chaos-serve binary over HTTP: one
// registered R-MAT graph, an open loop of native PageRank jobs at a
// fixed offered rate on a seeded schedule, sent over at most two
// connections. A fresh job has a distinct options seed: a cache miss
// that runs the engine, journals and stores a result blob. A hit
// resubmits an earlier job exactly and is answered from the result
// cache: HTTP, cache and journal only.
type serveWorkload struct {
	rate float64 // offered jobs per second
	hits float64 // share of jobs that resubmit an earlier one
	// gateHits makes run_s the median cache-hit latency instead of the
	// median fresh-job latency, and lets hits resubmit the warm-up jobs
	// from the first second on.
	gateHits bool
}

var serveWorkloads = map[string]serveWorkload{
	"serve-mixed": {rate: 4, hits: 0.25},
	"serve-hits":  {rate: 20, hits: 1, gateHits: true},
}

const (
	serveScale   = 16
	serveConns   = 2
	serveWorkers = "2"
	hitMinAge    = 1.0 // a hit resubmits a job due at least this many seconds earlier
	jobTimeout   = 30 * time.Second
)

// plannedJob is one entry of the seeded schedule.
type plannedJob struct {
	at   float64 // seconds after the pass starts that the job is due
	seed int64   // options seed; a hit repeats its original's
	hit  bool
}

// schedule lays out round(w.rate*seconds) arrivals, one per slot of
// 1/w.rate seconds at a seeded uniform offset inside the slot: a fixed
// offered rate and job count, with jitter but without the bursts of
// Poisson arrivals, whose seed-to-seed swings in queueing would swamp
// the latency figures. Fresh jobs take distinct options seeds from
// seedBase up; a hit picks one of the primed seeds (jobs already done)
// or a fresh job due at least hitMinAge earlier, so it can be answered
// from the cache.
func schedule(w serveWorkload, seed int64, seconds float64, seedBase int64, primed []int64) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []plannedJob
	fresh := slices.Clone(primed)
	freshAt := make([]float64, len(primed))
	for i := range freshAt {
		freshAt[i] = math.Inf(-1)
	}
	eligible := 0
	for slot := 0; slot < int(math.Round(w.rate*seconds)); slot++ {
		t := (float64(slot) + rng.Float64()) / w.rate
		for eligible < len(fresh) && freshAt[eligible] <= t-hitMinAge {
			eligible++
		}
		j := plannedJob{at: t}
		if rng.Float64() < w.hits && eligible > 0 {
			j.hit = true
			j.seed = fresh[rng.Intn(eligible)]
		} else {
			j.seed = seedBase + int64(len(fresh)-len(primed))
			fresh = append(fresh, j.seed)
			freshAt = append(freshAt, t)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// Wire shapes of the chaos-serve API the benchmark reads.
type jobView struct {
	ID         string        `json:"id"`
	TraceID    string        `json:"traceId"`
	State      string        `json:"state"`
	CacheHit   bool          `json:"cacheHit"`
	Error      string        `json:"error"`
	EnqueuedAt time.Time     `json:"enqueuedAt"`
	StartedAt  *time.Time    `json:"startedAt"`
	FinishedAt *time.Time    `json:"finishedAt"`
	Result     *chaos.Result `json:"result"`
}

type treeSpan struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Start int64  `json:"startNs"`
	End   int64  `json:"endNs"`
}

type treeNode struct {
	Span     treeSpan    `json:"span"`
	Children []*treeNode `json:"children"`
}

type traceView struct {
	Tree    []*treeNode `json:"tree"`
	Orphans int         `json:"orphans"`
}

func terminalState(s string) bool { return s == "done" || s == "failed" || s == "canceled" }

// jobRun is one scheduled job as the client saw it.
type jobRun struct {
	plannedJob
	due, sent, observed time.Time
	view                jobView
	trace               *traceView
	err                 error
	done                chan struct{} // closed once the job is observed terminal (or failed)
}

func (r *jobRun) latency() float64 { return r.observed.Sub(r.due).Seconds() }

// server is one chaos-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

func startServer(bin, dataDir string, log io.Writer, client *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:"+port, "-workers", serveWorkers, "-chunk-kb", "64", "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = log, log
	// The server must not outlive the benchmark, even if it dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting chaos-serve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://127.0.0.1:" + port, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("chaos-serve exited during start-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("chaos-serve did not become healthy")
		}
	}
}

// stop asks for a graceful shutdown and waits for the process to end,
// killing it if the drain overruns.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		return err
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("chaos-serve did not drain within 30s")
	}
}

// serveBench holds one serve-mixed invocation.
type serveBench struct {
	cfg    config
	o      *outcome
	client *http.Client
	srv    *server
}

func runServe(cfg config, o *outcome) error {
	if cfg.serveBin == "" {
		return fmt.Errorf("serve-mixed needs -serve-bin")
	}
	scratch := os.Getenv("TMPDIR")
	logf, err := os.Create(filepath.Join(scratch, "chaos-serve.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	w := serveWorkloads[cfg.workload]
	sb := &serveBench{cfg: cfg, o: o, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
		Timeout:   jobTimeout,
	}}

	// Set-up: server start plus graph registration, setupReps times on
	// fresh data dirs; the last server stays up for the measurement.
	var setups, registers []float64
	var dataDir string
	for i := 0; i < setupReps; i++ {
		if sb.srv != nil {
			if err := sb.srv.stop(); err != nil {
				return err
			}
			sb.srv = nil
		}
		if dataDir, err = os.MkdirTemp(scratch, "data-*"); err != nil {
			return err
		}
		t0 := time.Now()
		srv, err := startServer(cfg.serveBin, dataDir, logf, sb.client)
		if err != nil {
			return err
		}
		sb.srv = srv
		t1 := time.Now()
		if err := sb.post("/v1/graphs", map[string]any{"name": "g", "type": "rmat", "scale": serveScale, "seed": cfg.seed}, http.StatusCreated, nil); err != nil {
			srv.stop()
			return fmt.Errorf("registering the graph: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		registers = append(registers, time.Since(t1).Seconds())
	}
	defer func() {
		if sb.srv != nil {
			sb.srv.stop()
		}
	}()
	o.set("setup_s", median(setups), len(setups))
	o.set("service.register_s", median(registers), len(registers))

	// Warm-up: a few fresh jobs one at a time, not measured.
	warm := make([]plannedJob, 4)
	var primed []int64
	for i := range warm {
		warm[i] = plannedJob{seed: int64(i + 1)}
		if w.gateHits {
			primed = append(primed, warm[i].seed)
		}
	}
	warmRuns := sb.pass(warm, nil, false, true)

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	plain := sb.measuredPass(schedule(w, cfg.seed, window, 1_000_000, primed), warmRuns, false)
	var traced []*jobRun
	if cfg.trace {
		traced = sb.measuredPass(schedule(w, cfg.seed+1, window, 2_000_000, primed), warmRuns, true)
	}
	rss, err := peakRSSMB(strconv.Itoa(sb.srv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	err = sb.srv.stop()
	sb.srv = nil
	if err != nil {
		return err
	}
	if left, _ := filepath.Glob(filepath.Join(dataDir, "spill", "*")); len(left) > 0 {
		o.attempted++
		o.fail("chaos-serve left %d spill entries behind", len(left))
	}
	o.set("peak_rss_mb", rss, 1)
	sb.checkResults(slices.Concat(warmRuns, plain, traced))

	fresh, hits := latencies(plain)
	gated := fresh
	if w.gateHits {
		gated = hits
	}
	o.set("run_s", median(gated), len(gated))
	o.set("service.fresh_p95_s", quantile(fresh, 0.95), len(fresh))
	o.set("service.hit_p50_s", median(hits), len(hits))
	o.set("failed_ratio", ratio(float64(o.failed), float64(o.attempted)), o.attempted)
	if cfg.trace {
		tf, th := latencies(traced)
		if w.gateHits {
			tf = th
		}
		o.set("trace.overhead_share", median(tf)/median(gated)-1, len(tf))
		sb.tiers(traced)
	}
	return nil
}

func latencies(runs []*jobRun) (fresh, hits []float64) {
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		if !r.hit {
			fresh = append(fresh, r.latency())
		} else {
			hits = append(hits, r.latency())
		}
	}
	return fresh, hits
}

// measuredPass runs one scheduled pass and reports the counters that
// only the server sees: cache hit ratio against the schedule's hit
// share, fsyncs per job, and throughput.
func (sb *serveBench) measuredPass(jobs []plannedJob, prior []*jobRun, traced bool) []*jobRun {
	statsBefore, errA := sb.stats()
	fsyncsBefore, errB := sb.metric("chaos_wal_fsyncs_total")
	cpuBefore, errE := childCPU(sb.srv.cmd.Process.Pid)
	start := time.Now()
	runs := sb.pass(jobs, prior, traced, false)
	var last time.Time
	completed, planHits := 0, 0
	for _, r := range runs {
		if r.hit {
			planHits++
		}
		if r.err == nil {
			completed++
			if r.observed.After(last) {
				last = r.observed
			}
		}
	}
	cpuAfter, errF := childCPU(sb.srv.cmd.Process.Pid)
	statsAfter, errC := sb.stats()
	fsyncsAfter, errD := sb.metric("chaos_wal_fsyncs_total")
	if err := firstErr(errA, errB, errC, errD, errE, errF); err != nil {
		sb.o.attempted++
		sb.o.fail("reading server counters: %v", err)
		return runs
	}
	hits := statsAfter.Cache.Hits - statsBefore.Cache.Hits
	misses := statsAfter.Cache.Misses - statsBefore.Cache.Misses
	hitRatio := ratio(float64(hits), float64(hits+misses))
	want := ratio(float64(planHits), float64(len(runs)))
	if hits != planHits || hits+misses != len(runs) {
		sb.o.attempted++
		sb.o.fail("server counted %d hits / %d misses, the schedule has %d hits in %d jobs", hits, misses, planHits, len(runs))
	}
	if traced {
		sb.o.set("service.cache_hit_ratio", hitRatio, len(runs))
		sb.o.set("durable.fsyncs_per_job", ratio(fsyncsAfter-fsyncsBefore, float64(len(runs))), len(runs))
	} else if completed > 0 {
		sb.o.set("jobs_per_s", float64(completed)/last.Sub(start).Seconds(), completed)
		sb.o.set("cpu_s_per_job", (cpuAfter-cpuBefore).Seconds()/float64(completed), completed)
		sb.o.extra["schedule_hit_share"] = want
		sb.o.extra["jobs"] = len(runs)
	}
	return runs
}

// freshBySeed indexes fresh jobs by their options seed, the key a hit
// resubmits.
func freshBySeed(runs []*jobRun) map[int64]*jobRun {
	m := make(map[int64]*jobRun, len(runs))
	for _, r := range runs {
		if !r.hit {
			m[r.seed] = r
		}
	}
	return m
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pass runs a schedule over serveConns client workers. Each job is
// timed from when it was due, so a stalled server charges the wait to
// the jobs behind it. A hit waits until its original (a fresh job of
// this pass or of prior) is done. serial runs the jobs one at a time,
// untimed (the warm-up).
func (sb *serveBench) pass(jobs []plannedJob, prior []*jobRun, traced, serial bool) []*jobRun {
	runs := make([]*jobRun, len(jobs))
	originals := freshBySeed(prior)
	for i, j := range jobs {
		runs[i] = &jobRun{plannedJob: j, done: make(chan struct{})}
		if !j.hit {
			originals[j.seed] = runs[i]
		}
	}
	start := time.Now().Add(20 * time.Millisecond)
	// Jobs not sent by the cutoff fail unsent, so a stalled server
	// cannot hold the benchmark past its time limit.
	var span float64
	if len(jobs) > 0 {
		span = jobs[len(jobs)-1].at
	}
	cutoff := start.Add(time.Duration(span*float64(time.Second)) + jobTimeout)
	var mu sync.Mutex
	next := 0
	worker := func() {
		for {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			if i >= len(runs) {
				return
			}
			r := runs[i]
			r.due = start.Add(time.Duration(r.at * float64(time.Second)))
			if serial {
				r.due = time.Now()
			}
			if r.hit {
				<-originals[r.seed].done
			}
			time.Sleep(time.Until(r.due))
			if time.Now().After(cutoff) {
				r.err = fmt.Errorf("not sent: the pass overran its schedule by %v", jobTimeout)
			} else {
				sb.runJob(r, traced)
			}
			close(r.done)
		}
	}
	workers := serveConns
	if serial {
		workers = 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	sb.o.attempted += len(runs)
	for i, r := range runs {
		if r.err != nil {
			sb.o.fail("job %d: %v", i, r.err)
		}
	}
	return runs
}

// jobOptions is the wire form of a benchmark job's options; inProcess
// is the same run as chaos.RunPrepared sees it.
func jobOptions(seed int64) map[string]any {
	return map[string]any{"machines": 4, "chunkBytes": 64 << 10, "engine": "native", "seed": seed}
}

func inProcessOptions(seed int64) chaos.Options {
	return chaos.Options{Engine: chaos.EngineNative, Machines: 4, ChunkBytes: 64 << 10, Seed: seed}
}

func (sb *serveBench) runJob(r *jobRun, traced bool) {
	r.sent = time.Now()
	var v jobView
	if err := sb.post("/v1/jobs", map[string]any{"graph": "g", "algorithm": "PR", "options": jobOptions(r.seed)}, http.StatusAccepted, &v); err != nil {
		r.err = err
		return
	}
	if !terminalState(v.State) {
		state, err := sb.awaitTerminal(v.ID)
		if err != nil {
			r.err = err
			return
		}
		v.State = state
	}
	r.observed = time.Now()
	if err := sb.get("/v1/jobs/"+v.ID, &r.view); err != nil {
		r.err = err
		return
	}
	if traced {
		r.trace = &traceView{}
		if err := sb.get("/v1/traces/"+r.view.TraceID, r.trace); err != nil {
			r.err = err
		}
	}
}

// awaitTerminal follows the job's Server-Sent Events stream until a
// terminal state arrives.
func (sb *serveBench) awaitTerminal(id string) (string, error) {
	resp, err := sb.client.Get(sb.srv.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Job jobView `json:"job"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if terminalState(ev.Job.State) {
			io.Copy(io.Discard, resp.Body)
			return ev.Job.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events stream of %s ended before a terminal state", id)
}

func (sb *serveBench) post(path string, body any, want int, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := sb.client.Post(sb.srv.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	return decodeResponse(resp, want, out)
}

func (sb *serveBench) get(path string, out any) error {
	resp, err := sb.client.Get(sb.srv.base + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, http.StatusOK, out)
}

func decodeResponse(resp *http.Response, want int, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

type serviceStats struct {
	Cache struct {
		Hits   int `json:"hits"`
		Misses int `json:"misses"`
	} `json:"cache"`
}

func (sb *serveBench) stats() (serviceStats, error) {
	var st serviceStats
	err := sb.get("/v1/stats", &st)
	return st, err
}

// metric reads one unlabeled sample from GET /metrics.
func (sb *serveBench) metric(name string) (float64, error) {
	resp, err := sb.client.Get(sb.srv.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}

// checkResults verifies every job: done without error, a cache hit
// exactly when the schedule resubmitted, and a result equal to an
// in-process chaos.RunPrepared of the same options. A hit must return
// its original's result.
func (sb *serveBench) checkResults(runs []*jobRun) {
	t0 := time.Now()
	edges := rmat.New(serveScale, sb.cfg.seed).Generate()
	sb.o.set("rmat.generate_s", time.Since(t0).Seconds(), 1)
	n := uint64(1) << serveScale

	// The reference is computed for a sample of fresh seeds. Native
	// PageRank values do not depend on the options seed (it only
	// steers steal probing), so when the sample agrees the shared
	// reference covers every fresh job; when it does not, every job
	// gets its own reference run.
	var freshRuns []*jobRun
	for _, r := range runs {
		if r.err == nil && !r.hit {
			freshRuns = append(freshRuns, r)
		}
	}
	reference := func(seed int64) *chaos.Result {
		res, _, err := chaos.RunPrepared("PR", edges, n, inProcessOptions(seed))
		if err != nil {
			sb.o.attempted++
			sb.o.fail("in-process reference run: %v", err)
			return nil
		}
		return res
	}
	const sampleSize = 8
	var shared *chaos.Result
	invariant := true
	for i := 0; i < len(freshRuns) && i < sampleSize; i++ {
		ref := reference(freshRuns[i*len(freshRuns)/min(sampleSize, len(freshRuns))].seed)
		if ref == nil {
			return
		}
		if shared == nil {
			shared = ref
		} else if !equalResult(shared, ref) {
			invariant = false
		}
	}
	sb.o.extra["reference_seed_invariant"] = invariant
	originals := freshBySeed(runs)
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		v := r.view
		switch {
		case v.State != "done":
			sb.o.fail("job %s ended %s: %s", v.ID, v.State, v.Error)
		case v.CacheHit != r.hit:
			sb.o.fail("job %s: cacheHit=%v, schedule says hit=%v", v.ID, v.CacheHit, r.hit)
		case v.Result == nil:
			sb.o.fail("job %s: no result", v.ID)
		case r.hit:
			if orig := originals[r.seed].view.Result; orig == nil || !equalResult(orig, v.Result) {
				sb.o.fail("job %s: cache hit result differs from its original", v.ID)
			}
		default:
			want := shared
			if !invariant {
				want = reference(r.seed)
			}
			if want == nil || !equalResult(want, v.Result) {
				sb.o.fail("job %s: result %v differs from in-process RunPrepared %v", v.ID, v.Result, want)
			}
		}
	}
}

func equalResult(a, b *chaos.Result) bool {
	return a.Algorithm == b.Algorithm && a.Vertices == b.Vertices && equalSummary(a.Summary, b.Summary)
}

// tiers splits each traced job's latency by tier, from its trace tree
// and job view. The "queued" lifecycle span is not used: its end is
// re-stamped at terminal time (see NOTES.md), so queue wait comes from
// the view's enqueuedAt/startedAt.
func (sb *serveBench) tiers(runs []*jobRun) {
	var admit, queue, engine, store, notify, coverage, lag []float64
	type walKey struct {
		name       string
		start, end int64
	}
	wal := map[walKey]bool{}
	for _, r := range runs {
		if r.err != nil || r.trace == nil || r.view.FinishedAt == nil {
			continue
		}
		lag = append(lag, r.sent.Sub(r.due).Seconds())
		var req, run *treeNode
		walk(r.trace.Tree, func(n *treeNode) {
			switch {
			case n.Span.Kind == "request" && req == nil:
				req = n
			case n.Span.Kind == "lifecycle" && n.Span.Name == "run":
				run = n
			case n.Span.Kind == "wal":
				wal[walKey{n.Span.Name, n.Span.Start, n.Span.End}] = true
			}
		})
		if req == nil {
			sb.o.attempted++
			sb.o.fail("job %s: trace has no request span", r.view.ID)
			continue
		}
		a := float64(req.Span.End-req.Span.Start) / 1e9
		admit = append(admit, a)
		nt := r.observed.Sub(*r.view.FinishedAt).Seconds()
		notify = append(notify, nt)
		parts := r.sent.Sub(r.due).Seconds() + a + nt
		if !r.hit && run != nil && r.view.StartedAt != nil {
			q := r.view.StartedAt.Sub(r.view.EnqueuedAt).Seconds()
			queue = append(queue, q)
			runIv := interval{Start: run.Span.Start, End: run.Span.End}
			var kids []interval
			for _, c := range run.Children {
				if c.Span.Kind == "lifecycle" {
					kids = append(kids, interval{Label: c.Span.Name, Start: c.Span.Start, End: c.Span.End})
					if c.Span.Name == "checkpoint" {
						store = append(store, float64(c.Span.End-c.Span.Start)/1e9)
					}
				}
			}
			engine = append(engine, float64(selfTime(runIv, kids))/1e9)
			parts += q + float64(runIv.dur())/1e9
		}
		coverage = append(coverage, parts/r.latency())
	}
	var appendNs, fsyncNs int64
	for k := range wal {
		switch k.name {
		case "append":
			appendNs += k.end - k.start
		case "fsync":
			fsyncNs += k.end - k.start
		}
	}
	sb.o.set("service.admit_s", median(admit), len(admit))
	sb.o.set("service.queue_wait_s", median(queue), len(queue))
	sb.o.set("service.engine_s", median(engine), len(engine))
	sb.o.set("durable.result_store_s", median(store), len(store))
	sb.o.set("service.notify_s", median(notify), len(notify))
	sb.o.set("service.coverage", median(coverage), len(coverage))
	sb.o.set("service.send_lag_p95_s", quantile(lag, 0.95), len(lag))
	sb.o.set("durable.wal_append_s", float64(appendNs)/1e9/float64(len(runs)), len(wal))
	sb.o.set("durable.wal_fsync_s", float64(fsyncNs)/1e9/float64(len(runs)), len(wal))
}

func walk(nodes []*treeNode, fn func(*treeNode)) {
	for _, n := range nodes {
		fn(n)
		walk(n.Children, fn)
	}
}
