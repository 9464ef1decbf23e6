package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chaos"
	"chaos/internal/durable"
	"chaos/internal/graph"
)

// openDurable starts a durable Service on dir without registering a
// cleanup — crash tests abandon instances on purpose.
func openDurable(t *testing.T, dir string, workers int) *Service {
	t.Helper()
	svc, err := Open(Config{Workers: workers, BaseOptions: labOptions, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// crash simulates a SIGKILL: fsync what the OS already has (a real
// crash loses at most the sync interval; the test must not race the
// batcher) and drop the instance without snapshot, drain or close.
func crash(t *testing.T, svc *Service) {
	t.Helper()
	if err := svc.persist.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	svc.persist.wal.Close()
}

func waitJob(t *testing.T, svc *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		jv, ok := svc.Scheduler().Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if jv.State != JobQueued && jv.State != JobRunning {
			return jv
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// TestCrashRecoveryEndToEnd is the acceptance scenario: register a
// graph, run a job to completion, SIGKILL, restart — the graph lists,
// the identical submission is answered from the disk result store, and
// the job history (with its result, rehydrated from disk) survived.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	svc1 := openDurable(t, dir, 2)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "rmat7", Type: "rmat", Scale: 7, Weighted: true, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	jv, err := svc1.Submit("rmat7", "PR", chaos.Options{Machines: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first := waitJob(t, svc1, jv.ID)
	if first.State != JobDone {
		t.Fatalf("job %s: %s %s", first.ID, first.State, first.Error)
	}
	crash(t, svc1)

	svc2 := openDurable(t, dir, 2)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })

	// The graph came back — metadata only, edges still cold.
	g, ok := svc2.Catalog().Get("rmat7")
	if !ok {
		t.Fatal("graph lost across restart")
	}
	if g.Materialized() {
		t.Error("restored graph should stay cold until its first job")
	}
	if g.Vertices != 1<<7 || g.EdgeCount != 1<<11 || !g.Weighted {
		t.Errorf("restored metadata %+v", g.Info())
	}

	// The finished job came back; its result rehydrates from disk.
	old, ok := svc2.Scheduler().Get(jv.ID)
	if !ok {
		t.Fatal("job history lost across restart")
	}
	if old.State != JobDone || old.Result == nil {
		t.Fatalf("restored job %s: state %s, result %v", old.ID, old.State, old.Result)
	}
	if fmt.Sprint(old.Result.Summary) != fmt.Sprint(first.Result.Summary) {
		t.Errorf("rehydrated summary %v != original %v", old.Result.Summary, first.Result.Summary)
	}

	// The identical submission is a cache hit served from the disk
	// store — no simulation runs, same payload, and the new process's
	// memory cache was empty so the hit must have come from disk.
	hit, err := svc2.Submit("rmat7", "PR", chaos.Options{Machines: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != JobDone || !hit.CacheHit {
		t.Fatalf("resubmission: state %s cacheHit %v, want cached done", hit.State, hit.CacheHit)
	}
	if fmt.Sprint(hit.Result.Summary) != fmt.Sprint(first.Result.Summary) {
		t.Errorf("disk-cached summary %v != original %v", hit.Result.Summary, first.Result.Summary)
	}
	st := svc2.Stats()
	if st.Cache.DiskHits < 1 {
		t.Errorf("stats report %d disk hits, want >= 1: %+v", st.Cache.DiskHits, st.Cache)
	}
	if st.Durable == nil || st.Durable.LastError != "" {
		t.Errorf("durable stats %+v", st.Durable)
	}

	// New ids never collide with recovered ones.
	if hitSeq, _ := jobSeq(hit.ID); hitSeq <= 1 {
		t.Errorf("post-restart job id %s collides with recovered history", hit.ID)
	}
}

// TestRecoveryRequeuesInterruptedJobs crafts the journal a crashed
// process would leave — a graph, a running job, a queued job, a done
// job and a queued job on a vanished graph — and checks recovery:
// interrupted work re-runs to completion, the unrecoverable job fails
// with a restart reason, and the done job stays done.
func TestRecoveryRequeuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	w, _, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	opts := mergeOptions(labOptions, chaos.Options{Seed: 7})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Append(recGraph, graphRecord{
		ID: "g1", Type: "rmat", Scale: 6, Seed: 1, SpecWeighted: true,
		Weighted: true, Vertices: 1 << 6, Edges: 1 << 10, Registered: now,
	}))
	must(w.Append(recJob, jobRecord{ID: "j1", Graph: "g1", Algorithm: "PR", Options: opts, State: JobRunning, EnqueuedAt: now, StartedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j2", Graph: "g1", Algorithm: "BFS", Options: opts, State: JobQueued, EnqueuedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j3", Graph: "g1", Algorithm: "WCC", Options: opts, State: JobDone, EnqueuedAt: now, FinishedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j4", Graph: "ghost", Algorithm: "PR", Options: opts, State: JobQueued, EnqueuedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j5", Graph: "g1", Algorithm: "MIS", Options: opts, State: JobRunning, Canceling: true, EnqueuedAt: now, StartedAt: now}))
	must(w.Sync())
	w.Close()

	svc := openDurable(t, dir, 2)
	t.Cleanup(func() { svc.Shutdown(context.Background()) })

	// j1 (running at crash) and j2 (queued at crash) run to completion.
	for _, id := range []string{"j1", "j2"} {
		jv := waitJob(t, svc, id)
		if jv.State != JobDone {
			t.Errorf("job %s: %s %q, want done", id, jv.State, jv.Error)
		}
		if jv.Restarts != 1 {
			t.Errorf("job %s restarts = %d, want 1", id, jv.Restarts)
		}
		if jv.Result == nil || jv.Result.Vertices != 1<<6 {
			t.Errorf("job %s result %+v", id, jv.Result)
		}
	}
	// j3 stays done; its blob never existed, so the result is simply
	// absent (not an error).
	if jv, _ := svc.Scheduler().Get("j3"); jv.State != JobDone {
		t.Errorf("j3 state %s, want done", jv.State)
	}
	// j4's graph is gone: failed with a restart reason.
	jv, _ := svc.Scheduler().Get("j4")
	if jv.State != JobFailed || !strings.Contains(jv.Error, "not recoverable after restart") {
		t.Errorf("j4: %s %q, want failed with restart reason", jv.State, jv.Error)
	}
	// j5's cancellation was accepted before the crash: honored, not
	// rerun.
	jv, _ = svc.Scheduler().Get("j5")
	if jv.State != JobCanceled || !strings.Contains(jv.Error, "canceled while running") {
		t.Errorf("j5: %s %q, want canceled (accepted cancellation survives restart)", jv.State, jv.Error)
	}

	// Fresh submissions continue the id sequence past the recovered jobs.
	fresh, err := svc.Submit("g1", "Cond", chaos.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if seq, _ := jobSeq(fresh.ID); seq <= 5 {
		t.Errorf("fresh job id %s collides with recovered ids", fresh.ID)
	}
}

// TestRecoveryTornJournalTail: a crash mid-append leaves a truncated
// final record. Everything before it must recover; the torn suffix is
// discarded and the journal keeps working.
func TestRecoveryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	svc1 := openDurable(t, dir, 1)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "keep", Type: "rmat", Scale: 6, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	crash(t, svc1)

	// Tear the tail: append half a frame to the newest segment, as if
	// the process died inside a write.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "journal-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 99, 99}); err != nil { // 6 of 8 header bytes
		t.Fatal(err)
	}
	f.Close()

	svc2 := openDurable(t, dir, 1)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })
	if _, ok := svc2.Catalog().Get("keep"); !ok {
		t.Fatal("complete records before the torn tail were lost")
	}
	// The journal still accepts writes after truncating the tear.
	if _, err := svc2.RegisterGraph(GraphSpec{Name: "after", Type: "rmat", Scale: 6, Seed: 4}); err != nil {
		t.Fatal(err)
	}

	svc2.Shutdown(context.Background())
	svc3 := openDurable(t, dir, 1)
	t.Cleanup(func() { svc3.Shutdown(context.Background()) })
	for _, id := range []string{"keep", "after"} {
		if _, ok := svc3.Catalog().Get(id); !ok {
			t.Errorf("graph %s missing after second restart", id)
		}
	}
}

// TestUploadSurvivesRestart: an uploaded edge list persists as a
// payload file, re-materializes lazily after a crash, and produces
// bit-identical results to the original process.
func TestUploadSurvivesRestart(t *testing.T) {
	edges := chaos.GenerateRMAT(6, false, 5)
	var buf bytes.Buffer
	wr := graph.NewWriter(&buf, graph.FormatFor(1<<6, false))
	for _, e := range edges {
		if err := wr.WriteEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc1 := openDurable(t, dir, 1)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "up", Type: "upload", Vertices: 1 << 6, Data: buf.Bytes()}); err != nil {
		t.Fatal(err)
	}
	crash(t, svc1)

	svc2 := openDurable(t, dir, 1)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })
	jv, err := svc2.Submit("up", "BFS", chaos.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, svc2, jv.ID)
	if got.State != JobDone {
		t.Fatalf("job on restored upload: %s %q", got.State, got.Error)
	}
	opt := labOptions
	opt.Seed = 3
	want, _, err := chaos.RunByNameResult("BFS", edges, 1<<6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Result.Summary) != fmt.Sprint(want.Summary) {
		t.Errorf("restored-upload summary %v != direct %v", got.Result.Summary, want.Summary)
	}
}

// TestCorruptResultBlobIsReplaced: an undecodable blob in the disk
// store must not poison its key forever — the lookup drops it, the
// deterministic rerun recomputes, and the rewritten blob serves the
// next restart.
func TestCorruptResultBlobIsReplaced(t *testing.T) {
	dir := t.TempDir()
	svc1 := openDurable(t, dir, 1)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	jv, err := svc1.Submit("g", "PR", chaos.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := waitJob(t, svc1, jv.ID)
	crash(t, svc1)

	// Corrupt the blob on disk.
	blobs, err := filepath.Glob(filepath.Join(dir, "results", "*", "*"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("result blobs %v (%v)", blobs, err)
	}
	if err := os.WriteFile(blobs[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := openDurable(t, dir, 1) // crashed below, no cleanup needed
	// Not a cache hit (the blob was garbage), but the rerun completes
	// with the identical summary and rewrites the key.
	re, err := svc2.Submit("g", "PR", chaos.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if re.CacheHit {
		t.Fatal("corrupt blob served as a cache hit")
	}
	got := waitJob(t, svc2, re.ID)
	if got.State != JobDone || fmt.Sprint(got.Result.Summary) != fmt.Sprint(want.Result.Summary) {
		t.Fatalf("rerun: %s %v, want done %v", got.State, got.Result, want.Result.Summary)
	}
	crash(t, svc2)

	svc3 := openDurable(t, dir, 1)
	t.Cleanup(func() { svc3.Shutdown(context.Background()) })
	hit, err := svc3.Submit("g", "PR", chaos.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("rewritten blob not served from disk after the next restart")
	}
}

// TestSnapshotCompactionAcrossRestarts: enough traffic to trip the
// snapshot policy must compact the journal, and recovery from
// snapshot + fresh segment equals recovery from a full journal.
func TestSnapshotCompactionAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(Config{
		Workers: 2, BaseOptions: labOptions, DataDir: dir,
		SnapshotEvery: 8, // tiny, so the test trips it quickly
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var last JobView
	for i := 0; i < 6; i++ { // 6 jobs x >=3 transitions >> 8 records
		jv, err := svc1.Submit("g", "PR", chaos.Options{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		last = waitJob(t, svc1, jv.ID)
	}
	if last.State != JobDone {
		t.Fatalf("last job %s: %s", last.ID, last.State)
	}
	// Let the background compaction(s) finish, then crash.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && svc1.persist.compacting.Load() {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "snapshot.json")); err != nil {
		t.Fatalf("no snapshot written despite %d-record policy: %v", 8, err)
	}
	crash(t, svc1)

	svc2 := openDurable(t, dir, 2)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })
	if _, ok := svc2.Catalog().Get("g"); !ok {
		t.Fatal("graph lost across compacted restart")
	}
	jobs := svc2.Scheduler().List()
	if len(jobs) != 6 {
		t.Fatalf("recovered %d jobs, want 6", len(jobs))
	}
	for _, jv := range jobs {
		if jv.State != JobDone {
			t.Errorf("job %s: %s, want done", jv.ID, jv.State)
		}
	}
}

// TestRetiredOptionFieldsStillReplay replays durable state written while
// Options still had ComputeWorkers and NativeBarrier: a snapshot job and
// a journal job whose options carry both keys, beside a record from
// before the engine option existed, and a record from when Storage and
// Network were journaled as integers (1 = HDD, 1 = 1 GigE). All must
// restore through Open, the queued ones must run, and the retired keys
// must drop out, leaving the fingerprint of the same options without
// them.
func TestRetiredOptionFieldsStillReplay(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	const retired = `"ComputeWorkers":4,"NativeBarrier":true,`
	snapshot := `{
		"savedAt": "2026-01-02T03:04:05Z", "nextGraphID": 1, "nextJobID": 1,
		"graphs": [{"id": "g1", "type": "rmat", "scale": 6, "seed": 1, "registered": "2026-01-02T03:04:05Z",
			"weighted": false, "vertices": 64, "edges": 1024}],
		"jobs": [{"id": "j1", "graph": "g1", "algorithm": "PR", "state": "queued", "enqueuedAt": "2026-01-02T03:04:05Z",
			"options": {"Machines": 2, "ChunkBytes": 1024, "LatencyScale": 0.000244140625, ` + retired + ` "Seed": 7}}]
	}`
	if err := durable.SaveSnapshot(walDir, json.RawMessage(snapshot)); err != nil {
		t.Fatal(err)
	}
	w, _, err := durable.OpenWAL(walDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"id": "j2", "graph": "g1", "algorithm": "WCC", "state": "queued", "enqueuedAt": "2026-01-02T03:04:06Z",
			"options": {"Machines": 2, "ChunkBytes": 1024, ` + retired + ` "Engine": "native", "Seed": 7}}`,
		// Pre-PR-5: no Engine key, no retired keys.
		`{"id": "j3", "graph": "g1", "algorithm": "PR", "state": "done", "enqueuedAt": "2026-01-02T03:04:07Z",
			"finishedAt": "2026-01-02T03:05:06Z", "options": {"Machines": 2, "ChunkBytes": 1024, "Seed": 7}}`,
		// Hardware as integers under capitalized keys.
		`{"id": "j4", "graph": "g1", "algorithm": "PR", "state": "done", "enqueuedAt": "2026-01-02T03:04:08Z",
			"finishedAt": "2026-01-02T03:05:06Z", "options": {"Machines": 2, "Storage": 1, "Network": 1, "ChunkBytes": 1024, "Seed": 7}}`,
	} {
		if err := w.Append(recJob, json.RawMessage(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	svc := openDurable(t, dir, 2)
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	for id, engine := range map[string]string{"j1": chaos.EngineSim, "j2": chaos.EngineNative} {
		jv := waitJob(t, svc, id)
		if jv.State != JobDone || jv.Engine != engine || jv.Result == nil || jv.Result.Vertices != 1<<6 {
			t.Errorf("job %s: state %s engine %s error %q result %+v", id, jv.State, jv.Engine, jv.Error, jv.Result)
		}
	}
	if jv, ok := svc.Scheduler().Get("j3"); !ok || jv.State != JobDone || jv.Engine != chaos.EngineSim {
		t.Errorf("pre-engine record restored as %+v (found %v)", jv, ok)
	}
	want := map[string]chaos.Options{
		"j1": {Machines: 2, ChunkBytes: 1024, LatencyScale: 1.0 / 4096, Seed: 7},
		"j2": {Machines: 2, ChunkBytes: 1024, Engine: chaos.EngineNative, Seed: 7},
		"j4": {Machines: 2, Storage: chaos.HDD, Network: chaos.Net1GigE, ChunkBytes: 1024, Seed: 7},
	}
	s := svc.Scheduler()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, opt := range want {
		if got := s.jobs[id].Options; got != opt || got.Fingerprint() != opt.Fingerprint() {
			t.Errorf("job %s options %+v, want %+v", id, got, opt)
		}
	}
}

// TestJournalRecordsHardwareByName: job records journaled now carry
// Storage and Network by name, the form chaos.Options marshals to.
func TestJournalRecordsHardwareByName(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, 1)
	g, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	jv, err := svc.Submit(g.ID, "PR", chaos.Options{Storage: chaos.HDD, Network: chaos.Net1GigE, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if done := waitJob(t, svc, jv.ID); done.State != JobDone {
		t.Fatalf("job %s: %s %s", done.ID, done.State, done.Error)
	}
	crash(t, svc)

	w, rec, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	jobs := 0
	for _, r := range rec.Records {
		if r.Kind != recJob {
			continue
		}
		jobs++
		if !bytes.Contains(r.Data, []byte(`"storage":"hdd","network":"1g"`)) {
			t.Errorf("job record without hardware names: %s", r.Data)
		}
	}
	if jobs == 0 {
		t.Fatal("no job records journaled")
	}
}

// TestVersionlessResultBlobNotServed: result blobs stored before cache
// keys carried resultSchema (when SSSP's "reached" still counted
// unreachable vertices) must miss and be recomputed, while the same blob
// under a current key is served.
func TestVersionlessResultBlobNotServed(t *testing.T) {
	svc := openDurable(t, t.TempDir(), 1)
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	g, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Weighted: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := json.Marshal(storedResult{
		Result: &chaos.Result{Algorithm: "SSSP", Vertices: 1},
		Report: &chaos.Report{Algorithm: "SSSP"},
	})
	if err != nil {
		t.Fatal(err)
	}
	versionless := func(opt chaos.Options) string {
		h := sha256.New()
		h.Write([]byte(g.ID + "\x00SSSP\x00" + mergeOptions(labOptions, opt).Fingerprint()))
		return hex.EncodeToString(h.Sum(nil))
	}
	old, current := chaos.Options{Seed: 5}, chaos.Options{Seed: 6}
	if err := svc.persist.store.Put(versionless(old), stale); err != nil {
		t.Fatal(err)
	}
	if err := svc.persist.store.Put(cacheKey(g.ID, "SSSP", mergeOptions(labOptions, current)), stale); err != nil {
		t.Fatal(err)
	}

	hit, err := svc.Submit(g.ID, "SSSP", current)
	if err != nil || !hit.CacheHit {
		t.Fatalf("blob under the current key not served: %+v, %v", hit, err)
	}
	jv, err := svc.Submit(g.ID, "SSSP", old)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, svc, jv.ID)
	if done.CacheHit || done.State != JobDone || done.Result == nil || done.Result.Vertices != 1<<6 {
		t.Errorf("version-less blob served or job failed: %+v", done)
	}
}
