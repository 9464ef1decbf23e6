// End-to-end job tracing: every job owns one W3C-sized trace, rooted
// at the HTTP request that submitted it (or a synthetic submit span for
// library callers), with scheduler lifecycle spans journaled through
// the WAL so the tree survives a crash-restart. Engine flight-recorder
// spans and WAL operation spans are merged in at serve time — see
// obs.Timeline and DESIGN.md "One trace per job, across tiers".
//
// Everything here is observational-only: trace context rides
// context.Context (reqTrace, mirroring chaos.WithTrace), never
// chaos.Options, so tracing can never change a result or a cache key.
package service

import (
	"context"
	"fmt"
	"time"

	"chaos"
	"chaos/internal/obs"
)

// reqTrace is the trace context the HTTP middleware extracts from an
// inbound traceparent header (or mints when there is none) and hands
// down the submission path on the request context. The scheduler roots
// the job's span tree in it.
type reqTrace struct {
	traceID string // lowercase-hex trace id
	span    string // the request (root) span's id
	parent  string // inbound parent span id, "" when the trace starts here
	remote  bool   // the parent span lives in the caller's process
	name    string // root span name, e.g. "POST /v1/jobs"
	start   time.Time
}

type reqTraceKey struct{}

// withReqTrace attaches the request's trace context; the middleware is
// the only producer.
func withReqTrace(ctx context.Context, rt *reqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// reqTraceFrom extracts what withReqTrace attached, nil if nothing.
func reqTraceFrom(ctx context.Context) *reqTrace {
	if ctx == nil {
		return nil
	}
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	return rt
}

// spanSeed is the per-job span-id derivation seed: scoping it to the
// job keeps ids unique even when one client trace spans many jobs.
func (j *Job) spanSeed() string { return j.traceID + "/" + j.ID }

// nextSpanIDLocked derives the job's next span id; callers hold s.mu.
func (j *Job) nextSpanIDLocked() string {
	j.spanSeq++
	return obs.DeriveSpanID(j.spanSeed(), j.spanSeq).String()
}

// addSpanLocked appends one span to the job's journaled span list and
// returns its id; end 0 leaves the span open. Callers hold s.mu.
func (j *Job) addSpanLocked(kind, name, detail, parent string, start, end int64) string {
	id := j.nextSpanIDLocked()
	j.spans = append(j.spans, obs.TreeSpan{
		TraceID: j.traceID,
		SpanID:  id,
		Parent:  parent,
		Name:    name,
		Kind:    kind,
		Start:   start,
		End:     end,
		Detail:  detail,
	})
	return id
}

// closeSpanLocked ends the span with the given id, optionally stamping
// a detail; callers hold s.mu. Closing an unknown id is a no-op (the
// span may predate a schema change in an old journal), and so is closing
// an already-closed span: the first close is the span's true end (the
// terminal transition must not re-stamp the queued span the job's start
// already closed).
func (j *Job) closeSpanLocked(id string, end int64, detail string) {
	if id == "" {
		return
	}
	for i := range j.spans {
		if j.spans[i].SpanID == id {
			if j.spans[i].End != 0 {
				return
			}
			j.spans[i].End = end
			if detail != "" {
				j.spans[i].Detail = detail
			}
			return
		}
	}
}

// closeOpenSpansLocked ends every still-open span — the crash-recovery
// path: an open "run" from a dead process will never close itself.
func (j *Job) closeOpenSpansLocked(end int64, detail string) {
	for i := range j.spans {
		if j.spans[i].End == 0 {
			j.spans[i].End = end
			j.spans[i].Detail = detail
		}
	}
}

// initTraceLocked roots a job's trace: from the request context when
// the submission came over HTTP (the root is the request span, remote
// when the caller sent a traceparent), or a synthetic submit span
// derived from the job's options fingerprint for library callers —
// either way the ids are derived, never random (see internal/obs).
// Callers hold s.mu.
func (s *Scheduler) initTraceLocked(j *Job, rt *reqTrace) {
	now := j.enqueuedAt.UnixNano()
	if rt != nil {
		j.traceID = rt.traceID
		j.traceRemote = rt.remote
		j.rootSpanID = rt.span
		name := rt.name
		if name == "" {
			name = "request"
		}
		j.spans = append(j.spans, obs.TreeSpan{
			TraceID: j.traceID,
			SpanID:  rt.span,
			Parent:  rt.parent,
			Remote:  rt.remote,
			Name:    name,
			Kind:    obs.KindRequest,
			Start:   rt.start.UnixNano(),
			End:     now, // the request is answered at admission
		})
	} else {
		j.traceID = obs.DeriveTraceID(j.Options.Fingerprint()+"|"+j.ID, 0).String()
		j.rootSpanID = obs.DeriveSpanID(j.spanSeed(), 0).String()
		j.spans = append(j.spans, obs.TreeSpan{
			TraceID: j.traceID,
			SpanID:  j.rootSpanID,
			Name:    "submit",
			Kind:    obs.KindRequest,
			Start:   now,
			End:     now,
		})
	}
	j.addSpanLocked(obs.KindLifecycle, "admitted", "", j.rootSpanID, now, now)
	s.byTrace[j.traceID] = j.ID
}

// restoreTraceLocked rebuilds a restored job's trace bookkeeping from
// its journaled spans: the root and the still-open queue/run spans are
// recomputed rather than journaled. Records from before tracing
// existed get a fresh synthetic root so recovery and reruns still
// produce a tree. Callers hold s.mu.
func (s *Scheduler) restoreTraceLocked(j *Job) {
	if j.traceID == "" {
		s.initTraceLocked(j, nil)
		return
	}
	s.byTrace[j.traceID] = j.ID
	for i := range j.spans {
		sp := &j.spans[i]
		if sp.Kind == obs.KindRequest {
			j.rootSpanID = sp.SpanID
		}
		switch sp.Name {
		case "queued":
			if sp.End == 0 {
				j.queuedSpanID = sp.SpanID
			}
		case "run":
			j.runSpanID = sp.SpanID
		}
	}
}

// noteRecoveryLocked files the restart-recovery spans of a job being
// re-enqueued after a crash: the previous life's open spans are closed
// at the recovery instant (the run they belonged to is gone), an
// explicit recovery point marks the requeue, and a fresh queued span
// opens. Callers hold s.mu.
func (s *Scheduler) noteRecoveryLocked(j *Job, at time.Time) {
	now := at.UnixNano()
	j.closeOpenSpansLocked(now, "interrupted by restart")
	j.addSpanLocked(obs.KindLifecycle, "recovered",
		fmt.Sprintf("restart %d: re-enqueued after crash recovery", j.restarts),
		j.rootSpanID, now, now)
	j.queuedSpanID = j.addSpanLocked(obs.KindLifecycle, "queued", "requeued after restart", j.rootSpanID, now, 0)
	// The old run span (if any) stays closed in the tree, but new engine
	// spans must not parent under it.
	j.runSpanID = ""
}

// noteTerminalLocked closes the run/queue spans and files the terminal
// point span (done/failed/canceled, with the error as detail); callers
// hold s.mu after setting the final state.
func (j *Job) noteTerminalLocked(at time.Time) {
	if j.traceID == "" {
		return
	}
	now := at.UnixNano()
	j.closeSpanLocked(j.queuedSpanID, now, "")
	j.closeSpanLocked(j.runSpanID, now, "")
	j.addSpanLocked(obs.KindLifecycle, string(j.state), j.err, j.rootSpanID, now, now)
}

// NoteJobSpan files an extra lifecycle span against a job — the
// service's durability checkpoint (result blob persisted) is the one
// producer. The span parents under the run span while one is open so
// checkpoints nest inside the run. The span is journaled (the job
// record carries the full span list) but not published as an event.
func (s *Scheduler) NoteJobSpan(j *Job, name, detail string, start time.Time, dur time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.traceID == "" {
		return
	}
	parent := j.runSpanID
	if parent == "" {
		parent = j.rootSpanID
	}
	j.addSpanLocked(obs.KindLifecycle, name, detail, parent, start.UnixNano(), start.Add(dur).UnixNano())
	if s.onUpdate != nil {
		s.onUpdate(j)
	}
}

// jobTrace is the scheduler's contribution to GET /v1/jobs/{id}/trace:
// an immutable snapshot of the job's trace identity, journaled spans,
// flight recorder and run-span alignment.
type jobTrace struct {
	view    JobView
	traceID string
	spans   []obs.TreeSpan
	// rec is the engine flight recorder, nil when this process never
	// executed the job (queued, cache hit, journal-restored history).
	rec *chaos.TraceRecorder
	// runSpanID/runStartNs locate the run span engine spans parent
	// under and the epoch origin that aligns native engine times.
	runSpanID  string
	runStartNs int64
}

// TraceInfo snapshots everything the trace endpoint needs in one lock
// acquisition.
func (s *Scheduler) TraceInfo(id string) (jobTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return jobTrace{}, false
	}
	t := jobTrace{
		view:      j.view().stripped(),
		traceID:   j.traceID,
		spans:     append([]obs.TreeSpan(nil), j.spans...),
		rec:       j.trace.Load(),
		runSpanID: j.runSpanID,
	}
	for _, sp := range j.spans {
		if sp.SpanID == j.runSpanID {
			t.runStartNs = sp.Start
		}
	}
	return t, true
}

// JobForTrace resolves a trace id to the job that owns it — the
// GET /v1/traces/{id} lookup.
func (s *Scheduler) JobForTrace(traceID string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byTrace[traceID]
	return id, ok
}
