package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lowutil"
	"lowutil/internal/jobs"
)

// This file is the server shell around the internal/jobs queue: the job
// executor, which runs each lowutil.Request through the same session LRU,
// memoized runs and executor as the synchronous /v2/* endpoints, and the
// three job endpoints (submit, status, NDJSON event stream).

var errUnknownJob = errors.New("unknown job or batch")

// executeJob runs one job: it compiles (or finds) the request's session
// and calls execute, so each kind produces exactly the JSON body its
// synchronous endpoint would have returned on a cold cache, and a batch of
// jobs and a sequence of direct calls are byte-identical. cache_hit is
// never set in job payloads: results are content-addressed, and whether a
// run was memoized is scheduling noise that would break deterministic
// replay.
func (s *Server) executeJob(ctx context.Context, req lowutil.Request) (*jobs.Result, error) {
	sess, _, err := s.compileSession(req.Source, req.MainClass, req.MainMethod)
	if err != nil {
		return nil, err
	}
	payload, err := s.execute(ctx, sess, req.Kind, req.Options, false)
	if err != nil {
		return nil, err
	}
	// Compact encoding: identical to the synchronous body modulo JSON
	// framing (the synchronous path streams via Encoder, which appends a
	// newline that re-marshaling a RawMessage would strip anyway).
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return &jobs.Result{Kind: req.Kind, Payload: raw}, nil
}

// ---- job endpoints ----

// jobSubmission is one job of a batch submission.
type jobSubmission struct {
	lowutil.Request
	// Priority orders jobs in the queue — higher runs earlier.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the job's total lifetime from submission in
	// milliseconds, across retries (0 = none).
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

type jobsRequest struct {
	// Key is the batch idempotency key: resubmitting the same key with the
	// same jobs returns the original IDs without enqueuing anything. Empty
	// derives the key from the batch content.
	Key  string          `json:"key,omitempty"`
	Jobs []jobSubmission `json:"jobs"`
}

type jobsResponse struct {
	Batch string           `json:"batch"`
	Jobs  []jobs.Submitted `json:"jobs"`
}

type batchStatusResponse struct {
	Batch string         `json:"batch"`
	Jobs  []*jobs.Status `json:"jobs"`
}

func (s *Server) handleJobsSubmit(ctx context.Context, r *http.Request) (any, error) {
	req, err := decode[jobsRequest](r)
	if err != nil {
		return nil, err
	}
	if len(req.Jobs) == 0 {
		return nil, &badRequestError{errors.New("empty batch")}
	}
	reqs := make([]jobs.Request, len(req.Jobs))
	for i, j := range req.Jobs {
		if err := s.checkSlots(j.Request); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		reqs[i] = jobs.Request{
			Spec:     j.Request,
			Priority: j.Priority,
			Deadline: time.Duration(j.DeadlineMS) * time.Millisecond,
		}
	}
	key := req.Key
	if key == "" {
		key = contentKey(reqs)
	}
	batch, subs, err := s.jobs.Submit(key, reqs)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrBatchConflict):
			return nil, err
		default:
			return nil, &badRequestError{err}
		}
	}
	return jobsResponse{Batch: batch, Jobs: subs}, nil
}

// checkSlots rejects a job whose slot count the facade would refuse, so
// the batch fails at submission rather than as a job. Only profile and
// report read slots, and the table budget admits the default count on
// every source the server accepts, so only larger counts compile the
// source here; a source that does not compile is left for its job to
// report. An option error (an unknown kind or mode) is returned as is.
func (s *Server) checkSlots(req lowutil.Request) error {
	o, err := req.Options.Resolve(req.Kind)
	if err != nil || o.Slots <= lowutil.DefaultSlots {
		return err
	}
	sess, _, err := s.compileSession(req.Source, req.MainClass, req.MainMethod)
	if err != nil {
		return nil
	}
	return sess.Prog.CheckSlots(o.Slots)
}

// contentKey derives an idempotency key for keyless submissions from the
// batch content, so a blind retry of the same batch still deduplicates.
func contentKey(reqs []jobs.Request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%s\x00%d\x00%d\x00", r.Spec.Hash(), r.Priority, r.Deadline)
	}
	return "content-" + hex.EncodeToString(h.Sum(nil))[:32]
}

// handleJobStatus serves GET /v2/jobs/{id} for both job IDs ("j…") and
// batch IDs ("b…").
func (s *Server) handleJobStatus(ctx context.Context, r *http.Request) (any, error) {
	id := r.PathValue("id")
	if st, ok := s.jobs.Status(id); ok {
		return st, nil
	}
	if sts, ok := s.jobs.BatchStatus(id); ok {
		return batchStatusResponse{Batch: id, Jobs: sts}, nil
	}
	return nil, fmt.Errorf("%w: %s", errUnknownJob, id)
}

// handleJobEvents streams GET /v2/jobs/{id}/events as NDJSON: the job's
// event log from ?after= (default 0) onward, following live until the job
// reaches a terminal state or the client disconnects. Events carry dense
// per-job sequence numbers and no timestamps, so a reconnecting client
// that resumes with after=<last seen seq> reconstructs the exact stream.
// Streaming is not subject to the per-request timeout.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.request("events")
	id := r.PathValue("id")
	after := 0
	if raw := r.URL.Query().Get("after"); raw != "" {
		var err error
		if after, err = strconv.Atoi(raw); err != nil || after < 0 {
			s.met.failure("events")
			status := s.writeErr(w, &badRequestError{fmt.Errorf("after must be a non-negative integer, got %q", raw)})
			s.logLine(r, "events", status, start)
			return
		}
	}
	if _, ok := s.jobs.Status(id); !ok {
		s.met.failure("events")
		status := s.writeErr(w, fmt.Errorf("%w: %s", errUnknownJob, id))
		s.logLine(r, "events", status, start)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	err := s.jobs.Events(r.Context(), id, after, func(ev jobs.Event) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	status := http.StatusOK
	if err != nil {
		// Headers are long gone: the disconnect or encode failure just ends
		// the stream. The client resumes with ?after=.
		s.met.failure("events")
		status = 499
	}
	s.logLine(r, "events", status, start)
}
