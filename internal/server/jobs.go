package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lowutil"
	"lowutil/client"
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
// never set in job payloads: whether the session memo already held a run
// is scheduling noise that would break deterministic replay. A failure is
// handed to the queue as the envelope body classifyErr gives the
// synchronous endpoint. A job runs under RequestTimeout, as a synchronous
// request does, so no job holds a worker longer than a request may hold
// the server.
func (s *Server) executeJob(ctx context.Context, req lowutil.Request) (json.RawMessage, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	sess, _, err := s.compileSession(req.Source, req.MainClass, req.MainMethod)
	var payload any
	if err == nil {
		payload, err = s.execute(ctx, sess, req.Kind, req.Options, false)
	}
	if err != nil {
		_, body := classifyErr(err)
		return nil, &body
	}
	// Compact encoding: identical to the synchronous body modulo JSON
	// framing (the synchronous path streams via Encoder, which appends a
	// newline).
	return json.Marshal(payload)
}

// ---- job endpoints ----

func (s *Server) handleJobsSubmit(ctx context.Context, r *http.Request) (any, error) {
	req, err := decode[client.SubmitPayload](r)
	if err != nil {
		return nil, err
	}
	if len(req.Jobs) == 0 {
		return nil, &badRequestError{errors.New("empty batch")}
	}
	for i, j := range req.Jobs {
		if err := s.checkSlots(j.Spec); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	batch, err := s.jobs.Submit(req.Key, req.Jobs)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrBatchConflict):
			return nil, err
		default:
			return nil, &badRequestError{err}
		}
	}
	return batch, nil
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

// handleJobStatus serves GET /v2/jobs/{id} for both job IDs ("j…") and
// batch IDs ("b…").
func (s *Server) handleJobStatus(ctx context.Context, r *http.Request) (any, error) {
	id := r.PathValue("id")
	if st, ok := s.jobs.Status(id); ok {
		return st, nil
	}
	if bs, ok := s.jobs.BatchStatus(id); ok {
		return bs, nil
	}
	return nil, fmt.Errorf("%w: %s", errUnknownJob, id)
}

// handleJobEvents streams GET /v2/jobs/{id}/events as NDJSON: the job's
// event log from ?after= (default 0) onward, following live until the job
// reaches a terminal state or the client disconnects. Events carry dense
// per-job sequence numbers and no timestamps, so a reconnecting client
// that resumes with after=<last seen seq> reconstructs the exact stream.
// Streaming is not subject to the per-request timeout. c counts the
// stream's requests and failures.
func (s *Server) handleJobEvents(c endpointCounters) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		c.requests.Add(1)
		status := s.streamEvents(w, r)
		if status != http.StatusOK {
			c.failures.Add(1)
		}
		s.logLine(r, "events", status, start)
	}
}

// streamEvents writes one job's event stream and returns the status to
// log.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	after := 0
	if raw := r.URL.Query().Get("after"); raw != "" {
		var err error
		if after, err = strconv.Atoi(raw); err != nil || after < 0 {
			return s.writeErr(w, &badRequestError{fmt.Errorf("after must be a non-negative integer, got %q", raw)})
		}
	}
	if _, ok := s.jobs.Status(id); !ok {
		return s.writeErr(w, fmt.Errorf("%w: %s", errUnknownJob, id))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	err := s.jobs.Events(r.Context(), id, after, func(ev client.Event) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// Headers are long gone: the disconnect or encode failure just ends
		// the stream. The client resumes with ?after=.
		return 499
	}
	return http.StatusOK
}
