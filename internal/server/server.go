package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"lowutil"
	"lowutil/client"
	"lowutil/internal/jobs"
	"lowutil/internal/par"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxSessions bounds the compiled-session LRU (0 = 64).
	MaxSessions int
	// MaxInFlight bounds concurrently executing heavy requests — profile,
	// report, slice, audit, vet, run, save, load (0 = 4). Excess requests
	// get 429.
	MaxInFlight int
	// RequestTimeout bounds each request's work, and each job's run
	// (0 = 60s). The deadline context reaches the interpreter and every
	// analysis fixpoint.
	RequestTimeout time.Duration
	// Logger receives one structured line per request (nil = slog default).
	Logger *slog.Logger
	// JobWorkers bounds the batch jobs behind POST /v2/jobs that run at
	// once (0 = 4). Each job resolves its spec through the session LRU
	// and memoized runs, under RequestTimeout, as a synchronous request
	// does.
	JobWorkers int
}

// Server is the lowutil profiling service. Create with New, expose with
// Handler, and drive it with any http.Server.
type Server struct {
	cfg      Config
	sessions *sessionCache
	gate     *par.Gate
	met      *metrics
	log      *slog.Logger
	mux      *http.ServeMux
	jobs     *jobs.Queue
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	s := &Server{
		cfg:      cfg,
		sessions: newSessionCache(cfg.MaxSessions),
		gate:     par.NewGate(cfg.MaxInFlight),
		met:      newMetrics(),
		log:      log,
		mux:      http.NewServeMux(),
	}
	s.jobs = jobs.New(jobs.Config{Workers: cfg.JobWorkers, Executor: jobs.ExecutorFunc(s.executeJob)})
	s.routes()
	return s
}

// Close drains the job queue: in-flight jobs are canceled, every
// unfinished job fails with the retryable code canceled, which ends the
// event streams following it, and the workers exit. Call it beside or
// after http.Server.Shutdown.
func (s *Server) Close() { s.jobs.Drain() }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v2/compile", s.instrument("compile", false, s.handleCompile))
	for _, kind := range []string{lowutil.KindProfile, lowutil.KindReport, lowutil.KindSlice, lowutil.KindAudit, lowutil.KindRun} {
		s.mux.HandleFunc("POST /v2/"+kind, s.instrument(kind, true, s.handleKind(kind)))
	}
	s.mux.HandleFunc("POST /v2/vet", s.instrument("vet", true, s.handleVet))
	s.mux.HandleFunc("POST /v2/ssa", s.instrument("ssa", false, s.handleSSA))
	s.mux.HandleFunc("POST /v2/profile/save", s.instrument("save", true, s.handleSave))
	s.mux.HandleFunc("POST /v2/profile/load", s.instrument("load", true, s.handleLoad))
	s.mux.HandleFunc("POST /v2/jobs", s.instrument("jobs", false, s.handleJobsSubmit))
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.instrument("job", false, s.handleJobStatus))
	s.mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleJobEvents(s.met.endpoint("events")))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

var errUnknownSession = errors.New("unknown session (expired from the cache or never compiled)")

// instrument wraps a handler with request counting, per-request deadline,
// admission control for heavy (execution- or analysis-bound) endpoints,
// and the structured request log line. It registers name's counters when
// routes registers the handler, before the server serves.
func (s *Server) instrument(name string, heavy bool, h func(ctx context.Context, r *http.Request) (any, error)) http.HandlerFunc {
	c := s.met.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		c.requests.Add(1)
		if heavy {
			if !s.gate.TryAcquire() {
				s.met.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				s.writeJSON(w, http.StatusTooManyRequests, client.Envelope{Error: client.ErrorBody{
					Code: "at_capacity", Message: "server at capacity", Retryable: true,
				}})
				s.logLine(r, name, http.StatusTooManyRequests, start)
				return
			}
			defer s.gate.Release()
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		resp, err := h(ctx, r)
		status := http.StatusOK
		if err != nil {
			c.failures.Add(1)
			status = s.writeErr(w, err)
		} else if raw, ok := resp.(json.RawMessage); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Write(raw)
		} else {
			s.writeJSON(w, http.StatusOK, resp)
		}
		s.logLine(r, name, status, start)
	}
}

func (s *Server) logLine(r *http.Request, endpoint string, status int, start time.Time) {
	s.log.Info("request",
		"endpoint", endpoint,
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"dur_ms", time.Since(start).Milliseconds(),
		"inflight", s.gate.InFlight(),
	)
}

// writeErr maps facade errors onto transport statuses and the unified
// envelope: compile failures and programs that allocate past the
// interpreter's heap budget are the client's fault (422), unknown
// sessions or jobs 404, bad payloads, unknown kinds or call-graph modes
// and oversized slot counts 400, a full job queue 429, a batch key
// conflict 409, deadline expiry 504, cancellation 499 (client gone), the
// rest 500.
func (s *Server) writeErr(w http.ResponseWriter, err error) int {
	status, body := classifyErr(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, client.Envelope{Error: body})
	return status
}

// classifyErr is the single mapping from Go errors to (status, envelope
// body), for synchronous responses and failed jobs alike. Cancellation is
// checked before profile errors: a run aborted by the client's disconnect
// wraps ErrCanceled inside a ProfileError, and the disconnect is the truth
// of the matter.
func classifyErr(err error) (int, client.ErrorBody) {
	var ce *lowutil.CompileError
	var pe *lowutil.ProfileError
	var badReq *badRequestError
	var slotsErr *lowutil.SlotsError
	var optErr *lowutil.OptionError
	var heapErr *lowutil.HeapError
	status := http.StatusInternalServerError
	body := client.ErrorBody{Code: "internal", Message: err.Error()}
	switch {
	case errors.As(err, &ce):
		status, body.Code = http.StatusUnprocessableEntity, "compile_error"
		body.Line, body.Col = ce.Line, ce.Col
	case errors.As(err, &badReq), errors.As(err, &slotsErr), errors.As(err, &optErr):
		status, body.Code = http.StatusBadRequest, "bad_request"
	case errors.Is(err, errUnknownSession), errors.Is(err, errUnknownJob):
		status, body.Code = http.StatusNotFound, "not_found"
	case errors.Is(err, jobs.ErrQueueFull):
		status, body.Code, body.Retryable = http.StatusTooManyRequests, "at_capacity", true
	case errors.Is(err, jobs.ErrBatchConflict):
		status, body.Code = http.StatusConflict, "conflict"
	case errors.Is(err, context.DeadlineExceeded):
		status, body.Code = http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, lowutil.ErrCanceled), errors.Is(err, context.Canceled):
		status, body.Code, body.Retryable = 499, "canceled", true // client closed request (nginx convention)
	case errors.As(err, &heapErr):
		status, body.Code = http.StatusUnprocessableEntity, "heap_limit"
	case errors.As(err, &pe):
		body.Code, body.Stage = "profile_error", pe.Stage
	}
	return status, body
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// badRequestError marks malformed payloads for the 400 mapping.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func decode[T any](r *http.Request) (*T, error) {
	var v T
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	if err := dec.Decode(&v); err != nil {
		return nil, &badRequestError{fmt.Errorf("decode request: %w", err)}
	}
	return &v, nil
}

// session resolves a session reference, counting cache traffic.
func (s *Server) session(id string) (*Session, error) {
	if id == "" {
		return nil, &badRequestError{errors.New("missing session")}
	}
	sess, ok := s.sessions.get(id)
	if !ok {
		s.met.sessionMisses.Add(1)
		return nil, fmt.Errorf("%w: %s", errUnknownSession, id)
	}
	s.met.sessionHits.Add(1)
	return sess, nil
}

// ---- the bodies the client SDK does not model ----

type vetResponse struct {
	Session  string   `json:"session"`
	Findings []string `json:"findings"`
}

type ssaRequest struct {
	Session string `json:"session"`
	// Method restricts the dump to one "Class.method"; empty dumps all.
	Method string `json:"method,omitempty"`
}

type ssaResponse struct {
	Session string `json:"session"`
	Dump    string `json:"dump"`
}

type runResponse struct {
	Session    string  `json:"session"`
	Output     []int64 `json:"output"`
	Steps      int64   `json:"steps"`
	Allocs     int64   `json:"allocs"`
	NativeWork int64   `json:"native_work"`
}

type loadRequest struct {
	client.ProfileRequest
	Profile json.RawMessage `json:"profile"`
}

// ---- handlers ----

func (s *Server) handleCompile(ctx context.Context, r *http.Request) (any, error) {
	req, err := decode[client.CompilePayload](r)
	if err != nil {
		return nil, err
	}
	if req.Source == "" {
		return nil, &badRequestError{errors.New("missing source")}
	}
	sess, hit, err := s.compileSession(req.Source, req.MainClass, req.MainMethod)
	if err != nil {
		return nil, err
	}
	return client.CompileResult{Session: sess.ID, Instructions: sess.Prog.NumInstructions(), CacheHit: hit}, nil
}

// compileSession returns the session for a program (entry point Main.main
// by default) from the session LRU, compiling and inserting it on a miss,
// and counts the cache traffic. Synchronous requests and batch jobs share
// this one compiled-program cache. The second result reports a hit.
func (s *Server) compileSession(src, mainClass, mainMethod string) (*Session, bool, error) {
	if mainClass == "" {
		mainClass = "Main"
	}
	if mainMethod == "" {
		mainMethod = "main"
	}
	id := sessionKey(src, mainClass, mainMethod)
	if sess, ok := s.sessions.get(id); ok {
		s.met.sessionHits.Add(1)
		return sess, true, nil
	}
	prog, err := lowutil.CompileAt(src, mainClass, mainMethod)
	if err != nil {
		return nil, false, err
	}
	sess, inserted, evicted := s.sessions.add(&Session{ID: id, Created: time.Now(), Prog: prog})
	if inserted {
		s.met.sessionsCreated.Add(1)
	} else {
		s.met.sessionHits.Add(1)
	}
	s.met.sessionEvictions.Add(int64(evicted))
	return sess, !inserted, nil
}

// handleKind serves the synchronous endpoint of one request kind: it
// decodes the session and options and runs the executor jobs run.
func (s *Server) handleKind(kind string) func(ctx context.Context, r *http.Request) (any, error) {
	return func(ctx context.Context, r *http.Request) (any, error) {
		req, err := decode[client.ProfileRequest](r)
		if err != nil {
			return nil, err
		}
		sess, err := s.session(req.Session)
		if err != nil {
			return nil, err
		}
		return s.execute(ctx, sess, kind, req.Options, true)
	}
}

// execute runs one request on its compiled session and returns the
// response body: the one path behind /v2/run, /v2/profile, /v2/report,
// /v2/slice, /v2/audit and every job. The options are resolved for kind
// first, so an unknown call-graph mode fails before any memo is touched,
// and the memos key by the defaulted fields each analysis reads. Profiles
// and static audits are memoized per session, with concurrent identical
// requests sharing one computation. cache_hit reports a memoized answer
// only when hits is set: a job's payload is always the cold body.
func (s *Server) execute(ctx context.Context, sess *Session, kind string, o lowutil.Options, hits bool) (any, error) {
	o, err := o.Resolve(kind)
	if err != nil {
		return nil, err
	}
	switch kind {
	case lowutil.KindCompile:
		return client.CompileResult{Session: sess.ID, Instructions: sess.Prog.NumInstructions()}, nil
	case lowutil.KindRun:
		res, err := sess.Prog.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		out := res.Output
		if out == nil {
			out = []int64{}
		}
		return runResponse{
			Session: sess.ID, Output: out,
			Steps: res.Steps, Allocs: res.Allocs, NativeWork: res.NativeWork,
		}, nil
	case lowutil.KindProfile, lowutil.KindReport:
		pr, hit, err := s.cachedProfile(ctx, sess, o)
		if err != nil {
			return nil, err
		}
		if kind == lowutil.KindReport {
			return client.ReportResult{Session: sess.ID, CacheHit: hit && hits, Report: pr.Report(o.Top)}, nil
		}
		return client.ProfileResult{Session: sess.ID, CacheHit: hit && hits, Steps: pr.Steps(), Top: pr.TopStructures(o.Top)}, nil
	case lowutil.KindSlice:
		rep, err := sess.Prog.StaticSliceContext(ctx, lowutil.WithOptions(o))
		if err != nil {
			return nil, err
		}
		return client.ReportResult{Session: sess.ID, Report: rep}, nil
	default: // lowutil.KindAudit: Resolve rejected every other kind
		rep, hit, err := sess.audit(ctx, o)
		if hit {
			s.met.auditHits.Add(1)
		} else {
			s.met.auditMisses.Add(1)
		}
		if err != nil {
			return nil, err
		}
		return client.ReportResult{Session: sess.ID, CacheHit: hit && hits, Report: rep}, nil
	}
}

// cachedProfile resolves the memoized run for resolved profile options,
// counting cache traffic and step totals. Top shapes only the rendering,
// so one run serves every top. A slot count the facade would refuse is
// rejected before it reaches the memo, so bad requests leave no entries.
func (s *Server) cachedProfile(ctx context.Context, sess *Session, o lowutil.Options) (*lowutil.Profile, bool, error) {
	o.Top = 0
	if err := sess.Prog.CheckSlots(o.Slots); err != nil {
		return nil, false, err
	}
	pr, hit, err := sess.profile(ctx, o)
	if hit {
		s.met.profileHits.Add(1)
	} else {
		s.met.profileMisses.Add(1)
		if err == nil {
			s.met.profiledSteps.Add(pr.Steps())
		}
	}
	return pr, hit, err
}

func (s *Server) handleVet(ctx context.Context, r *http.Request) (any, error) {
	req, err := decode[client.ProfileRequest](r)
	if err != nil {
		return nil, err
	}
	sess, err := s.session(req.Session)
	if err != nil {
		return nil, err
	}
	findings := []string{}
	for _, f := range sess.Prog.Vet() {
		findings = append(findings, f.Message)
	}
	return vetResponse{Session: sess.ID, Findings: findings}, nil
}

func (s *Server) handleSSA(ctx context.Context, r *http.Request) (any, error) {
	req, err := decode[ssaRequest](r)
	if err != nil {
		return nil, err
	}
	sess, err := s.session(req.Session)
	if err != nil {
		return nil, err
	}
	dump, err := sess.Prog.SSADump(req.Method)
	if err != nil {
		return nil, &badRequestError{err}
	}
	return ssaResponse{Session: sess.ID, Dump: dump}, nil
}

// handleSave profiles (or reuses the memoized run) and streams the
// portable profile envelope — the §3.2 offline-analysis deployment mode
// over HTTP.
func (s *Server) handleSave(ctx context.Context, r *http.Request) (any, error) {
	req, err := decode[client.ProfileRequest](r)
	if err != nil {
		return nil, err
	}
	sess, err := s.session(req.Session)
	if err != nil {
		return nil, err
	}
	o, err := req.Options.Resolve(lowutil.KindProfile)
	if err != nil {
		return nil, err
	}
	pr, _, err := s.cachedProfile(ctx, sess, o)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// handleLoad reloads a saved profile against the session's program and
// renders its report, closing the save/load round trip.
func (s *Server) handleLoad(ctx context.Context, r *http.Request) (any, error) {
	req, err := decode[loadRequest](r)
	if err != nil {
		return nil, err
	}
	sess, err := s.session(req.Session)
	if err != nil {
		return nil, err
	}
	if len(req.Profile) == 0 {
		return nil, &badRequestError{errors.New("missing profile")}
	}
	o, err := req.Options.Resolve(lowutil.KindReport)
	if err != nil {
		return nil, err
	}
	pr, err := sess.Prog.LoadProfile(bytes.NewReader(req.Profile), lowutil.WithOptions(o))
	if err != nil {
		return nil, &badRequestError{err}
	}
	return client.ReportResult{Session: sess.ID, Report: pr.Report(o.Top)}, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.render(w, s.sessions.len(), s.gate.InFlight(), s.gate.Cap(), s.jobs.Stats())
}
