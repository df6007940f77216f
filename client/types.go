package client

import (
	"encoding/json"

	"lowutil"
)

// This file declares the service's wire format: every /v2 body the SDK
// sends or reads. The service and its job queue encode these types
// directly, so each body has this one declaration.

// Spec is one unit of batch work: a program plus the analysis
// configuration, with Kind one of the lowutil.Kind constants. It is the
// request type every surface of the service shares; zero options select
// the service's defaults, exactly as in the synchronous endpoints.
type Spec = lowutil.Request

// Job is one batch submission: a spec plus its scheduling envelope.
type Job struct {
	Spec
	// Priority orders jobs in the queue — higher runs earlier; equal
	// priorities run in submission order.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the job's total lifetime from submission in
	// milliseconds, time in the queue included (0 = none).
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// SubmitPayload is the POST /v2/jobs body. Key is the batch idempotency
// key: resubmitting the same key with the same jobs returns the original
// IDs without enqueuing anything. An empty key makes the service derive
// one from the batch content.
type SubmitPayload struct {
	Key  string `json:"key,omitempty"`
	Jobs []Job  `json:"jobs"`
}

// Submitted identifies one accepted job. Duplicate reports that the
// submission was answered from an earlier batch with the same key.
type Submitted struct {
	ID        string `json:"id"`
	Index     int    `json:"index"`
	Duplicate bool   `json:"duplicate"`
}

// Batch is an accepted submission: the batch ID plus one entry per job,
// in submission order.
type Batch struct {
	ID   string      `json:"batch"`
	Jobs []Submitted `json:"jobs"`
}

// BatchStatus is the GET /v2/jobs/{batch} body: a snapshot of every job
// of the batch still on record, in submission order.
type BatchStatus struct {
	ID   string       `json:"batch"`
	Jobs []*JobStatus `json:"jobs"`
}

// Job states, as JobStatus.State reports them. A job runs at most once:
//
//	queued → running → done | failed
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Event types, as Event.Type reports them. A job's log ends with one
// EventDone or EventFailed.
const (
	EventQueued  = "queued"
	EventStarted = "started"
	EventDone    = "done"
	EventFailed  = "failed"
)

// Result is a completed job's payload: the JSON body the synchronous
// endpoint for the job's kind would have returned on a cold cache.
type Result struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// Decode unmarshals the payload into out — typically the result type
// matching the job's kind (CompileResult, ProfileResult, ReportResult).
func (r *Result) Decode(out any) error { return json.Unmarshal(r.Payload, out) }

// ErrorBody is the service's typed error: the body of every /v2 error
// response, inside an Envelope, and a failed job's error, which is the
// body the synchronous endpoint returns for the same failure. Code is a
// stable machine-readable class ("at_capacity", "canceled", "deadline",
// "not_found", "bad_request", "conflict", "compile_error", ...);
// Retryable tells whether a backed-off retry of the same request can
// succeed. Stage names a failed profile_error run's stage, and Line and
// Col position a compile_error.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	Stage     string `json:"stage,omitempty"`
	Line      int    `json:"line,omitempty"`
	Col       int    `json:"col,omitempty"`
}

func (e *ErrorBody) Error() string { return e.Message }

// Envelope is the body of every /v2 error response: {"error":{...}}.
type Envelope struct {
	Error ErrorBody `json:"error"`
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID       string     `json:"id"`
	Batch    string     `json:"batch"`
	Index    int        `json:"index"`
	Kind     string     `json:"kind"`
	State    string     `json:"state"`
	Priority int        `json:"priority,omitempty"`
	Events   int        `json:"events"`
	Result   *Result    `json:"result,omitempty"`
	Err      *ErrorBody `json:"error,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (s *JobStatus) Terminal() bool { return s.State == StateDone || s.State == StateFailed }

// Event is one entry of a job's progress log. Seq is dense from 1 within
// the job; events carry no timestamps, so any two replays of the same job
// are identical.
type Event struct {
	Seq    int    `json:"seq"`
	Type   string `json:"type"`
	Detail string `json:"detail,omitempty"`
}

// CompilePayload is the /v2/compile body. Empty MainClass and MainMethod
// mean Main.main.
type CompilePayload struct {
	Source     string `json:"source"`
	MainClass  string `json:"main_class,omitempty"`
	MainMethod string `json:"main_method,omitempty"`
}

// CompileResult is the /v2/compile response.
type CompileResult struct {
	Session      string `json:"session"`
	Instructions int    `json:"instructions"`
	CacheHit     bool   `json:"cache_hit"`
}

// ProfileRequest names a compiled session and the options of the analysis
// to run on it: the body of every endpoint that reads a session. Zero
// options mean the service defaults, and each endpoint reads only the
// options its analysis reads; profile and report read the profiling
// fields and Top.
type ProfileRequest struct {
	Session string `json:"session"`
	lowutil.Options
}

// Finding is one ranked low-utility structure in a profile result: the
// facade's own Finding, whose JSON form is the wire's.
type Finding = lowutil.Finding

// ProfileResult is the /v2/profile response.
type ProfileResult struct {
	Session  string    `json:"session"`
	CacheHit bool      `json:"cache_hit"`
	Steps    int64     `json:"steps"`
	Top      []Finding `json:"top"`
}

// ReportResult is the rendered-report response shape shared by /v2/report,
// /v2/slice, and /v2/audit.
type ReportResult struct {
	Session  string `json:"session"`
	CacheHit bool   `json:"cache_hit"`
	Report   string `json:"report"`
}
