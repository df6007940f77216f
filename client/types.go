package client

import "encoding/json"

// Job kinds, matching the service's /v2/jobs vocabulary. Each kind runs
// the same analysis as the synchronous endpoint of the same name.
const (
	KindCompile = "compile"
	KindRun     = "run"
	KindProfile = "profile"
	KindReport  = "report"
	KindSlice   = "slice"
	KindAudit   = "audit"
)

// Spec is one unit of batch work: a program plus the analysis
// configuration. Zero values of optional fields select the service's
// defaults, exactly as in the synchronous endpoints.
type Spec struct {
	Kind       string `json:"kind"`
	Source     string `json:"source"`
	MainClass  string `json:"main_class,omitempty"`
	MainMethod string `json:"main_method,omitempty"`

	// Profiling configuration (kinds profile and report).
	Slots        int  `json:"slots,omitempty"`
	TreeHeight   int  `json:"tree_height,omitempty"`
	Traditional  bool `json:"traditional,omitempty"`
	TrackControl bool `json:"track_control,omitempty"`

	// Static-analysis configuration (kinds slice and audit).
	Mode   string `json:"mode,omitempty"`
	ObjCtx bool   `json:"objctx,omitempty"`

	// Top bounds ranked lists in rendered results (0 = the default).
	Top int `json:"top,omitempty"`
}

// Job is one batch submission: a spec plus its scheduling envelope.
type Job struct {
	Spec
	// Priority orders jobs in the queue — higher runs earlier; equal
	// priorities run in submission order.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the job's total lifetime from submission in
	// milliseconds, across retries (0 = none).
	DeadlineMS int `json:"deadline_ms,omitempty"`
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

// Result is a completed job's payload: the JSON body the synchronous
// endpoint for the job's kind would have returned on a cold cache.
type Result struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// Decode unmarshals the payload into out — typically the result type
// matching the job's kind (CompileResult, ProfileResult, ReportResult).
func (r *Result) Decode(out any) error { return json.Unmarshal(r.Payload, out) }

// JobError is a failed job's terminal error, in the service's typed
// envelope shape.
type JobError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

func (e *JobError) Error() string { return e.Message }

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID       string    `json:"id"`
	Batch    string    `json:"batch"`
	Index    int       `json:"index"`
	Kind     string    `json:"kind"`
	State    string    `json:"state"`
	Attempts int       `json:"attempts"`
	Priority int       `json:"priority,omitempty"`
	Events   int       `json:"events"`
	Result   *Result   `json:"result,omitempty"`
	Err      *JobError `json:"error,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (s *JobStatus) Terminal() bool { return s.State == "done" || s.State == "failed" }

// Event is one entry of a job's progress log. Seq is dense from 1 within
// the job; events carry no timestamps, so any two replays of the same job
// are identical.
type Event struct {
	Seq     int    `json:"seq"`
	Type    string `json:"type"`
	Attempt int    `json:"attempt,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// CompileResult is the /v2/compile response.
type CompileResult struct {
	Session      string `json:"session"`
	Instructions int    `json:"instructions"`
	CacheHit     bool   `json:"cache_hit"`
}

// ProfileRequest selects a profiling run of a compiled session. Zero
// values mean the service defaults.
type ProfileRequest struct {
	Session      string `json:"session"`
	Slots        int    `json:"slots,omitempty"`
	TreeHeight   int    `json:"tree_height,omitempty"`
	Traditional  bool   `json:"traditional,omitempty"`
	TrackControl bool   `json:"track_control,omitempty"`
	Top          int    `json:"top,omitempty"`
}

// Finding is one ranked low-utility structure in a profile result.
type Finding struct {
	Site            int     `json:"site"`
	Where           string  `json:"where"`
	Cost            float64 `json:"cost"`
	Benefit         float64 `json:"benefit"`
	Rate            float64 `json:"rate"`
	ReachesConsumer bool    `json:"reaches_consumer"`
	Allocs          int64   `json:"allocs"`
}

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
