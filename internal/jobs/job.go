package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"lowutil"
)

// State is a job's lifecycle position. A job runs at most once:
//
//	queued → running → done | failed
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Event is one entry of a job's progress log. Events carry a per-job
// sequence number, dense from 1, and no wall-clock fields, so the stream
// for a given job replays byte-identically and in deterministic order no
// matter when or how often it is read.
type Event struct {
	Seq     int    `json:"seq"`
	Type    string `json:"type"`
	Attempt int    `json:"attempt,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Event types.
const (
	EventQueued  = "queued"
	EventStarted = "started"
	EventDone    = "done"
	EventFailed  = "failed"
)

// Result is a completed job's payload: the same JSON body the synchronous
// endpoint for the spec's kind would have returned.
type Result struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// JobError is the terminal error of a failed job, in the same typed shape
// as the /v2/* error envelope. As there, only code canceled is retryable:
// a job a drain interrupted can succeed in a new batch.
type JobError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

func (e *JobError) Error() string { return e.Message }

// Status is a point-in-time snapshot of one job.
type Status struct {
	ID       string    `json:"id"`
	Batch    string    `json:"batch"`
	Index    int       `json:"index"`
	Kind     string    `json:"kind"`
	State    State     `json:"state"`
	Attempts int       `json:"attempts"`
	Priority int       `json:"priority,omitempty"`
	Events   int       `json:"events"`
	Result   *Result   `json:"result,omitempty"`
	Err      *JobError `json:"error,omitempty"`
}

// job is the queue's internal record for one submitted spec.
type job struct {
	id       string
	batch    string
	index    int
	spec     lowutil.Request
	hash     string
	priority int
	seq      int64     // global submission order, ties within a priority
	deadline time.Time // zero = none

	mu      sync.Mutex
	state   State
	attempt int
	events  []Event
	changed chan struct{} // closed and replaced on every event append
	result  *Result
	err     *JobError
}

func newJob(id, batch string, index int, req Request, seq int64, now time.Time) *job {
	j := &job{
		id:       id,
		batch:    batch,
		index:    index,
		spec:     req.Spec,
		hash:     req.Spec.Hash(),
		priority: req.Priority,
		seq:      seq,
		state:    StateQueued,
		changed:  make(chan struct{}),
	}
	if req.Deadline > 0 {
		j.deadline = now.Add(req.Deadline)
	}
	j.append(Event{Type: EventQueued})
	return j
}

// append records ev with the next sequence number and wakes every stream.
// Callers hold j.mu except during construction.
func (j *job) append(ev Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// finish completes the job with a result or a terminal error.
func (j *job) finish(res *Result, jerr *JobError, detail string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result, j.err = res, jerr
	if jerr == nil {
		j.state = StateDone
		j.append(Event{Type: EventDone, Attempt: j.attempt, Detail: detail})
	} else {
		j.state = StateFailed
		j.append(Event{Type: EventFailed, Attempt: j.attempt, Detail: jerr.Code + ": " + jerr.Message})
	}
}

// status snapshots the job.
func (j *job) status() *Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &Status{
		ID:       j.id,
		Batch:    j.batch,
		Index:    j.index,
		Kind:     j.spec.Kind,
		State:    j.state,
		Attempts: j.attempt,
		Priority: j.priority,
		Events:   len(j.events),
		Result:   j.result,
		Err:      j.err,
	}
}

// ---- error classification ----

// errorCode maps an execution error onto the typed envelope code shared
// with the server's /v2/* error responses.
func errorCode(err error) string {
	var ce *lowutil.CompileError
	var pe *lowutil.ProfileError
	var he *lowutil.HeapError
	switch {
	case errors.As(err, &ce):
		return "compile_error"
	case errors.As(err, &he):
		return "heap_limit"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, lowutil.ErrCanceled), errors.Is(err, context.Canceled):
		return "canceled"
	case errors.As(err, &pe):
		return "profile_error"
	default:
		return "internal"
	}
}
