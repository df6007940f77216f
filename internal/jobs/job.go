package jobs

import (
	"sync"
	"time"

	"lowutil"
	"lowutil/client"
)

// job is the queue's internal record for one submitted spec. Its state
// moves queued → running → done | failed (client.State*), and its event
// log carries a per-job sequence number, dense from 1, and no wall-clock
// fields, so the stream for a given job replays byte-identically and in
// deterministic order no matter when or how often it is read.
type job struct {
	id       string
	batch    string
	index    int
	spec     lowutil.Request
	priority int
	seq      int64     // global submission order, ties within a priority
	deadline time.Time // zero = none

	mu      sync.Mutex
	state   string
	events  []client.Event
	changed chan struct{} // closed and replaced on every event append
	result  *client.Result
	err     *client.ErrorBody
}

func newJob(id, batch string, index int, req client.Job, seq int64, now time.Time) *job {
	j := &job{
		id:       id,
		batch:    batch,
		index:    index,
		spec:     req.Spec,
		priority: req.Priority,
		seq:      seq,
		state:    client.StateQueued,
		changed:  make(chan struct{}),
	}
	if req.DeadlineMS > 0 {
		j.deadline = now.Add(deadline(req))
	}
	j.append(client.Event{Type: client.EventQueued})
	return j
}

// append records ev with the next sequence number and wakes every stream.
// Callers hold j.mu except during construction.
func (j *job) append(ev client.Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// terminal reports whether the job has finished. Callers hold j.mu.
func (j *job) terminal() bool { return j.state == client.StateDone || j.state == client.StateFailed }

// finish completes the job with a result or a terminal error.
func (j *job) finish(res *client.Result, eb *client.ErrorBody) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result, j.err = res, eb
	if eb == nil {
		j.state = client.StateDone
		j.append(client.Event{Type: client.EventDone})
	} else {
		j.state = client.StateFailed
		j.append(client.Event{Type: client.EventFailed, Detail: eb.Code + ": " + eb.Message})
	}
}

// status snapshots the job.
func (j *job) status() *client.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &client.JobStatus{
		ID:       j.id,
		Batch:    j.batch,
		Index:    j.index,
		Kind:     j.spec.Kind,
		State:    j.state,
		Priority: j.priority,
		Events:   len(j.events),
		Result:   j.result,
		Err:      j.err,
	}
}
