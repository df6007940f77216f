// Package jobs is the asynchronous batch-job queue behind POST /v2/jobs:
// one priority heap of analysis requests drained by a fixed set of worker
// goroutines, with per-job deadlines, ordered per-job event logs for
// streaming progress, and a drain that ends every unfinished job. Its
// snapshots are the SDK's wire types (package client): Submit answers a
// client.Batch, Status a client.JobStatus and Events streams
// client.Events, so the server encodes them as they are.
//
// Architecture:
//
//   - Every queued job sits in one heap under the queue's lock, ordered
//     by priority (highest first), then submission order. Priority is
//     global: no job starts while a higher-priority one is queued.
//   - Workers goroutines (default 4) each pop the best job, run it, and
//     repeat, so Workers is exactly the bound on jobs running at once.
//   - A job runs once, and its event stream ends with one done or failed.
//     The queue does not classify errors: a failed job's error is the
//     *client.ErrorBody its executor's error carries, or code internal
//     when it carries none.
//   - The queue keeps no results beyond its job records: the server's
//     executor answers a repeated spec from the session memo its
//     synchronous endpoints read.
//   - Drain cancels in-flight executions, fails every queued job with the
//     retryable code canceled, and waits for the workers to exit. A
//     submission after the drain fails its jobs the same way, so no job
//     stays queued with no worker left to run it.
package jobs

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lowutil"
	"lowutil/client"
)

// Executor runs one request to completion under ctx and returns its
// payload, the body the synchronous endpoint for the spec's kind returns.
// A failure should carry the *client.ErrorBody the job fails with.
// Implementations must be safe for concurrent use; the server's executor
// is the same function its synchronous endpoints call.
type Executor interface {
	Execute(ctx context.Context, spec lowutil.Request) (json.RawMessage, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(ctx context.Context, spec lowutil.Request) (json.RawMessage, error)

// Execute implements Executor.
func (f ExecutorFunc) Execute(ctx context.Context, spec lowutil.Request) (json.RawMessage, error) {
	return f(ctx, spec)
}

// Config tunes a Queue. Executor is required.
type Config struct {
	// Workers is the number of worker goroutines, and so the bound on
	// jobs executing at once (0 = 4).
	Workers int
	// Executor runs the specs. Required.
	Executor Executor
}

// Depth bounds the jobs queued or running at once: a submission that
// would exceed it fails whole with ErrQueueFull.
const Depth = 1024

// maxJobs bounds the job records a queue retains: a submission over it
// evicts terminal records, the first to finish first.
const maxJobs = 4096

// ErrQueueFull rejects submissions over the Depth bound. Retryable: the
// queue drains as workers finish.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrBatchConflict rejects a batch key reused with different contents.
var ErrBatchConflict = errors.New("jobs: batch key reused with different jobs")

// Stats is a snapshot of the queue's counters.
type Stats struct {
	Submitted int64 // jobs accepted, deduplicated submissions excluded
	Deduped   int64 // jobs answered from an existing batch record
	Completed int64 // jobs finished in client.StateDone
	Failed    int64 // jobs finished in client.StateFailed
	Queued    int64 // jobs currently waiting in the heap
	Running   int64 // jobs currently executing
}

// Queue is the job queue. Create with New; submit with Submit; observe
// with Status, Events, and Stats; stop with Drain.
type Queue struct {
	exec    Executor
	maxJobs int // the record bound, maxJobs; in-package tests lower it

	mu      sync.Mutex
	ready   sync.Cond // signaled on q.mu when a job is pushed or the queue drains
	heap    jobHeap
	running int
	jobs    map[string]*job
	// done holds the terminal jobs still on record, in the order they
	// finished: the order gcLocked evicts them in.
	done      []*job
	batches   map[string]*batchRecord // by idempotency key
	batchByID map[string]*batchRecord
	seq       int64
	draining  bool
	ctx       context.Context // canceled by Drain
	cancel    context.CancelFunc
	wg        sync.WaitGroup

	submitted, deduped, completed, failed atomic.Int64
}

// batchRecord pins an idempotency key to the jobs it created, so a
// retried submission returns the same IDs without enqueuing anything. It
// lives as long as one of its job records does.
type batchRecord struct {
	key, id, sig string
	ids          []string
	live         int // job records of the batch still on record
}

// jobHeap orders by priority (higher first), then submission order.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() (x any) { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

// New builds a queue from cfg and starts its workers. cfg.Executor must be
// non-nil.
func New(cfg Config) *Queue {
	if cfg.Executor == nil {
		panic("jobs: Config.Executor is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	q := &Queue{
		exec:      cfg.Executor,
		maxJobs:   maxJobs,
		jobs:      make(map[string]*job),
		batches:   make(map[string]*batchRecord),
		batchByID: make(map[string]*batchRecord),
	}
	q.ready.L = &q.mu
	q.ctx, q.cancel = context.WithCancel(context.Background())
	q.wg.Add(cfg.Workers)
	for range cfg.Workers {
		go q.work()
	}
	return q
}

// work is one worker: it pops the best queued job, runs it, and repeats
// until the queue drains.
func (q *Queue) work() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.heap) == 0 && !q.draining {
			q.ready.Wait()
		}
		if q.draining {
			q.mu.Unlock()
			return
		}
		j := heap.Pop(&q.heap).(*job)
		q.running++
		q.mu.Unlock()

		q.runJob(j)

		q.mu.Lock()
		q.running--
		q.done = append(q.done, j)
		q.mu.Unlock()
	}
}

// Submit enqueues a batch of jobs under the caller-chosen idempotency
// key; an empty key is derived from the batch content, so a blind retry
// of a keyless batch still deduplicates. Resubmitting the same key with
// the same jobs returns the original batch, every job flagged Duplicate,
// and enqueues nothing — the contract that makes client retries of POST
// /v2/jobs safe. Reusing a key with different contents fails with
// ErrBatchConflict. Jobs submitted after a drain fail at once with code
// canceled.
func (q *Queue) Submit(key string, reqs []client.Job) (*client.Batch, error) {
	if len(reqs) == 0 {
		return nil, errors.New("jobs: empty batch")
	}
	for i, r := range reqs {
		if err := r.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	if key == "" {
		key = contentKey(reqs)
	}
	sig := batchSig(key, reqs)
	batch := &client.Batch{ID: "b" + sig[:23], Jobs: make([]client.Submitted, len(reqs))}

	q.mu.Lock()
	defer q.mu.Unlock()
	if rec, ok := q.batches[key]; ok {
		if rec.sig != sig {
			return nil, ErrBatchConflict
		}
		for i, id := range rec.ids {
			batch.Jobs[i] = client.Submitted{ID: id, Index: i, Duplicate: true}
		}
		q.deduped.Add(int64(len(rec.ids)))
		return batch, nil
	}
	if len(q.heap)+q.running+len(reqs) > Depth {
		return nil, ErrQueueFull
	}
	now := time.Now()
	rec := &batchRecord{key: key, id: batch.ID, sig: sig, ids: make([]string, len(reqs)), live: len(reqs)}
	for i, r := range reqs {
		q.seq++
		j := newJob(jobID(key, i, r.Spec), batch.ID, i, r, q.seq, now)
		q.jobs[j.id] = j
		if q.draining {
			q.failed.Add(1)
			j.finish(nil, drained())
			q.done = append(q.done, j)
		} else {
			heap.Push(&q.heap, j)
		}
		rec.ids[i] = j.id
		batch.Jobs[i] = client.Submitted{ID: j.id, Index: i}
	}
	q.batches[key], q.batchByID[rec.id] = rec, rec
	q.submitted.Add(int64(len(reqs)))
	q.ready.Broadcast()
	q.gcLocked()
	return batch, nil
}

// gcLocked evicts terminal job records, the first to finish first, while
// the records exceed the bound, and drops a batch record with its last
// job record. Queued and running jobs are not in q.done, so they are never
// evicted. It costs what it evicts. Called with q.mu held.
func (q *Queue) gcLocked() {
	for len(q.jobs) > q.maxJobs && len(q.done) > 0 {
		j := q.done[0]
		q.done[0] = nil
		q.done = q.done[1:]
		delete(q.jobs, j.id)
		rec := q.batchByID[j.batch]
		if rec.live--; rec.live == 0 {
			delete(q.batches, rec.key)
			delete(q.batchByID, rec.id)
		}
	}
}

// jobID derives the stable job identifier: content-addressed over the
// batch key, position, and spec, so a retried identical submission maps
// onto the same IDs.
func jobID(key string, index int, spec lowutil.Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%s", key, index, spec.Hash())
	return "j" + hex.EncodeToString(h.Sum(nil))[:23]
}

func batchSig(key string, reqs []client.Job) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d", key, len(reqs))
	for _, r := range reqs {
		fmt.Fprintf(h, "\x00%s\x00%d\x00%d", r.Spec.Hash(), r.Priority, deadline(r))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// contentKey derives the idempotency key of a keyless submission from the
// batch content.
func contentKey(reqs []client.Job) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%s\x00%d\x00%d\x00", r.Spec.Hash(), r.Priority, deadline(r))
	}
	return "content-" + hex.EncodeToString(h.Sum(nil))[:32]
}

// deadline is a job's lifetime bound. batchSig and contentKey hash it in
// nanoseconds, and every job and batch ID derives from those bytes.
func deadline(r client.Job) time.Duration { return time.Duration(r.DeadlineMS) * time.Millisecond }

// runJob executes j once and finishes it: done with the executor's
// payload, or failed with the envelope body its error carries. A drain
// cancels q.ctx, which the server's executor reports as code canceled.
func (q *Queue) runJob(j *job) {
	j.mu.Lock()
	j.state = client.StateRunning
	j.append(client.Event{Type: client.EventStarted})
	j.mu.Unlock()

	ctx := q.ctx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	payload, err := q.exec.Execute(ctx, j.spec)
	if err != nil {
		q.failed.Add(1)
		j.finish(nil, errorBody(err))
		return
	}
	q.completed.Add(1)
	j.finish(&client.Result{Kind: j.spec.Kind, Payload: payload}, nil)
}

// errorBody is the envelope body err carries, or code internal when it
// carries none.
func errorBody(err error) *client.ErrorBody {
	var eb *client.ErrorBody
	if errors.As(err, &eb) {
		return eb
	}
	return &client.ErrorBody{Code: "internal", Message: err.Error()}
}

// drained is the error of a job a drain ended before it started. It is
// retryable, as a canceled request is: the job can succeed in a new batch.
func drained() *client.ErrorBody {
	return &client.ErrorBody{Code: "canceled", Message: "jobs: queue drained before the job started", Retryable: true}
}

// Drain stops the queue: every queued job fails with code canceled,
// in-flight executions are canceled, and the workers exit. Drain blocks
// until they have exited and is idempotent.
func (q *Queue) Drain() {
	q.mu.Lock()
	q.draining = true
	for len(q.heap) > 0 {
		q.failed.Add(1)
		j := heap.Pop(&q.heap).(*job)
		j.finish(nil, drained())
		q.done = append(q.done, j)
	}
	q.ready.Broadcast()
	q.mu.Unlock()
	q.cancel()
	q.wg.Wait()
}

// Status snapshots one job.
func (q *Queue) Status(id string) (*client.JobStatus, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.status(), true
}

// BatchStatus snapshots every job of a batch still on record, in
// submission order.
func (q *Queue) BatchStatus(batchID string) (*client.BatchStatus, bool) {
	q.mu.Lock()
	rec := q.batchByID[batchID]
	if rec == nil {
		q.mu.Unlock()
		return nil, false
	}
	js := make([]*job, 0, len(rec.ids))
	for _, id := range rec.ids {
		if j, ok := q.jobs[id]; ok { // terminal jobs may have been GC'd
			js = append(js, j)
		}
	}
	q.mu.Unlock()
	out := &client.BatchStatus{ID: batchID, Jobs: make([]*client.JobStatus, len(js))}
	for i, j := range js {
		out.Jobs[i] = j.status()
	}
	return out, true
}

// Events replays job id's event log from seq after+1 onward, invoking fn
// for each event in order, then follows the live log until the job reaches
// a terminal state, ctx ends, or fn returns an error (which Events
// returns). The combination of dense per-job sequence numbers and
// timestamp-free events makes any two replays of the same job identical.
func (q *Queue) Events(ctx context.Context, id string, after int, fn func(client.Event) error) error {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", id)
	}
	next := max(after, 0) // a negative resume point means "from the start"
	for {
		j.mu.Lock()
		events := j.events[min(next, len(j.events)):]
		changed := j.changed
		terminal := j.terminal()
		j.mu.Unlock()
		for _, ev := range events {
			if err := fn(ev); err != nil {
				return err
			}
			next = ev.Seq
		}
		if terminal && len(events) == 0 {
			return nil
		}
		if terminal {
			continue // drain any events appended after the terminal check
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Stats snapshots the queue's counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	queued, running := len(q.heap), q.running
	q.mu.Unlock()
	return Stats{
		Submitted: q.submitted.Load(),
		Deduped:   q.deduped.Load(),
		Completed: q.completed.Load(),
		Failed:    q.failed.Load(),
		Queued:    int64(queued),
		Running:   int64(running),
	}
}
