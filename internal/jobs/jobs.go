// Package jobs is the asynchronous batch-job subsystem behind POST
// /v2/jobs: one priority heap of analysis requests drained by a fixed set
// of worker goroutines, with per-job deadlines, a content-addressed result
// store, ordered per-job event logs for streaming progress, and a drain
// that cancels in-flight work.
//
// Architecture:
//
//   - Every queued job sits in one heap under the queue's lock, ordered
//     by priority (highest first), then submission order. Priority is
//     global: no job starts while a higher-priority one is queued.
//   - Workers goroutines (default 4) each pop the best job, run it, and
//     repeat, so Workers is exactly the bound on jobs running at once.
//   - Results are stored content-addressed under lowutil.Request.Hash in
//     an LRU; a resubmitted identical spec completes from the store
//     without re-executing.
//   - A job runs once. Its error is final and maps onto the /v2 envelope
//     code (JobError), so its event stream ends with one done or failed.
//   - Drain cancels in-flight executions, which fail with code canceled,
//     and waits for the workers to exit. Queued jobs stay queued.
package jobs

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lowutil"
)

// Executor runs one request to completion under ctx. Implementations must
// be safe for concurrent use; the server's executor is the same function
// its synchronous endpoints call.
type Executor interface {
	Execute(ctx context.Context, spec lowutil.Request) (*Result, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(ctx context.Context, spec lowutil.Request) (*Result, error)

// Execute implements Executor.
func (f ExecutorFunc) Execute(ctx context.Context, spec lowutil.Request) (*Result, error) {
	return f(ctx, spec)
}

// Config tunes a Queue. The zero value of every field selects a sensible
// default; Executor is required.
type Config struct {
	// Workers is the number of worker goroutines, and so the bound on
	// jobs executing at once (0 = 4).
	Workers int
	// Depth bounds the total number of queued-but-not-terminal jobs; a
	// submission that would exceed it fails with ErrQueueFull (0 = 1024).
	Depth int
	// MaxResults bounds the content-addressed result store (0 = 256).
	MaxResults int
	// MaxJobs bounds retained job records; submissions over the bound
	// evict the oldest terminal jobs first (0 = 4096).
	MaxJobs int
	// Executor runs the specs. Required.
	Executor Executor
}

// ErrQueueFull rejects submissions over the Depth bound. Retryable: the
// queue drains as workers finish.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrBatchConflict rejects a batch key reused with different contents.
var ErrBatchConflict = errors.New("jobs: batch key reused with different jobs")

// Stats is a snapshot of the queue's counters.
type Stats struct {
	Submitted    int64 // jobs accepted, deduplicated submissions excluded
	Deduped      int64 // jobs answered from an existing batch record
	Completed    int64 // jobs finished in StateDone
	Failed       int64 // jobs finished in StateFailed
	ResultHits   int64 // executions satisfied by the content-addressed store
	ResultMisses int64 // executions that ran the executor
	Evictions    int64 // results dropped by the store LRU bound
	Queued       int64 // jobs currently waiting in the heap
	Running      int64 // jobs currently executing
	Results      int   // results currently resident in the store
}

// Queue is the job queue. Create with New; submit with Submit; observe
// with Status, Events, and Stats; stop with Drain.
type Queue struct {
	cfg   Config
	store *store

	mu       sync.Mutex
	ready    sync.Cond // signaled on q.mu when a job is pushed or the queue drains
	heap     jobHeap
	running  int
	jobs     map[string]*job
	order    []*job // submission order, for terminal-job eviction
	batches  map[string]*batchRecord
	seq      int64
	draining bool
	ctx      context.Context // canceled by Drain
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	submitted, deduped, completed, failed    atomic.Int64
	resultHits, resultMisses, storeEvictions atomic.Int64
}

// batchRecord pins an idempotency key to the jobs it created, so a
// retried submission returns the same IDs without enqueuing anything.
type batchRecord struct {
	id  string
	sig string
	ids []string
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
	if cfg.Depth <= 0 {
		cfg.Depth = 1024
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	q := &Queue{
		cfg:     cfg,
		store:   newStore(cfg.MaxResults),
		jobs:    make(map[string]*job),
		batches: make(map[string]*batchRecord),
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
		q.mu.Unlock()
	}
}

// Request is one job submission: the analysis request plus its scheduling
// envelope. The spec is a lowutil.Request, the type every synchronous
// surface carries, so a job runs exactly what a direct call would.
type Request struct {
	Spec lowutil.Request `json:"spec"`
	// Priority orders jobs within the queue — higher runs earlier; equal
	// priorities run in submission order.
	Priority int `json:"priority,omitempty"`
	// Deadline bounds the job's total lifetime from submission, time in
	// the queue included (0 = no per-job deadline).
	Deadline time.Duration `json:"deadline,omitempty"`
}

// Submitted describes one job accepted (or deduplicated) by Submit.
type Submitted struct {
	ID        string `json:"id"`
	Index     int    `json:"index"`
	Duplicate bool   `json:"duplicate"`
}

// Submit enqueues a batch of jobs under the caller-chosen idempotency
// key. Resubmitting the same key with the same requests returns the
// original batch ID and job IDs with Duplicate set and enqueues nothing —
// the contract that makes client retries of POST /v2/jobs safe. Reusing a
// key with different contents fails with ErrBatchConflict.
func (q *Queue) Submit(key string, reqs []Request) (string, []Submitted, error) {
	if key == "" {
		return "", nil, errors.New("jobs: empty idempotency key")
	}
	if len(reqs) == 0 {
		return "", nil, errors.New("jobs: empty batch")
	}
	for i, r := range reqs {
		if err := r.Spec.Validate(); err != nil {
			return "", nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	sig := batchSig(key, reqs)
	batchID := "b" + sig[:23]

	q.mu.Lock()
	if rec, ok := q.batches[key]; ok {
		defer q.mu.Unlock()
		if rec.sig != sig {
			return "", nil, ErrBatchConflict
		}
		subs := make([]Submitted, len(rec.ids))
		for i, id := range rec.ids {
			subs[i] = Submitted{ID: id, Index: i, Duplicate: true}
		}
		q.deduped.Add(int64(len(rec.ids)))
		return rec.id, subs, nil
	}
	if len(q.heap)+q.running+len(reqs) > q.cfg.Depth {
		q.mu.Unlock()
		return "", nil, ErrQueueFull
	}
	now := time.Now()
	rec := &batchRecord{id: batchID, sig: sig, ids: make([]string, len(reqs))}
	subs := make([]Submitted, len(reqs))
	for i, r := range reqs {
		id := jobID(key, i, r.Spec)
		q.seq++
		j := newJob(id, batchID, i, r, q.seq, now)
		q.jobs[id] = j
		q.order = append(q.order, j)
		heap.Push(&q.heap, j)
		rec.ids[i] = id
		subs[i] = Submitted{ID: id, Index: i}
	}
	q.batches[key] = rec
	q.submitted.Add(int64(len(reqs)))
	q.ready.Broadcast()
	q.gcLocked()
	q.mu.Unlock()
	return batchID, subs, nil
}

// gcLocked evicts the oldest terminal job records over the MaxJobs bound
// (queued and running jobs are never dropped), then drops batch records
// whose jobs have all been evicted — otherwise q.batches grows one record
// per idempotency key forever. Called with q.mu held.
func (q *Queue) gcLocked() {
	over := len(q.jobs) - q.cfg.MaxJobs
	if over <= 0 {
		return
	}
	kept := q.order[:0]
	evicted := false
	for _, j := range q.order {
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if over > 0 && terminal {
			delete(q.jobs, j.id)
			evicted = true
			over--
			continue
		}
		kept = append(kept, j)
	}
	for i := len(kept); i < len(q.order); i++ {
		q.order[i] = nil
	}
	q.order = kept
	if !evicted {
		return
	}
	for key, rec := range q.batches {
		live := false
		for _, id := range rec.ids {
			if _, ok := q.jobs[id]; ok {
				live = true
				break
			}
		}
		if !live {
			delete(q.batches, key)
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

func batchSig(key string, reqs []Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d", key, len(reqs))
	for _, r := range reqs {
		fmt.Fprintf(h, "\x00%s\x00%d\x00%d", r.Spec.Hash(), r.Priority, r.Deadline)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runJob executes j once and finishes it: done with the result, or
// failed with the error's envelope code. A drain cancels q.ctx, so an
// in-flight job it interrupts fails with code canceled.
func (q *Queue) runJob(j *job) {
	j.mu.Lock()
	j.attempt = 1
	j.state = StateRunning
	j.append(Event{Type: EventStarted, Attempt: j.attempt})
	j.mu.Unlock()

	// The content-addressed store first: identical completed work is
	// reused, not recomputed.
	if res, ok := q.store.get(j.hash); ok {
		q.resultHits.Add(1)
		q.completed.Add(1)
		j.finish(res, nil, "cached")
		return
	}
	q.resultMisses.Add(1)

	ctx := q.ctx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	res, err := q.cfg.Executor.Execute(ctx, j.spec)
	if err != nil {
		code := errorCode(err)
		q.failed.Add(1)
		j.finish(nil, &JobError{Code: code, Message: err.Error(), Retryable: code == "canceled"}, "")
		return
	}
	q.storeEvictions.Add(int64(q.store.put(j.hash, res)))
	q.completed.Add(1)
	j.finish(res, nil, "")
}

// Drain stops the queue: in-flight executions are canceled and fail with
// code canceled, the workers exit, and every queued job stays queued.
// Drain blocks until the workers have exited and is idempotent.
func (q *Queue) Drain() {
	q.mu.Lock()
	q.draining = true
	q.ready.Broadcast()
	q.mu.Unlock()
	q.cancel()
	q.wg.Wait()
}

// Status snapshots one job.
func (q *Queue) Status(id string) (*Status, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.status(), true
}

// BatchStatus snapshots every job of a batch, in submission order.
func (q *Queue) BatchStatus(batchID string) ([]*Status, bool) {
	q.mu.Lock()
	var rec *batchRecord
	for _, r := range q.batches {
		if r.id == batchID {
			rec = r
			break
		}
	}
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
	out := make([]*Status, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out, true
}

// Events replays job id's event log from seq after+1 onward, invoking fn
// for each event in order, then follows the live log until the job reaches
// a terminal state, ctx ends, or fn returns an error (which Events
// returns). The combination of dense per-job sequence numbers and
// timestamp-free events makes any two replays of the same job identical.
func (q *Queue) Events(ctx context.Context, id string, after int, fn func(Event) error) error {
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
		terminal := j.state.Terminal()
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

// EvictResult drops the content-addressed result for spec, reporting
// whether one was resident. Tests use it to force the evicted-entry
// recovery path; operators can use it to invalidate a result.
func (q *Queue) EvictResult(spec lowutil.Request) bool { return q.store.evict(spec.Hash()) }

// Stats snapshots the queue's counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	queued, running := len(q.heap), q.running
	q.mu.Unlock()
	return Stats{
		Submitted:    q.submitted.Load(),
		Deduped:      q.deduped.Load(),
		Completed:    q.completed.Load(),
		Failed:       q.failed.Load(),
		ResultHits:   q.resultHits.Load(),
		ResultMisses: q.resultMisses.Load(),
		Evictions:    q.storeEvictions.Load(),
		Queued:       int64(queued),
		Running:      int64(running),
		Results:      q.store.len(),
	}
}
