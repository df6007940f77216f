// Package jobs is the asynchronous batch-job subsystem behind POST
// /v2/jobs: a sharded priority queue of analysis specs executed by a
// bounded worker pool, with per-job deadlines, exponential-backoff retry
// with deterministic jitter for transient failures, a content-addressed
// result store, ordered per-job event logs for streaming progress, and a
// graceful drain that re-queues in-flight work.
//
// Architecture:
//
//   - Submission assigns each job to a shard by ID hash. Every shard owns
//     a priority heap (priority desc, submission order asc) and one
//     dispatch goroutine, so jobs of one shard start in deterministic
//     order.
//   - Shard dispatchers hand execution to a shared par.Pool, which bounds
//     how many jobs run concurrently across all shards — shards own
//     ordering, the pool owns parallelism.
//   - Results are stored content-addressed under lowutil.Request.Hash in
//     an LRU; a resubmitted identical spec completes from the store
//     without re-executing.
//   - A transient failure (a canceled run, an evicted cache entry — see
//     Transient) re-queues the job after base·2^(attempt-1) backoff,
//     capped and jittered deterministically from the job ID, until
//     MaxAttempts or the job's deadline.
//   - Drain cancels in-flight executions, re-queues them without
//     consuming an attempt, and stops the workers; Resume restarts them.
//     Nothing is lost across a drain/resume cycle.
package jobs

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"lowutil"
	"lowutil/internal/par"
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
	// Shards is the number of ordering shards and dispatch goroutines
	// (0 = 4). Jobs within one shard start in priority-then-submission
	// order.
	Shards int
	// Workers bounds concurrently executing jobs across all shards
	// (0 = Shards).
	Workers int
	// Depth bounds the total number of queued-but-not-terminal jobs; a
	// submission that would exceed it fails with ErrQueueFull (0 = 1024).
	Depth int
	// MaxAttempts bounds execution attempts per job, the first included
	// (0 = 4).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; attempt k waits
	// Base·2^(k-1), capped at MaxBackoff, plus a deterministic jitter of
	// up to half the delay derived from the job ID (0 = 25ms base, 2s cap).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxResults bounds the content-addressed result store (0 = 256).
	MaxResults int
	// MaxJobs bounds retained job records; submissions over the bound
	// evict the oldest terminal jobs first (0 = 4096).
	MaxJobs int
	// Executor runs the specs. Required.
	Executor Executor
	// Retryable optionally extends the transient classification: a
	// non-nil hook is consulted after IsTransient.
	Retryable func(error) bool
	// FaultHook, when non-nil, runs before every execution attempt and
	// its error (if any) replaces the attempt's outcome. Tests inject
	// cancels and evictions here; production configs leave it nil.
	FaultHook func(jobID string, attempt int) error
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
	Retries      int64 // transient failures that scheduled a backoff retry
	Requeued     int64 // in-flight jobs re-queued by a drain
	ResultHits   int64 // executions satisfied by the content-addressed store
	ResultMisses int64 // executions that ran the executor
	Evictions    int64 // results dropped by the store LRU bound
	Queued       int64 // jobs currently waiting (incl. retry backoff)
	Running      int64 // jobs currently executing
	Results      int   // results currently resident in the store
}

// Queue is the job queue. Create with New; submit with Submit; observe
// with Status, Events, and Stats; stop with Drain.
type Queue struct {
	cfg    Config
	pool   *par.Pool
	shards []*shard
	store  *store

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // submission order, for terminal-job eviction
	batches  map[string]*batchRecord
	seq      int64
	draining bool
	runCtx   context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	submitted, deduped, completed, failed    atomic.Int64
	retries, requeued                        atomic.Int64
	resultHits, resultMisses, storeEvictions atomic.Int64
	queued, running                          atomic.Int64
}

// batchRecord pins an idempotency key to the jobs it created, so a
// retried submission returns the same IDs without enqueuing anything.
type batchRecord struct {
	id  string
	sig string
	ids []string
}

// shard is one ordering domain: a priority heap plus a wakeup channel for
// its dispatch goroutine.
type shard struct {
	mu     sync.Mutex
	heap   jobHeap
	notify chan struct{}
}

func (s *shard) push(j *job) {
	s.mu.Lock()
	heap.Push(&s.heap, j)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// pop removes the best queued job, or returns nil when ctx ends. The
// ctx check comes first so a drain stops dispatch even while the heap is
// non-empty (drain re-queues in-flight jobs, which must not immediately
// re-dispatch).
func (s *shard) pop(ctx context.Context) *job {
	for {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		s.mu.Lock()
		if s.heap.Len() > 0 {
			j := heap.Pop(&s.heap).(*job)
			s.mu.Unlock()
			return j
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-ctx.Done():
			return nil
		}
	}
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
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Shards
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1024
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	q := &Queue{
		cfg:     cfg,
		store:   newStore(cfg.MaxResults),
		jobs:    make(map[string]*job),
		batches: make(map[string]*batchRecord),
		shards:  make([]*shard, cfg.Shards),
	}
	for i := range q.shards {
		q.shards[i] = &shard{notify: make(chan struct{}, 1)}
	}
	q.start()
	return q
}

// start launches the pool and the shard dispatchers. The draining flag,
// run context, and pool are all replaced under one critical section so
// concurrent Resume calls cannot both observe the drained state and
// double-start the dispatchers.
func (q *Queue) start() {
	q.mu.Lock()
	q.startLocked()
	q.mu.Unlock()
}

// startLocked is start with q.mu held.
func (q *Queue) startLocked() {
	q.draining = false
	q.runCtx, q.cancel = context.WithCancel(context.Background())
	ctx := q.runCtx
	q.pool = par.NewPool(q.cfg.Workers)
	pool := q.pool
	for _, s := range q.shards {
		q.wg.Add(1)
		go func(s *shard) {
			defer q.wg.Done()
			for {
				j := s.pop(ctx)
				if j == nil {
					return
				}
				if !pool.Do(func() { q.runJob(ctx, j) }) {
					// Pool closed under us: hand the job back untouched.
					q.requeueDrained(j)
					return
				}
			}
		}(s)
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
	// Deadline bounds the job's total lifetime from submission, across all
	// retry attempts (0 = no per-job deadline).
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
	if q.queued.Load()+q.running.Load()+int64(len(reqs)) > int64(q.cfg.Depth) {
		q.mu.Unlock()
		return "", nil, ErrQueueFull
	}
	now := time.Now()
	rec := &batchRecord{id: batchID, sig: sig, ids: make([]string, len(reqs))}
	created := make([]*job, len(reqs))
	subs := make([]Submitted, len(reqs))
	for i, r := range reqs {
		id := jobID(key, i, r.Spec)
		q.seq++
		j := newJob(id, batchID, i, r, q.seq, q.shardFor(id), now)
		q.jobs[id] = j
		rec.ids[i] = id
		created[i] = j
		subs[i] = Submitted{ID: id, Index: i}
	}
	q.order = append(q.order, created...)
	q.batches[key] = rec
	q.submitted.Add(int64(len(reqs)))
	q.queued.Add(int64(len(reqs)))
	q.gcLocked()
	q.mu.Unlock()

	for _, j := range created {
		q.shards[j.shard].push(j)
	}
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

func (q *Queue) shardFor(id string) int {
	f := fnv.New32a()
	f.Write([]byte(id))
	return int(f.Sum32() % uint32(len(q.shards)))
}

// runJob executes one attempt of j and decides its fate: done, failed,
// retry after backoff, or drain re-queue.
func (q *Queue) runJob(ctx context.Context, j *job) {
	q.queued.Add(-1)
	q.running.Add(1)
	defer q.running.Add(-1)

	j.mu.Lock()
	j.attempt++
	attempt := j.attempt
	j.state = StateRunning
	j.append(Event{Type: EventStarted, Attempt: attempt})
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

	var res *Result
	var err error
	if q.cfg.FaultHook != nil {
		err = q.cfg.FaultHook(j.id, attempt)
	}
	if err == nil {
		jctx := ctx
		if !j.deadline.IsZero() {
			var cancel context.CancelFunc
			jctx, cancel = context.WithDeadline(ctx, j.deadline)
			defer cancel()
		}
		res, err = q.cfg.Executor.Execute(jctx, j.spec)
	}
	if err == nil {
		q.storeEvictions.Add(int64(q.store.put(j.hash, res)))
		q.completed.Add(1)
		j.finish(res, nil, "")
		return
	}

	// A drain canceled the attempt: hand the job back to the queue with
	// the attempt refunded — drains must not eat retry budget.
	if ctx.Err() != nil && q.isDraining() {
		q.requeueDrained(j)
		return
	}

	deadlineExpired := !j.deadline.IsZero() && !time.Now().Before(j.deadline)
	retryable := IsTransient(err) || (q.cfg.Retryable != nil && q.cfg.Retryable(err))
	if retryable && !deadlineExpired && attempt < q.cfg.MaxAttempts {
		q.retries.Add(1)
		delay := q.backoff(j.id, attempt)
		j.transition(StateRetrying, Event{Type: EventRetrying, Attempt: attempt, Detail: delay.String()})
		q.queued.Add(1)
		time.AfterFunc(delay, func() {
			j.mu.Lock()
			j.state = StateQueued
			j.mu.Unlock()
			q.shards[j.shard].push(j)
		})
		return
	}

	code := errorCode(err)
	if deadlineExpired {
		code = "deadline"
	}
	q.failed.Add(1)
	j.finish(nil, &JobError{Code: code, Message: err.Error(), Retryable: retryable && code != "deadline"}, "")
}

// backoff computes attempt k's delay: Base·2^(k-1) capped at MaxBackoff,
// plus a deterministic jitter of up to half the delay derived from the job
// ID and attempt — deterministic so tests and event logs are stable, and
// spread across jobs so a burst of transient failures de-synchronizes.
func (q *Queue) backoff(id string, attempt int) time.Duration {
	d := q.cfg.BaseBackoff << (attempt - 1)
	if d > q.cfg.MaxBackoff || d <= 0 {
		d = q.cfg.MaxBackoff
	}
	f := fnv.New64a()
	fmt.Fprintf(f, "%s\x00%d", id, attempt)
	jitter := time.Duration(f.Sum64() % uint64(d/2+1))
	return d + jitter
}

// requeueDrained puts a job interrupted by a drain back into queued
// state. A job that was mid-execution gets its attempt refunded and moves
// from the running count back to queued; a job the dispatcher popped but
// never started is pushed back untouched.
func (q *Queue) requeueDrained(j *job) {
	j.mu.Lock()
	wasRunning := j.state == StateRunning
	if wasRunning && j.attempt > 0 {
		j.attempt--
	}
	j.state = StateQueued
	j.append(Event{Type: EventRequeued, Detail: "drain"})
	j.mu.Unlock()
	if wasRunning {
		q.queued.Add(1) // the matching running decrement is runJob's defer
	}
	q.requeued.Add(1)
	q.shards[j.shard].push(j)
}

func (q *Queue) isDraining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Drain stops the queue gracefully: in-flight executions are canceled and
// their jobs re-queued with the attempt refunded, dispatchers and workers
// exit, and every non-terminal job stays queued — Resume picks them all
// up. Drain blocks until the workers have exited and is idempotent.
func (q *Queue) Drain() {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.draining = true
	cancel := q.cancel
	pool := q.pool
	q.mu.Unlock()
	cancel()
	q.wg.Wait()
	pool.Close()
}

// Resume restarts a drained queue's workers; queued jobs (including those
// re-queued by the drain) execute as if never interrupted. The drained
// check and the restart happen atomically, so concurrent Resume calls
// start exactly one set of dispatchers.
func (q *Queue) Resume() {
	q.mu.Lock()
	if !q.draining {
		q.mu.Unlock()
		return
	}
	q.startLocked()
	q.mu.Unlock()
	// Wake every shard in case jobs were pushed while no dispatcher ran.
	for _, s := range q.shards {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
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
	return Stats{
		Submitted:    q.submitted.Load(),
		Deduped:      q.deduped.Load(),
		Completed:    q.completed.Load(),
		Failed:       q.failed.Load(),
		Retries:      q.retries.Load(),
		Requeued:     q.requeued.Load(),
		ResultHits:   q.resultHits.Load(),
		ResultMisses: q.resultMisses.Load(),
		Evictions:    q.storeEvictions.Load(),
		Queued:       q.queued.Load(),
		Running:      q.running.Load(),
		Results:      q.store.len(),
	}
}
