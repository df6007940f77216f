package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowutil"
)

// fakeResult wraps s as a Result payload.
func fakeResult(s string) *Result {
	raw, _ := json.Marshal(s)
	return &Result{Kind: "test", Payload: raw}
}

// countExec is an executor counting executions per spec source.
type countExec struct {
	calls atomic.Int64
	fail  func(spec lowutil.Request, call int64) error
}

func (e *countExec) Execute(ctx context.Context, spec lowutil.Request) (*Result, error) {
	n := e.calls.Add(1)
	if e.fail != nil {
		if err := e.fail(spec, n); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", lowutil.ErrCanceled, err)
	}
	return fakeResult(spec.Source), nil
}

func testSpec(src string) lowutil.Request { return lowutil.Request{Kind: lowutil.KindRun, Source: src} }

// waitTerminal polls until job id is terminal or the deadline passes.
func waitTerminal(t *testing.T, q *Queue, id string) *Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := q.Status(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never became terminal", id)
	return nil
}

// TestSubmitRunsAndStores: a batch completes, results land in the store,
// and an identical spec in a later batch is served from the store.
func TestSubmitRunsAndStores(t *testing.T) {
	exec := &countExec{}
	q := New(Config{Executor: exec, Shards: 2})
	defer q.Drain()

	_, subs, err := q.Submit("batch-1", []Request{
		{Spec: testSpec("a")}, {Spec: testSpec("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		st := waitTerminal(t, q, s.ID)
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("job %s: state=%s err=%+v", s.ID, st.State, st.Err)
		}
	}
	if n := exec.calls.Load(); n != 2 {
		t.Fatalf("executor ran %d times, want 2", n)
	}

	// Same spec, new batch: store hit, no third execution.
	_, subs2, err := q.Submit("batch-2", []Request{{Spec: testSpec("a")}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, q, subs2[0].ID)
	if st.State != StateDone {
		t.Fatalf("state %s", st.State)
	}
	if n := exec.calls.Load(); n != 2 {
		t.Errorf("executor ran %d times after store hit, want 2", n)
	}
	if stats := q.Stats(); stats.ResultHits != 1 {
		t.Errorf("result hits = %d, want 1", stats.ResultHits)
	}
}

// TestIdempotentSubmit: resubmitting the same key returns the same IDs
// without enqueuing; a different payload under the same key conflicts.
func TestIdempotentSubmit(t *testing.T) {
	q := New(Config{Executor: &countExec{}})
	defer q.Drain()

	reqs := []Request{{Spec: testSpec("x")}, {Spec: testSpec("y")}}
	b1, subs1, err := q.Submit("key", reqs)
	if err != nil {
		t.Fatal(err)
	}
	b2, subs2, err := q.Submit("key", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Errorf("batch IDs differ: %s vs %s", b1, b2)
	}
	for i := range subs1 {
		if subs1[i].ID != subs2[i].ID {
			t.Errorf("job %d: IDs differ: %s vs %s", i, subs1[i].ID, subs2[i].ID)
		}
		if !subs2[i].Duplicate {
			t.Errorf("job %d: resubmission not marked duplicate", i)
		}
	}
	if st := q.Stats(); st.Submitted != 2 || st.Deduped != 2 {
		t.Errorf("submitted=%d deduped=%d, want 2/2", st.Submitted, st.Deduped)
	}
	if _, _, err := q.Submit("key", []Request{{Spec: testSpec("z")}}); !errors.Is(err, ErrBatchConflict) {
		t.Errorf("conflicting reuse: got %v, want ErrBatchConflict", err)
	}
}

// TestRetryBackoff: transient failures are retried with backoff until
// success; the event log shows the retry trail in order.
func TestRetryBackoff(t *testing.T) {
	exec := &countExec{}
	exec.fail = func(spec lowutil.Request, call int64) error {
		if call <= 2 {
			return Transient(errors.New("flaky"))
		}
		return nil
	}
	q := New(Config{Executor: exec, Shards: 1, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	defer q.Drain()

	_, subs, err := q.Submit("k", []Request{{Spec: testSpec("r")}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, q, subs[0].ID)
	if st.State != StateDone {
		t.Fatalf("state=%s err=%+v", st.State, st.Err)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
	var types []string
	if err := q.Events(context.Background(), subs[0].ID, 0, func(ev Event) error {
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{EventQueued, EventStarted, EventRetrying, EventStarted, EventRetrying, EventStarted, EventDone}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("event trail = %v, want %v", types, want)
	}
	if stats := q.Stats(); stats.Retries != 2 {
		t.Errorf("retries = %d, want 2", stats.Retries)
	}
}

// TestRetryExhaustion: a persistently transient failure fails after
// MaxAttempts with a retryable error code.
func TestRetryExhaustion(t *testing.T) {
	exec := &countExec{fail: func(lowutil.Request, int64) error { return Transient(errors.New("always down")) }}
	q := New(Config{Executor: exec, MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	defer q.Drain()

	_, subs, _ := q.Submit("k", []Request{{Spec: testSpec("f")}})
	st := waitTerminal(t, q, subs[0].ID)
	if st.State != StateFailed || st.Err == nil {
		t.Fatalf("state=%s err=%+v, want failed", st.State, st.Err)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
	if !st.Err.Retryable {
		t.Errorf("exhausted transient failure should stay marked retryable: %+v", st.Err)
	}
	if n := exec.calls.Load(); n != 3 {
		t.Errorf("executor ran %d times, want 3", n)
	}
}

// TestPermanentFailureNoRetry: a non-transient error fails immediately.
func TestPermanentFailureNoRetry(t *testing.T) {
	exec := &countExec{fail: func(lowutil.Request, int64) error { return errors.New("broken spec") }}
	q := New(Config{Executor: exec})
	defer q.Drain()

	_, subs, _ := q.Submit("k", []Request{{Spec: testSpec("p")}})
	st := waitTerminal(t, q, subs[0].ID)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Attempts != 1 || exec.calls.Load() != 1 {
		t.Errorf("attempts=%d calls=%d, want 1/1", st.Attempts, exec.calls.Load())
	}
	if st.Err.Code != "internal" || st.Err.Retryable {
		t.Errorf("err = %+v, want non-retryable internal", st.Err)
	}
}

// TestJobDeadline: a job whose per-job deadline expires fails with code
// "deadline" and is not retried past it.
func TestJobDeadline(t *testing.T) {
	block := make(chan struct{})
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (*Result, error) {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", lowutil.ErrCanceled, ctx.Err())
		case <-block:
			return fakeResult(spec.Source), nil
		}
	})
	q := New(Config{Executor: exec, BaseBackoff: time.Millisecond})
	defer q.Drain()
	defer close(block)

	_, subs, _ := q.Submit("k", []Request{{Spec: testSpec("slow"), Deadline: 30 * time.Millisecond}})
	st := waitTerminal(t, q, subs[0].ID)
	if st.State != StateFailed || st.Err == nil || st.Err.Code != "deadline" {
		t.Fatalf("state=%s err=%+v, want deadline failure", st.State, st.Err)
	}
	if st.Err.Retryable {
		t.Error("deadline failures must not be retryable")
	}
}

// TestPriorityOrdering: with one shard and one worker, higher-priority
// jobs start before lower-priority ones submitted earlier.
func TestPriorityOrdering(t *testing.T) {
	var order []string
	started := make(chan string, 8)
	gate := make(chan struct{})
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (*Result, error) {
		if spec.Source == "gate" {
			<-gate // hold the only worker so the rest queue up
		} else {
			started <- spec.Source
		}
		return fakeResult(spec.Source), nil
	})
	q := New(Config{Executor: exec, Shards: 1, Workers: 1})
	defer q.Drain()

	if _, _, err := q.Submit("gate", []Request{{Spec: testSpec("gate")}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the gate job occupy the worker
	_, subs, err := q.Submit("work", []Request{
		{Spec: testSpec("low"), Priority: 1},
		{Spec: testSpec("mid"), Priority: 5},
		{Spec: testSpec("high"), Priority: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	for _, s := range subs {
		waitTerminal(t, q, s.ID)
	}
	close(started)
	for src := range started {
		order = append(order, src)
	}
	if strings.Join(order, ",") != "high,mid,low" {
		t.Errorf("start order = %v, want high,mid,low", order)
	}
}

// TestDrainRequeuesInFlight: draining cancels a running job, re-queues it
// without consuming an attempt, and Resume completes it.
func TestDrainRequeuesInFlight(t *testing.T) {
	release := make(chan struct{})
	var interrupted atomic.Bool
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (*Result, error) {
		select {
		case <-ctx.Done():
			interrupted.Store(true)
			return nil, fmt.Errorf("%w: %w", lowutil.ErrCanceled, ctx.Err())
		case <-release:
			return fakeResult(spec.Source), nil
		}
	})
	q := New(Config{Executor: exec, Shards: 1, Workers: 1})

	_, subs, err := q.Submit("k", []Request{{Spec: testSpec("d")}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to be running, then drain under it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := q.Status(subs[0].ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	q.Drain()
	if !interrupted.Load() {
		t.Fatal("drain did not cancel the in-flight execution")
	}
	st, _ := q.Status(subs[0].ID)
	if st.State != StateQueued {
		t.Fatalf("after drain: state = %s, want queued", st.State)
	}
	if st.Attempts != 0 {
		t.Errorf("after drain: attempts = %d, want 0 (refunded)", st.Attempts)
	}
	if stats := q.Stats(); stats.Requeued != 1 {
		t.Errorf("requeued = %d, want 1", stats.Requeued)
	}

	close(release)
	q.Resume()
	defer q.Drain()
	fin := waitTerminal(t, q, subs[0].ID)
	if fin.State != StateDone {
		t.Fatalf("after resume: state=%s err=%+v", fin.State, fin.Err)
	}
}

// TestEventsReplayDeterministic: two full replays of a finished job's
// stream are identical, and replay-from-seq resumes mid-stream.
func TestEventsReplayDeterministic(t *testing.T) {
	exec := &countExec{}
	exec.fail = func(spec lowutil.Request, call int64) error {
		if call == 1 {
			return Transient(errors.New("blip"))
		}
		return nil
	}
	q := New(Config{Executor: exec, BaseBackoff: time.Millisecond})
	defer q.Drain()
	_, subs, _ := q.Submit("k", []Request{{Spec: testSpec("e")}})
	waitTerminal(t, q, subs[0].ID)

	replay := func(after int) []string {
		var out []string
		if err := q.Events(context.Background(), subs[0].ID, after, func(ev Event) error {
			b, _ := json.Marshal(ev)
			out = append(out, string(b))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := replay(0), replay(0)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("replays differ:\n%v\nvs\n%v", a, b)
	}
	if len(a) < 4 {
		t.Fatalf("expected a retry trail, got %v", a)
	}
	// Resuming after seq 2 yields exactly the tail.
	tail := replay(2)
	if strings.Join(tail, "\n") != strings.Join(a[2:], "\n") {
		t.Errorf("resumed replay differs:\n%v\nvs\n%v", tail, a[2:])
	}
	// Sequence numbers are dense from 1.
	for i, line := range a {
		var ev Event
		json.Unmarshal([]byte(line), &ev)
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestQueueFull: submissions over Depth are rejected with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (*Result, error) {
		<-block
		return fakeResult(spec.Source), nil
	})
	q := New(Config{Executor: exec, Shards: 1, Workers: 1, Depth: 2})
	defer q.Drain()
	defer close(block)

	if _, _, err := q.Submit("a", []Request{{Spec: testSpec("1")}, {Spec: testSpec("2")}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit("b", []Request{{Spec: testSpec("3")}}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over-depth submit: got %v, want ErrQueueFull", err)
	}
}

// TestEvictedResultRecomputes: evicting a stored result forces the next
// identical spec to execute again.
func TestEvictedResultRecomputes(t *testing.T) {
	exec := &countExec{}
	q := New(Config{Executor: exec})
	defer q.Drain()

	spec := testSpec("v")
	_, subs, _ := q.Submit("k1", []Request{{Spec: spec}})
	waitTerminal(t, q, subs[0].ID)
	if !q.EvictResult(spec) {
		t.Fatal("expected a resident result to evict")
	}
	_, subs2, _ := q.Submit("k2", []Request{{Spec: spec}})
	st := waitTerminal(t, q, subs2[0].ID)
	if st.State != StateDone {
		t.Fatalf("state=%s", st.State)
	}
	if n := exec.calls.Load(); n != 2 {
		t.Errorf("executor ran %d times, want 2 (eviction forces recompute)", n)
	}
}

// TestBatchStatus: batch lookup returns every job in submission order.
func TestBatchStatus(t *testing.T) {
	q := New(Config{Executor: &countExec{}})
	defer q.Drain()
	batch, subs, _ := q.Submit("k", []Request{{Spec: testSpec("1")}, {Spec: testSpec("2")}, {Spec: testSpec("3")}})
	for _, s := range subs {
		waitTerminal(t, q, s.ID)
	}
	sts, ok := q.BatchStatus(batch)
	if !ok || len(sts) != 3 {
		t.Fatalf("batch status: ok=%v n=%d", ok, len(sts))
	}
	for i, st := range sts {
		if st.Index != i || st.State != StateDone {
			t.Errorf("job %d: index=%d state=%s", i, st.Index, st.State)
		}
	}
	if _, ok := q.BatchStatus("bmissing"); ok {
		t.Error("unknown batch reported ok")
	}
}

// TestEventsNegativeAfter: a negative resume point replays from the start
// instead of panicking with a slice bounds error (it reaches Events
// unvalidated from GET /v2/jobs/{id}/events?after=-1).
func TestEventsNegativeAfter(t *testing.T) {
	q := New(Config{Executor: &countExec{}})
	defer q.Drain()
	_, subs, _ := q.Submit("k", []Request{{Spec: testSpec("n")}})
	waitTerminal(t, q, subs[0].ID)

	var full, neg int
	if err := q.Events(context.Background(), subs[0].ID, 0, func(Event) error { full++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := q.Events(context.Background(), subs[0].ID, -7, func(Event) error { neg++; return nil }); err != nil {
		t.Fatal(err)
	}
	if full == 0 || neg != full {
		t.Errorf("negative after replayed %d events, want %d (full trail)", neg, full)
	}
}

// TestBatchRecordGC: batch records whose jobs have all been evicted by the
// MaxJobs bound are dropped too — one record per idempotency key must not
// accumulate forever.
func TestBatchRecordGC(t *testing.T) {
	q := New(Config{Executor: &countExec{}, MaxJobs: 4})
	defer q.Drain()

	const batches = 24
	for i := 0; i < batches; i++ {
		_, subs, err := q.Submit(fmt.Sprintf("key-%d", i), []Request{{Spec: testSpec(fmt.Sprintf("src-%d", i))}})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, q, subs[0].ID)
	}
	// One more submission triggers GC over the fully-terminal backlog.
	_, subs, err := q.Submit("key-final", []Request{{Spec: testSpec("final")}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, subs[0].ID)

	q.mu.Lock()
	nBatches, nJobs := len(q.batches), len(q.jobs)
	q.mu.Unlock()
	if nJobs > 4+1 {
		t.Errorf("job records = %d, want ≤ MaxJobs+1", nJobs)
	}
	// Every retained batch must reference at least one live job record.
	if nBatches > nJobs {
		t.Errorf("batch records = %d outlive the %d job records; q.batches is leaking", nBatches, nJobs)
	}
}

// TestConcurrentResume: racing Resume calls after a drain must start
// exactly one dispatcher set — a double start leaks the first run context
// and its workers, deadlocking the next Drain.
func TestConcurrentResume(t *testing.T) {
	q := New(Config{Executor: &countExec{}, Shards: 2})
	q.Drain()

	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			q.Resume()
		}()
	}
	close(gate)
	wg.Wait()

	_, subs, err := q.Submit("after-resume", []Request{{Spec: testSpec("r")}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q, subs[0].ID); st.State != StateDone {
		t.Fatalf("state=%s err=%+v", st.State, st.Err)
	}
	done := make(chan struct{})
	go func() { q.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung: leaked dispatchers from a double Resume")
	}
}
