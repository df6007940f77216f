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
	q := New(Config{Executor: exec})
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

// TestPermanentFailureNoRetry: an executor error fails the job after its
// one attempt, with a code that is not retryable.
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

// TestJobDeadline: a job whose per-job deadline expires fails with the
// non-retryable code "deadline".
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
	q := New(Config{Executor: exec})
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

// TestPriorityOrdering: with one worker, jobs submitted while a gate job
// holds it start in priority order, then submission order, across
// batches: the heap is global.
func TestPriorityOrdering(t *testing.T) {
	gateStarted := make(chan struct{})
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (*Result, error) {
		if spec.Source == "gate" {
			close(gateStarted)
			<-gate // hold the only worker so the rest queue up
		} else {
			mu.Lock()
			order = append(order, spec.Source)
			mu.Unlock()
		}
		return fakeResult(spec.Source), nil
	})
	q := New(Config{Executor: exec, Workers: 1})
	defer q.Drain()

	if _, _, err := q.Submit("gate", []Request{{Spec: testSpec("gate")}}); err != nil {
		t.Fatal(err)
	}
	<-gateStarted
	var ids []string
	for _, batch := range [][]Request{
		{{Spec: testSpec("low"), Priority: 1}, {Spec: testSpec("mid-1"), Priority: 5}},
		{{Spec: testSpec("high-1"), Priority: 9}, {Spec: testSpec("mid-2"), Priority: 5}, {Spec: testSpec("zero")}},
		{{Spec: testSpec("mid-3"), Priority: 5}, {Spec: testSpec("high-2"), Priority: 9}},
	} {
		_, subs, err := q.Submit(fmt.Sprintf("work-%d", len(ids)), batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			ids = append(ids, s.ID)
		}
	}
	close(gate)
	for _, id := range ids {
		waitTerminal(t, q, id)
	}
	want := "high-1,high-2,mid-1,mid-2,mid-3,low,zero"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("start order = %s, want %s", got, want)
	}
}

// TestWorkersBoundParallelism: Workers is the number of jobs that run at
// once. Executor calls return in waves of eight, each wave only once its
// eighth call has arrived, so a 16-job batch at Workers 8 completes only
// if eight jobs really run together; a call left waiting fails its job.
func TestWorkersBoundParallelism(t *testing.T) {
	const workers = 8
	var mu sync.Mutex
	arrived, inFlight, peak := 0, 0, 0
	wave := make(chan struct{})
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (*Result, error) {
		mu.Lock()
		arrived++
		inFlight++
		peak = max(peak, inFlight)
		mine := wave
		if arrived%workers == 0 {
			close(wave)
			wave = make(chan struct{})
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		select {
		case <-mine:
			return fakeResult(spec.Source), nil
		case <-time.After(5 * time.Second):
			return nil, errors.New("fewer than eight calls in flight")
		}
	})
	q := New(Config{Executor: exec, Workers: workers})
	defer q.Drain()

	reqs := make([]Request, 2*workers)
	for i := range reqs {
		reqs[i] = Request{Spec: testSpec(fmt.Sprintf("job %d", i))}
	}
	_, subs, err := q.Submit("parallel", reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if st := waitTerminal(t, q, s.ID); st.State != StateDone {
			t.Errorf("job %s: state=%s err=%+v", s.ID, st.State, st.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak != workers {
		t.Errorf("peak concurrency %d, want exactly Workers = %d", peak, workers)
	}
}

// TestDrainCancelsInFlight: a drain cancels the running job, which fails
// with the retryable code canceled and so ends its event stream, while a
// job queued behind it stays queued.
func TestDrainCancelsInFlight(t *testing.T) {
	started := make(chan struct{})
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (*Result, error) {
		close(started) // the one worker starts only the first job
		<-ctx.Done()
		return nil, fmt.Errorf("%w: %w", lowutil.ErrCanceled, ctx.Err())
	})
	q := New(Config{Executor: exec, Workers: 1})
	_, subs, err := q.Submit("k", []Request{{Spec: testSpec("running")}, {Spec: testSpec("queued")}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	q.Drain()

	st, _ := q.Status(subs[0].ID)
	if st.State != StateFailed || st.Err == nil || st.Err.Code != "canceled" || !st.Err.Retryable {
		t.Fatalf("drained job: state=%s err=%+v, want failed with retryable canceled", st.State, st.Err)
	}
	var types []string
	if err := q.Events(context.Background(), subs[0].ID, 0, func(ev Event) error {
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(types, ","), "queued,started,failed"; got != want {
		t.Errorf("drained job's events = %s, want %s", got, want)
	}
	if st, _ := q.Status(subs[1].ID); st.State != StateQueued || st.Attempts != 0 {
		t.Errorf("queued job after drain: state=%s attempts=%d, want queued, never started", st.State, st.Attempts)
	}
	if stats := q.Stats(); stats.Running != 0 || stats.Queued != 1 || stats.Failed != 1 {
		t.Errorf("stats after drain: %+v, want 0 running, 1 queued, 1 failed", stats)
	}
	q.Drain() // idempotent
}

// TestEventsReplayDeterministic: two full replays of a finished job's
// stream are identical, and replay-from-seq resumes mid-stream.
func TestEventsReplayDeterministic(t *testing.T) {
	q := New(Config{Executor: &countExec{}})
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
	if len(a) != 3 {
		t.Fatalf("want the queued, started, done trail, got %v", a)
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
	q := New(Config{Executor: exec, Workers: 1, Depth: 2})
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
