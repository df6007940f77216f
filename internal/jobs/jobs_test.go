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
	"lowutil/client"
)

// fakeResult encodes s as a job payload.
func fakeResult(s string) json.RawMessage {
	raw, _ := json.Marshal(s)
	return raw
}

// canceledBy is the envelope body the server's executor hands over for a
// run its context ended: retryable canceled, or deadline.
func canceledBy(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &client.ErrorBody{Code: "deadline", Message: ctx.Err().Error()}
	}
	return &client.ErrorBody{Code: "canceled", Message: ctx.Err().Error(), Retryable: true}
}

// countExec is an executor counting executions per spec source.
type countExec struct {
	calls atomic.Int64
	fail  func(spec lowutil.Request, call int64) error
}

func (e *countExec) Execute(ctx context.Context, spec lowutil.Request) (json.RawMessage, error) {
	n := e.calls.Add(1)
	if e.fail != nil {
		if err := e.fail(spec, n); err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		return nil, canceledBy(ctx)
	}
	return fakeResult(spec.Source), nil
}

func testSpec(src string) lowutil.Request { return lowutil.Request{Kind: lowutil.KindRun, Source: src} }

// waitTerminal polls until job id is terminal or the deadline passes.
func waitTerminal(t *testing.T, q *Queue, id string) *client.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := q.Status(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if st.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never became terminal", id)
	return nil
}

// TestSubmitRuns: every job of a batch runs once and completes with its
// executor's payload, under its spec's kind.
func TestSubmitRuns(t *testing.T) {
	exec := &countExec{}
	q := New(Config{Executor: exec})
	defer q.Drain()

	b, err := q.Submit("batch-1", []client.Job{
		{Spec: testSpec("a")}, {Spec: testSpec("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range b.Jobs {
		st := waitTerminal(t, q, s.ID)
		if st.State != client.StateDone || st.Result == nil {
			t.Fatalf("job %s: state=%s err=%+v", s.ID, st.State, st.Err)
		}
		if want := string(fakeResult([]string{"a", "b"}[i])); st.Result.Kind != lowutil.KindRun || string(st.Result.Payload) != want {
			t.Errorf("job %d: result %s %s, want %s %s", i, st.Result.Kind, st.Result.Payload, lowutil.KindRun, want)
		}
	}
	if n := exec.calls.Load(); n != 2 {
		t.Fatalf("executor ran %d times, want 2", n)
	}
}

// TestIdempotentSubmit: resubmitting the same key returns the same IDs
// without enqueuing; a different payload under the same key conflicts.
func TestIdempotentSubmit(t *testing.T) {
	q := New(Config{Executor: &countExec{}})
	defer q.Drain()

	reqs := []client.Job{{Spec: testSpec("x")}, {Spec: testSpec("y")}}
	b1, err := q.Submit("key", reqs)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := q.Submit("key", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if b1.ID != b2.ID {
		t.Errorf("batch IDs differ: %s vs %s", b1.ID, b2.ID)
	}
	subs1, subs2 := b1.Jobs, b2.Jobs
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
	if _, err := q.Submit("key", []client.Job{{Spec: testSpec("z")}}); !errors.Is(err, ErrBatchConflict) {
		t.Errorf("conflicting reuse: got %v, want ErrBatchConflict", err)
	}
}

// TestPermanentFailureNoRetry: an executor error fails the job after its
// one run. The queue does not classify errors: one that carries no
// envelope body fails with the non-retryable code internal, and one that
// carries a body fails with that body as it is.
func TestPermanentFailureNoRetry(t *testing.T) {
	body := &client.ErrorBody{Code: "compile_error", Message: "1:43: unexpected token ;", Line: 1, Col: 43}
	exec := &countExec{fail: func(spec lowutil.Request, _ int64) error {
		if spec.Source == "body" {
			return fmt.Errorf("wrapped: %w", body)
		}
		return errors.New("broken spec")
	}}
	q := New(Config{Executor: exec})
	defer q.Drain()

	b, _ := q.Submit("k", []client.Job{{Spec: testSpec("p")}, {Spec: testSpec("body")}})
	st := waitTerminal(t, q, b.Jobs[0].ID)
	if st.State != client.StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Err.Code != "internal" || st.Err.Retryable || st.Err.Message != "broken spec" {
		t.Errorf("err = %+v, want non-retryable internal", st.Err)
	}
	if st := waitTerminal(t, q, b.Jobs[1].ID); st.Err != body {
		t.Errorf("err = %+v, want the executor's body %+v", st.Err, body)
	}
	if n := exec.calls.Load(); n != 2 {
		t.Errorf("executor ran %d times, want 2 (one run per job)", n)
	}
}

// TestJobDeadline: a job runs under its per-job deadline, so an executor
// that outlives it fails the job with the non-retryable code "deadline".
func TestJobDeadline(t *testing.T) {
	block := make(chan struct{})
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (json.RawMessage, error) {
		select {
		case <-ctx.Done():
			return nil, canceledBy(ctx)
		case <-block:
			return fakeResult(spec.Source), nil
		}
	})
	q := New(Config{Executor: exec})
	defer q.Drain()
	defer close(block)

	b, _ := q.Submit("k", []client.Job{{Spec: testSpec("slow"), DeadlineMS: 30}})
	st := waitTerminal(t, q, b.Jobs[0].ID)
	if st.State != client.StateFailed || st.Err == nil || st.Err.Code != "deadline" {
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
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (json.RawMessage, error) {
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

	if _, err := q.Submit("gate", []client.Job{{Spec: testSpec("gate")}}); err != nil {
		t.Fatal(err)
	}
	<-gateStarted
	var ids []string
	for _, batch := range [][]client.Job{
		{{Spec: testSpec("low"), Priority: 1}, {Spec: testSpec("mid-1"), Priority: 5}},
		{{Spec: testSpec("high-1"), Priority: 9}, {Spec: testSpec("mid-2"), Priority: 5}, {Spec: testSpec("zero")}},
		{{Spec: testSpec("mid-3"), Priority: 5}, {Spec: testSpec("high-2"), Priority: 9}},
	} {
		b, err := q.Submit(fmt.Sprintf("work-%d", len(ids)), batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Jobs {
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
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (json.RawMessage, error) {
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

	reqs := make([]client.Job, 2*workers)
	for i := range reqs {
		reqs[i] = client.Job{Spec: testSpec(fmt.Sprintf("job %d", i))}
	}
	b, err := q.Submit("parallel", reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range b.Jobs {
		if st := waitTerminal(t, q, s.ID); st.State != client.StateDone {
			t.Errorf("job %s: state=%s err=%+v", s.ID, st.State, st.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak != workers {
		t.Errorf("peak concurrency %d, want exactly Workers = %d", peak, workers)
	}
}

// blockUntilCanceled is an executor that signals started and runs until
// its context ends.
func blockUntilCanceled(started chan<- struct{}) Executor {
	return ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (json.RawMessage, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, canceledBy(ctx)
	})
}

// eventTypes replays job id's events and joins their types.
func eventTypes(t *testing.T, q *Queue, id string) string {
	t.Helper()
	var types []string
	if err := q.Events(context.Background(), id, 0, func(ev client.Event) error {
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return strings.Join(types, ",")
}

// TestDrainCancelsInFlight: a drain cancels the running job, which fails
// with the retryable code canceled and so ends its event stream, and fails
// the job queued behind it with the same code, before it ever started.
func TestDrainCancelsInFlight(t *testing.T) {
	started := make(chan struct{}, 2)
	q := New(Config{Executor: blockUntilCanceled(started), Workers: 1})
	b, err := q.Submit("k", []client.Job{{Spec: testSpec("running")}, {Spec: testSpec("queued")}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the one worker starts only the first job
	q.Drain()

	for i, want := range []string{"queued,started,failed", "queued,failed"} {
		st, _ := q.Status(b.Jobs[i].ID)
		if st.State != client.StateFailed || st.Err == nil || st.Err.Code != "canceled" || !st.Err.Retryable {
			t.Fatalf("drained job %d: state=%s err=%+v, want failed with retryable canceled", i, st.State, st.Err)
		}
		if got := eventTypes(t, q, b.Jobs[i].ID); got != want {
			t.Errorf("drained job %d's events = %s, want %s", i, got, want)
		}
	}
	if stats := q.Stats(); stats.Running != 0 || stats.Queued != 0 || stats.Failed != 2 {
		t.Errorf("stats after drain: %+v, want 0 running, 0 queued, 2 failed", stats)
	}
	q.Drain() // idempotent
}

// TestDrainEndsFollowedQueuedJob: a client following a queued job's
// events returns when the queue drains, with the job's last event failed
// with code canceled. No worker is left to run the job, so a follower the
// drain left waiting would wait forever.
func TestDrainEndsFollowedQueuedJob(t *testing.T) {
	started := make(chan struct{}, 2)
	q := New(Config{Executor: blockUntilCanceled(started), Workers: 1})
	b, err := q.Submit("k", []client.Job{{Spec: testSpec("spin 1")}, {Spec: testSpec("spin 2")}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	following := make(chan struct{})
	followed := make(chan error, 1)
	var last client.Event
	go func() {
		followed <- q.Events(ctx, b.Jobs[1].ID, 0, func(ev client.Event) error {
			if ev.Type == client.EventQueued {
				close(following)
			}
			last = ev
			return nil
		})
	}()
	<-following
	q.Drain()
	if err := <-followed; err != nil {
		t.Fatalf("follower of the queued job: %v", err)
	}
	if last.Type != client.EventFailed || !strings.HasPrefix(last.Detail, "canceled: ") {
		t.Errorf("follower's last event = %+v, want failed with code canceled", last)
	}
}

// TestSubmitAfterDrain: a batch submitted to a drained queue is accepted
// and fails at once with code canceled, so no job stays queued with no
// worker left to run it, and a resubmission still deduplicates.
func TestSubmitAfterDrain(t *testing.T) {
	exec := &countExec{}
	q := New(Config{Executor: exec})
	q.Drain()
	b, err := q.Submit("late", []client.Job{{Spec: testSpec("late")}})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := q.Status(b.Jobs[0].ID)
	if st.State != client.StateFailed || st.Err == nil || st.Err.Code != "canceled" || !st.Err.Retryable {
		t.Fatalf("job submitted after the drain: state=%s err=%+v, want failed with retryable canceled", st.State, st.Err)
	}
	if got, want := eventTypes(t, q, b.Jobs[0].ID), "queued,failed"; got != want {
		t.Errorf("events = %s, want %s", got, want)
	}
	if again, err := q.Submit("late", []client.Job{{Spec: testSpec("late")}}); err != nil || !again.Jobs[0].Duplicate {
		t.Errorf("resubmission after the drain: %+v, %v; want the same job, flagged duplicate", again, err)
	}
	if stats := q.Stats(); stats.Queued != 0 || stats.Failed != 1 || exec.calls.Load() != 0 {
		t.Errorf("stats %+v after %d runs, want nothing queued or run and 1 failed", stats, exec.calls.Load())
	}
}

// TestEventsReplayDeterministic: two full replays of a finished job's
// stream are identical, and replay-from-seq resumes mid-stream.
func TestEventsReplayDeterministic(t *testing.T) {
	q := New(Config{Executor: &countExec{}})
	defer q.Drain()
	batch, _ := q.Submit("k", []client.Job{{Spec: testSpec("e")}})
	id := batch.Jobs[0].ID
	waitTerminal(t, q, id)

	replay := func(after int) []string {
		var out []string
		if err := q.Events(context.Background(), id, after, func(ev client.Event) error {
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
		var ev client.Event
		json.Unmarshal([]byte(line), &ev)
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestQueueFull: a batch that would take the jobs queued or running past
// Depth is refused whole with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	exec := ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (json.RawMessage, error) {
		<-block
		return fakeResult(spec.Source), nil
	})
	q := New(Config{Executor: exec, Workers: 1})
	defer q.Drain()
	defer close(block)

	batch := func(n int) []client.Job {
		reqs := make([]client.Job, n)
		for i := range reqs {
			reqs[i] = client.Job{Spec: testSpec(fmt.Sprint(i))}
		}
		return reqs
	}
	if _, err := q.Submit("over", batch(Depth+1)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("a batch of Depth+1: got %v, want ErrQueueFull", err)
	}
	if _, err := q.Submit("a", batch(Depth)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("b", batch(1)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("a submit past Depth: got %v, want ErrQueueFull", err)
	}
	if st := q.Stats(); st.Submitted != Depth {
		t.Errorf("submitted = %d, want the one accepted batch of %d", st.Submitted, Depth)
	}
}

// TestBatchStatus: batch lookup returns every job in submission order.
func TestBatchStatus(t *testing.T) {
	q := New(Config{Executor: &countExec{}})
	defer q.Drain()
	b, _ := q.Submit("k", []client.Job{{Spec: testSpec("1")}, {Spec: testSpec("2")}, {Spec: testSpec("3")}})
	for _, s := range b.Jobs {
		waitTerminal(t, q, s.ID)
	}
	bs, ok := q.BatchStatus(b.ID)
	if !ok || bs.ID != b.ID || len(bs.Jobs) != 3 {
		t.Fatalf("batch status: ok=%v %+v", ok, bs)
	}
	for i, st := range bs.Jobs {
		if st.Index != i || st.State != client.StateDone {
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
	b, _ := q.Submit("k", []client.Job{{Spec: testSpec("n")}})
	id := b.Jobs[0].ID
	waitTerminal(t, q, id)

	var full, neg int
	if err := q.Events(context.Background(), id, 0, func(client.Event) error { full++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := q.Events(context.Background(), id, -7, func(client.Event) error { neg++; return nil }); err != nil {
		t.Fatal(err)
	}
	if full == 0 || neg != full {
		t.Errorf("negative after replayed %d events, want %d (full trail)", neg, full)
	}
}

// TestBatchRecordGC: batch records whose jobs have all been evicted by the
// record bound are dropped too — one record per idempotency key must not
// accumulate forever.
func TestBatchRecordGC(t *testing.T) {
	q := New(Config{Executor: &countExec{}})
	q.maxJobs = 4
	defer q.Drain()

	const batches = 24
	for i := 0; i < batches; i++ {
		b, err := q.Submit(fmt.Sprintf("key-%d", i), []client.Job{{Spec: testSpec(fmt.Sprintf("src-%d", i))}})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, q, b.Jobs[0].ID)
	}
	// One more submission triggers GC over the fully-terminal backlog.
	b, err := q.Submit("key-final", []client.Job{{Spec: testSpec("final")}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, b.Jobs[0].ID)

	q.mu.Lock()
	nBatches, nJobs := len(q.batches), len(q.jobs)
	q.mu.Unlock()
	if nJobs > 4+1 {
		t.Errorf("job records = %d, want ≤ the bound+1", nJobs)
	}
	// Every retained batch must reference at least one live job record.
	if nBatches > nJobs {
		t.Errorf("batch records = %d outlive the %d job records; q.batches is leaking", nBatches, nJobs)
	}
}

// gateExec holds the only worker on the spec "gate" until release is
// closed or a drain cancels it, and records the order the other specs run
// in.
type gateExec struct {
	started, release chan struct{}
	mu               sync.Mutex
	ran              []string
}

func newGateExec() *gateExec {
	return &gateExec{started: make(chan struct{}), release: make(chan struct{})}
}

func (e *gateExec) Execute(ctx context.Context, spec lowutil.Request) (json.RawMessage, error) {
	if spec.Source == "gate" {
		close(e.started)
		select {
		case <-e.release:
		case <-ctx.Done():
			return nil, canceledBy(ctx)
		}
	} else {
		e.mu.Lock()
		e.ran = append(e.ran, spec.Source)
		e.mu.Unlock()
	}
	return fakeResult(spec.Source), nil
}

// submitOne submits one job under key src and returns its ID.
func submitOne(t *testing.T, q *Queue, src string, priority int) string {
	t.Helper()
	b, err := q.Submit(src, []client.Job{{Spec: testSpec(src), Priority: priority}})
	if err != nil {
		t.Fatal(err)
	}
	return b.Jobs[0].ID
}

// waitRetired polls until n finished jobs are queued for eviction: a
// worker queues a job just after the job finishes.
func waitRetired(t *testing.T, q *Queue, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		q.mu.Lock()
		got := len(q.done)
		q.mu.Unlock()
		if got >= n {
			return
		}
	}
	t.Fatalf("fewer than %d finished jobs queued for eviction", n)
}

// TestGCKeepsUnfinishedJobs: however far the records exceed the bound, a
// queued or running job's record, and its batch record, stay.
func TestGCKeepsUnfinishedJobs(t *testing.T) {
	exec := newGateExec()
	q := New(Config{Executor: exec, Workers: 1})
	q.maxJobs = 1
	defer q.Drain()

	ids := []string{submitOne(t, q, "gate", 0)} // running
	<-exec.started
	for i := range 5 {
		ids = append(ids, submitOne(t, q, fmt.Sprintf("queued-%d", i), 0))
	}
	for i, id := range ids {
		st, ok := q.Status(id)
		if !ok {
			t.Fatalf("job %d evicted before it finished", i)
		}
		if _, ok := q.BatchStatus(st.Batch); !ok {
			t.Errorf("batch of job %d dropped before the job finished", i)
		}
	}
	close(exec.release)
	for _, id := range ids {
		waitTerminal(t, q, id)
	}
}

// TestGCEvictsFirstFinishedFirst: eviction takes terminal records in the
// order the jobs finished, not the order they were submitted. Behind a
// gate job, "low" is submitted before "high" but finishes after it.
func TestGCEvictsFirstFinishedFirst(t *testing.T) {
	exec := newGateExec()
	q := New(Config{Executor: exec, Workers: 1})
	q.maxJobs = 2
	defer q.Drain()

	gate := submitOne(t, q, "gate", 0)
	<-exec.started
	low, high := submitOne(t, q, "low", 1), submitOne(t, q, "high", 2)
	close(exec.release)
	waitRetired(t, q, 3)
	if got := strings.Join(exec.ran, ","); got != "high,low" {
		t.Fatalf("ran %s, want high,low", got)
	}

	// Four records over a bound of two: the first two to finish go.
	last := submitOne(t, q, "last", 0)
	for _, c := range []struct {
		name, id string
		kept     bool
	}{{"gate", gate, false}, {"high", high, false}, {"low", low, true}, {"last", last, true}} {
		if _, ok := q.Status(c.id); ok != c.kept {
			t.Errorf("%s: on record = %v, want %v", c.name, ok, c.kept)
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.batches) != 2 || len(q.batchByID) != 2 {
		t.Errorf("batch records: %d by key, %d by ID, want the two of the jobs on record", len(q.batches), len(q.batchByID))
	}
}
