package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lowutil"
	"lowutil/client"
	"lowutil/internal/jobs"
	"lowutil/internal/server"
	"lowutil/internal/workloads"
)

const workSrc = `
class Box { int v; }
class Main {
  static void main() {
    int total = 0;
    for (int i = 0; i < 50; i = i + 1) {
      Box b = new Box();
      b.v = i;
      total = total + b.v;
    }
    print(total);
  }
}`

const spinSrc = `
class Main {
  static void main() {
    int i = 0;
    while (true) { i = i + 1; }
  }
}`

// newService builds a service with cfg and returns its base URL plus the
// underlying *server.Server for drains.
func newService(t *testing.T, cfg server.Config) (string, *server.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL, s
}

// flaky is a fault-injecting reverse proxy in front of a service handler:
// it can fail the first N requests per method+path with a bare status, and
// abort event streams after a fixed number of lines to simulate mid-stream
// disconnects.
type flaky struct {
	h http.Handler

	mu     sync.Mutex
	fails  map[string]int // "METHOD /path" → remaining injected failures
	status int
	calls  map[string]int

	abortEventsAfter int // >0: drop /events connections after N lines
}

func (f *flaky) count(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[key]
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.Method + " " + r.URL.Path
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]int)
	}
	f.calls[key]++
	inject := false
	if n := f.fails[key]; n > 0 {
		f.fails[key] = n - 1
		inject = true
	}
	abort := f.abortEventsAfter
	f.mu.Unlock()
	if inject {
		w.WriteHeader(f.status)
		io.WriteString(w, "injected fault\n")
		return
	}
	if abort > 0 && strings.HasSuffix(r.URL.Path, "/events") {
		w = &abortWriter{ResponseWriter: w, max: abort}
	}
	f.h.ServeHTTP(w, r)
}

// abortWriter kills the connection after max writes — the client sees a
// mid-stream disconnect with whatever lines were already flushed.
type abortWriter struct {
	http.ResponseWriter
	writes int
	max    int
}

func (w *abortWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes > w.max {
		panic(http.ErrAbortHandler)
	}
	return w.ResponseWriter.Write(b)
}

func (w *abortWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func newFlakyService(t *testing.T, cfg server.Config, f *flaky) string {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := server.New(cfg)
	f.h = s.Handler()
	ts := httptest.NewServer(f)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

func fastClient(base string, opts ...client.Option) *client.Client {
	return client.New(base, append([]client.Option{
		client.WithBackoff(time.Millisecond, 10*time.Millisecond),
	}, opts...)...)
}

// metricValue scrapes one counter off /metrics.
func metricValue(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var n int64
			fmt.Sscanf(v, "%d", &n)
			return n
		}
	}
	t.Fatalf("metric %q not found", name)
	return 0
}

// TestSubmitRetriesWithoutDuplicates: the first two submissions die with
// bare 500s; the SDK retries with the same generated idempotency key, so
// the service enqueues the batch exactly once.
func TestSubmitRetriesWithoutDuplicates(t *testing.T) {
	f := &flaky{fails: map[string]int{"POST /v2/jobs": 2}, status: http.StatusInternalServerError}
	base := newFlakyService(t, server.Config{}, f)
	c := fastClient(base)

	batch, err := c.SubmitBatch(context.Background(), "", []client.Job{
		{Spec: client.Spec{Kind: lowutil.KindRun, Source: workSrc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := f.count("POST /v2/jobs"); n != 3 {
		t.Errorf("submit attempts = %d, want 3 (two injected failures)", n)
	}
	if batch.Jobs[0].Duplicate {
		t.Error("first successful submission flagged duplicate")
	}
	if got := metricValue(t, base, "lowutil_jobs_submitted_total"); got != 1 {
		t.Errorf("jobs submitted = %d, want exactly 1 despite retries", got)
	}
	if _, err := c.WaitBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}

	// An explicit key resubmitted maps onto the same jobs, flagged.
	b1, err := c.SubmitBatch(context.Background(), "stable-key", []client.Job{
		{Spec: client.Spec{Kind: lowutil.KindCompile, Source: workSrc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.SubmitBatch(context.Background(), "stable-key", []client.Job{
		{Spec: client.Spec{Kind: lowutil.KindCompile, Source: workSrc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b1.ID != b2.ID || b1.Jobs[0].ID != b2.Jobs[0].ID || !b2.Jobs[0].Duplicate {
		t.Errorf("idempotent resubmission: %+v vs %+v", b1, b2)
	}
}

// TestEventsReconnectMidStream: every events connection dies after two
// lines; the SDK resumes from the last seen sequence number and the
// reassembled stream is identical to an unbroken replay.
func TestEventsReconnectMidStream(t *testing.T) {
	f := &flaky{abortEventsAfter: 2}
	base := newFlakyService(t, server.Config{}, f)
	c := fastClient(base)

	batch, err := c.SubmitBatch(context.Background(), "reconnect", []client.Job{
		{Spec: client.Spec{Kind: lowutil.KindRun, Source: workSrc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []client.Event
	if err := c.Events(context.Background(), batch.Jobs[0].ID, 0, func(ev client.Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if conns := f.count("GET /v2/jobs/" + batch.Jobs[0].ID + "/events"); conns < 2 {
		t.Errorf("stream survived in %d connection(s); the proxy should have broken it", conns)
	}
	// Dense, exactly-once, terminal-completed.
	for i, ev := range got {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d: lost or duplicated events across reconnects: %+v", i, ev.Seq, got)
		}
	}
	if len(got) != 3 || got[len(got)-1].Type != "done" {
		t.Fatalf("unexpected reassembled trail: %+v", got)
	}

	// The reassembled stream equals an unbroken replay, byte for byte.
	f.mu.Lock()
	f.abortEventsAfter = 0
	f.mu.Unlock()
	var replay []client.Event
	if err := c.Events(context.Background(), batch.Jobs[0].ID, 0, func(ev client.Event) error {
		replay = append(replay, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(got)
	jb, _ := json.Marshal(replay)
	if !bytes.Equal(ja, jb) {
		t.Errorf("reassembled stream diverges from unbroken replay:\n%s\nvs\n%s", ja, jb)
	}
}

// TestDeadlineExpiry: a client-side deadline on a non-terminating run
// surfaces as context.DeadlineExceeded without burning retries.
func TestDeadlineExpiry(t *testing.T) {
	base, _ := newService(t, server.Config{RequestTimeout: time.Minute})
	c := fastClient(base)
	cr, err := c.Compile(context.Background(), spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Profile(ctx, client.ProfileRequest{Session: cr.Session})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("deadline took %v to surface", d)
	}
}

// TestBoundedRetries: a permanently failing endpoint exhausts the retry
// budget and returns the typed error; the attempt count is exact.
func TestBoundedRetries(t *testing.T) {
	f := &flaky{fails: map[string]int{"POST /v2/compile": 1000}, status: http.StatusBadGateway}
	base := newFlakyService(t, server.Config{}, f)
	c := fastClient(base, client.WithMaxRetries(2))

	_, err := c.Compile(context.Background(), workSrc)
	var ae *client.Error
	if !errors.As(err, &ae) || !ae.Retryable || ae.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want retryable *client.Error with 502", err)
	}
	if n := f.count("POST /v2/compile"); n != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", n)
	}
}

// TestTypedErrors covers the wire → typed error mapping the facade
// promises: CompileError with position, at_capacity with Retry-After,
// canceled unwrapping to ErrCanceled.
func TestTypedErrors(t *testing.T) {
	base, _ := newService(t, server.Config{})
	c := fastClient(base, client.WithMaxRetries(0))

	_, err := c.Compile(context.Background(), "class Main { static void main() { print(x); } }")
	var ce *client.CompileError
	if !errors.As(err, &ce) || ce.Line <= 0 {
		t.Fatalf("err = %v, want *client.CompileError with position", err)
	}

	// A batch over the queue's depth answers with the retryable
	// at_capacity envelope.
	over := make([]client.Job, jobs.Depth+1)
	for i := range over {
		over[i] = client.Job{Spec: client.Spec{Kind: lowutil.KindCompile, Source: workSrc}}
	}
	_, err = c.SubmitBatch(context.Background(), "over", over)
	var ae *client.Error
	if !errors.As(err, &ae) || ae.Code != "at_capacity" || !ae.Retryable || ae.RetryAfter <= 0 {
		t.Fatalf("err = %v, want retryable at_capacity with Retry-After", err)
	}

	// The 499 canceled envelope unwraps to the facade sentinel.
	if !errors.Is(&client.Error{Code: "canceled"}, client.ErrCanceled) {
		t.Error("canceled envelope does not unwrap to ErrCanceled")
	}
}

// TestBatchAcceptance drives all 18 Table 1 workloads through the queue
// via the SDK against a service whose session LRU is too small for the
// batch, forcing compiled-session evictions and recompiles while eight
// workers run at once, and asserts the acceptance bar: zero lost or
// duplicated jobs, per-workload results byte-identical to sequential
// /v2/profile calls on a clean service, and byte-identical NDJSON event
// replays.
func TestBatchAcceptance(t *testing.T) {
	all := workloads.All()
	if len(all) != 18 {
		t.Fatalf("workload corpus has %d entries, want 18", len(all))
	}

	churned, _ := newService(t, server.Config{
		MaxSessions: 4, // 18 workloads churn through a 4-slot session LRU
		JobWorkers:  8,
	})
	c := fastClient(churned)

	jobsReq := make([]client.Job, len(all))
	for i, w := range all {
		jobsReq[i] = client.Job{Spec: client.Spec{Kind: lowutil.KindProfile, Source: w.Source(1)}}
	}
	batch, err := c.SubmitBatch(context.Background(), "table1", jobsReq)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := c.WaitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}

	// Zero lost, zero duplicated.
	if len(final) != 18 {
		t.Fatalf("batch finished with %d jobs, want 18", len(final))
	}
	seen := map[string]bool{}
	for i, st := range final {
		if st.State != "done" || st.Result == nil {
			t.Fatalf("workload %s: state=%s err=%+v", all[i].Name, st.State, st.Err)
		}
		if seen[st.ID] {
			t.Fatalf("duplicated job ID %s", st.ID)
		}
		seen[st.ID] = true
	}
	if got := metricValue(t, churned, "lowutil_jobs_completed_total"); got != 18 {
		t.Errorf("jobs completed = %d, want 18", got)
	}
	if got := metricValue(t, churned, "lowutil_jobs_submitted_total"); got != 18 {
		t.Errorf("jobs submitted = %d, want 18", got)
	}
	if got := metricValue(t, churned, "lowutil_session_evictions_total"); got == 0 {
		t.Error("no session evictions; MaxSessions pressure did not bite")
	}

	// Merged batch results equal 18 sequential profile calls on a clean
	// service, byte for byte (modulo JSON framing).
	clean, _ := newService(t, server.Config{})
	cc := fastClient(clean)
	for i, w := range all {
		cr, err := cc.Compile(ctx, w.Source(1))
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		seq, err := cc.Profile(ctx, client.ProfileRequest{Session: cr.Session})
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		want, _ := json.Marshal(seq)
		var batchRes client.ProfileResult
		if err := json.Unmarshal(final[i].Result.Payload, &batchRes); err != nil {
			t.Fatalf("%s: bad payload: %v", w.Name, err)
		}
		got, _ := json.Marshal(batchRes)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: batch result diverges from sequential profile:\n%s\nvs\n%s", w.Name, got, want)
		}
	}

	// Deterministic NDJSON replay: two raw reads of every job's stream are
	// byte-identical.
	for i, st := range final {
		a := rawEvents(t, churned, st.ID)
		b := rawEvents(t, churned, st.ID)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: event replays differ:\n%s\nvs\n%s", all[i].Name, a, b)
		}
	}
}

func rawEvents(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v2/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
