package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lowutil"
	"lowutil/internal/jobs"
)

// postRaw sends an arbitrary (possibly malformed) body, unlike postJSON
// which can only produce valid JSON.
func postRaw(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// TestErrorEnvelopeTable drives every externally reachable error path of
// the /v2 surface through one table: malformed JSON, unknown resources,
// invalid query parameters, unknown call-graph modes. Each row asserts the
// transport status plus the unified envelope's code and retryable bit, so
// a handler that starts leaking raw errors (or flipping retryability)
// fails here by name. A 200 row (no code) pins a field an endpoint
// ignores.
func TestErrorEnvelopeTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)
	cases := []struct {
		name      string
		method    string
		path      string
		body      string // POST body; empty means GET
		status    int
		code      string
		retryable bool
	}{
		{"bad json to jobs", "POST", "/v2/jobs", `{nope`, http.StatusBadRequest, "bad_request", false},
		{"truncated json to run", "POST", "/v2/run", `{"session":`, http.StatusBadRequest, "bad_request", false},
		{"empty batch", "POST", "/v2/jobs", `{"jobs":[]}`, http.StatusBadRequest, "bad_request", false},
		{"unknown job id", "GET", "/v2/jobs/jnope", "", http.StatusNotFound, "not_found", false},
		{"unknown batch events", "GET", "/v2/jobs/jnope/events", "", http.StatusNotFound, "not_found", false},
		{"negative after", "GET", "/v2/jobs/jnope/events?after=-1", "", http.StatusBadRequest, "bad_request", false},
		{"non-integer after", "GET", "/v2/jobs/jnope/events?after=abc", "", http.StatusBadRequest, "bad_request", false},
		{"unknown session run", "POST", "/v2/run", `{"session":"deadbeef"}`, http.StatusNotFound, "not_found", false},
		{"saved profile with a nodeless location", "POST", "/v2/profile/load",
			fmt.Sprintf(`{"session":%q,"profile":%s}`, id, nodelessProfile(t, ts.URL, id)),
			http.StatusBadRequest, "bad_request", false},
		{"unknown mode to slice", "POST", "/v2/slice", fmt.Sprintf(`{"session":%q,"mode":"bogus"}`, id), http.StatusBadRequest, "bad_request", false},
		{"unknown mode to audit", "POST", "/v2/audit", fmt.Sprintf(`{"session":%q,"mode":"bogus"}`, id), http.StatusBadRequest, "bad_request", false},
		{"unknown mode in an audit job", "POST", "/v2/jobs",
			fmt.Sprintf(`{"jobs":[{"kind":"audit","source":%q,"mode":"bogus"}]}`, workSrc),
			http.StatusBadRequest, "bad_request", false},
		{"profile ignores mode", "POST", "/v2/profile", fmt.Sprintf(`{"session":%q,"mode":"bogus"}`, id), http.StatusOK, "", false},
		{"report ignores mode", "POST", "/v2/report", fmt.Sprintf(`{"session":%q,"mode":"bogus"}`, id), http.StatusOK, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				code int
				hdr  http.Header
				body []byte
			)
			switch tc.method {
			case "GET":
				resp, err := http.Get(ts.URL + tc.path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				code, hdr = resp.StatusCode, resp.Header
				body, _ = io.ReadAll(resp.Body)
			default:
				code, hdr, body = postRaw(t, ts.URL+tc.path, tc.body)
			}
			if code != tc.status {
				t.Fatalf("status = %d, want %d; body %s", code, tc.status, body)
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if tc.code == "" {
				return
			}
			eb := decodeEnvelope(t, body)
			if eb.Code != tc.code || eb.Retryable != tc.retryable {
				t.Errorf("envelope = %+v, want code %q retryable %v", eb, tc.code, tc.retryable)
			}
		})
	}
}

// nodelessProfile saves the session's profile and points its first
// location-store entry at no node ("n": -1).
func nodelessProfile(t *testing.T, base, id string) []byte {
	t.Helper()
	code, body := postJSON(t, base+"/v2/profile/save", sessionRequest{Session: id})
	if code != http.StatusOK {
		t.Fatalf("save: %d %s", code, body)
	}
	var env struct {
		Steps int64          `json:"steps"`
		Graph map[string]any `json:"graph"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	stores, _ := env.Graph["locStores"].([]any)
	if len(stores) == 0 {
		t.Fatal("saved profile records no location stores")
	}
	stores[0].(map[string]any)["n"] = -1
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOversizedSlotsRejected sends slot counts whose profiling tables
// would need more memory than any machine has. Before the table budget,
// one such request ended the whole process with an unrecoverable
// out-of-memory error; now each is a 400 envelope — at submission for
// jobs — and the server goes on to serve a normal profile.
func TestOversizedSlotsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)
	for _, slots := range []int{1 << 40, 1 << 62} {
		for _, path := range []string{"/v2/profile", "/v2/report", "/v2/profile/save"} {
			body := fmt.Sprintf(`{"session":%q,"slots":%d}`, id, slots)
			code, _, out := postRaw(t, ts.URL+path, body)
			if code != http.StatusBadRequest {
				t.Fatalf("%s slots=%d: status %d, want 400; body %s", path, slots, code, out)
			}
			if eb := decodeEnvelope(t, out); eb.Code != "bad_request" || eb.Retryable {
				t.Errorf("%s slots=%d: envelope %+v, want non-retryable bad_request", path, slots, eb)
			}
		}
		job := lowutil.Request{Kind: lowutil.KindReport, Source: workSrc, Options: lowutil.Options{Slots: slots}}
		code, out := postJSON(t, ts.URL+"/v2/jobs", jobsRequest{Jobs: []jobSubmission{{Request: job}}})
		if code != http.StatusBadRequest {
			t.Fatalf("job slots=%d: status %d, want 400 at submission; body %s", slots, code, out)
		}
		if eb := decodeEnvelope(t, out); eb.Code != "bad_request" {
			t.Errorf("job slots=%d: envelope %+v, want bad_request", slots, eb)
		}
	}
	// A count above the default but within budget is still accepted.
	job := lowutil.Request{Kind: lowutil.KindReport, Source: workSrc, Options: lowutil.Options{Slots: 32}}
	if code, out := postJSON(t, ts.URL+"/v2/jobs", jobsRequest{Jobs: []jobSubmission{{Request: job}}}); code != http.StatusOK {
		t.Fatalf("job slots=32: status %d, want 200; body %s", code, out)
	}
	code, out := postJSON(t, ts.URL+"/v2/profile", sessionRequest{Session: id})
	if code != http.StatusOK {
		t.Fatalf("normal profile after rejections: %d %s", code, out)
	}
	var resp profileResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Steps == 0 || len(resp.Top) == 0 {
		t.Errorf("normal profile after rejections is empty: %+v", resp)
	}
}

// TestUnknownModeLeavesNoMemo sends distinct unknown call-graph modes to
// /v2/audit: each is a 400 checked before the memo, so the session's audit
// memo gains no entry and no analysis runs.
func TestUnknownModeLeavesNoMemo(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)
	for i := range 5 {
		body := fmt.Sprintf(`{"session":%q,"mode":"bogus%d"}`, id, i)
		if code, _, out := postRaw(t, ts.URL+"/v2/audit", body); code != http.StatusBadRequest {
			t.Fatalf("mode bogus%d: status %d, want 400; body %s", i, code, out)
		}
	}
	sess, ok := s.sessions.get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	if n := sess.cachedAudits(); n != 0 {
		t.Errorf("unknown modes left %d audit memo entries, want 0", n)
	}
	if got := metricValue(t, ts.URL, "lowutil_audit_cache_misses_total"); got != 0 {
		t.Errorf("audit cache misses = %d, want 0 (no analysis ran)", got)
	}
}

// heapBombs allocate past the interpreter's heap budget: one array of
// 2^40 elements, one of 2^28, and a loop whose third 6M-element array
// crosses it.
var heapBombs = []struct{ name, src string }{
	{"2^40 array", `class Main { static void main() { int[] a = new int[1099511627776]; print(a.length); } }`},
	{"2^28 array", `class Main { static void main() { int[] a = new int[268435456]; print(a.length); } }`},
	{"loop", `class Main { static void main() { int i = 0; while (i < 5) { int[] a = new int[6000000]; a[0] = i; i = i + 1; } print(i); } }`},
}

// keepBombs keep more than the budget without one large allocation: a
// print loop, and an array filled with zero-field objects, whose headers
// alone cross it.
var keepBombs = []struct{ name, src string }{
	{"print loop", `class Main { static void main() { while (true) { print(1); } } }`},
	{"empty objects", `class E { } class Main { static void main() { E[] a = new E[16777000]; int i = 0; while (i < a.length) { a[i] = new E(); i = i + 1; } print(i); } }`},
}

// TestHeapBudgetEnvelope sends each heap bomb through /v2/run,
// /v2/profile, /v2/report and a profile job, and each keep bomb through
// /v2/run. Every row must fail with the non-retryable 422 heap_limit
// envelope (the job with that error code), and the next normal request
// must succeed in the same process.
func TestHeapBudgetEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	normal := compileSession(t, ts.URL, workSrc)
	next := func(t *testing.T) {
		t.Helper()
		if code, out := postJSON(t, ts.URL+"/v2/run", sessionRequest{Session: normal}); code != http.StatusOK {
			t.Fatalf("normal run after the bomb: %d %s", code, out)
		}
	}
	for _, bomb := range heapBombs {
		id := compileSession(t, ts.URL, bomb.src)
		for _, path := range []string{"/v2/run", "/v2/profile", "/v2/report"} {
			t.Run(bomb.name+" "+path, func(t *testing.T) {
				code, out := postJSON(t, ts.URL+path, sessionRequest{Session: id})
				if code != http.StatusUnprocessableEntity {
					t.Fatalf("status %d, want 422; body %s", code, out)
				}
				if eb := decodeEnvelope(t, out); eb.Code != "heap_limit" || eb.Retryable {
					t.Errorf("envelope %+v, want non-retryable heap_limit", eb)
				}
				next(t)
			})
		}
		t.Run(bomb.name+" job", func(t *testing.T) {
			spec := lowutil.Request{Kind: lowutil.KindProfile, Source: bomb.src}
			code, out := postJSON(t, ts.URL+"/v2/jobs", jobsRequest{Jobs: []jobSubmission{{Request: spec}}})
			if code != http.StatusOK {
				t.Fatalf("submit: %d %s", code, out)
			}
			var sub jobsResponse
			if err := json.Unmarshal(out, &sub); err != nil {
				t.Fatal(err)
			}
			st := waitBatch(t, ts.URL, sub.Batch).Jobs[0]
			if st.State != jobs.StateFailed || st.Err == nil || st.Err.Code != "heap_limit" || st.Err.Retryable {
				t.Errorf("job ended %s with %+v, want failed with non-retryable heap_limit", st.State, st.Err)
			}
			next(t)
		})
	}
	for _, bomb := range keepBombs {
		id := compileSession(t, ts.URL, bomb.src)
		t.Run(bomb.name+" /v2/run", func(t *testing.T) {
			code, out := postJSON(t, ts.URL+"/v2/run", sessionRequest{Session: id})
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422; body %.200s", code, out)
			}
			if eb := decodeEnvelope(t, out); eb.Code != "heap_limit" || eb.Retryable {
				t.Errorf("envelope %+v, want non-retryable heap_limit", eb)
			}
			next(t)
		})
	}
}

// TestQueueFullRetryAfter pins the one error that carries a header
// contract: a 429 from a full job queue must tell clients when to come
// back, since the SDK's backoff honors Retry-After before its own jitter.
func TestQueueFullRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: jobs.Config{Depth: 1, Workers: 1}})
	// The spinning job fills the queue until the test's drain cancels it.
	postJSON(t, ts.URL+"/v2/jobs", jobsRequest{Key: "fill", Jobs: []jobSubmission{{Request: lowutil.Request{Kind: lowutil.KindRun, Source: spinSrc}}}})
	code, hdr, body := postRaw(t, ts.URL+"/v2/jobs",
		`{"key":"over","jobs":[{"kind":"compile","source":"class Main { static void main() { print(1); } }"}]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %d: %s", code, body)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	if eb := decodeEnvelope(t, body); eb.Code != "at_capacity" || !eb.Retryable {
		t.Errorf("429 envelope = %+v, want retryable at_capacity", eb)
	}
}

// TestRunDeadlineEnvelope covers 504 on the synchronous execution path: a
// spin program under a tight per-request timeout surfaces as a deadline
// envelope, not a hung connection or a generic 500.
func TestRunDeadlineEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 100 * time.Millisecond})
	id := compileSession(t, ts.URL, spinSrc)
	code, body := postJSON(t, ts.URL+"/v2/run", sessionRequest{Session: id})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline run status = %d, want 504; body %s", code, body)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "deadline" || eb.Retryable {
		t.Errorf("504 envelope = %+v, want non-retryable deadline", eb)
	}
}

// TestClassifyErrTable unit-tests the single error→(status, body) mapping,
// including branches unobservable over a real HTTP round trip: 499 is
// written after the client is gone, and 409 requires racing an identical
// batch key. Wrapping matters — the production errors arrive decorated
// with fmt.Errorf context, so every row wraps its sentinel.
func TestClassifyErrTable(t *testing.T) {
	_, compileErr := lowutil.Compile("class Main { static void main() { print(x); } }")
	var ce *lowutil.CompileError
	if !errors.As(compileErr, &ce) || ce.Line <= 0 {
		t.Fatalf("fixture compile error = %v, want positioned *CompileError", compileErr)
	}

	cases := []struct {
		name      string
		err       error
		status    int
		code      string
		retryable bool
	}{
		{"compile error", compileErr, http.StatusUnprocessableEntity, "compile_error", false},
		{"bad request", &badRequestError{errors.New("nope")}, http.StatusBadRequest, "bad_request", false},
		{"oversized slots", fmt.Errorf("job 0: %w", &lowutil.SlotsError{Slots: 1 << 40, Max: 1000}), http.StatusBadRequest, "bad_request", false},
		{"unknown mode", fmt.Errorf("job 0: %w", &lowutil.OptionError{Field: "mode", Msg: `unknown call-graph mode "bogus" (want cha or rta)`}), http.StatusBadRequest, "bad_request", false},
		{"unknown session", fmt.Errorf("%w: s1", errUnknownSession), http.StatusNotFound, "not_found", false},
		{"unknown job", fmt.Errorf("%w: j1", errUnknownJob), http.StatusNotFound, "not_found", false},
		{"queue full", fmt.Errorf("submit: %w", jobs.ErrQueueFull), http.StatusTooManyRequests, "at_capacity", true},
		{"batch conflict", fmt.Errorf("submit: %w", jobs.ErrBatchConflict), http.StatusConflict, "conflict", false},
		{"deadline", fmt.Errorf("run: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline", false},
		{"context canceled", fmt.Errorf("run: %w", context.Canceled), 499, "canceled", true},
		{"facade canceled", fmt.Errorf("%w: vm stopped", lowutil.ErrCanceled), 499, "canceled", true},
		// A run aborted by disconnect wraps cancellation inside a
		// ProfileError; the disconnect must win over the 500.
		{"canceled inside profile error",
			&lowutil.ProfileError{Stage: "run", Err: fmt.Errorf("%w: vm stopped", lowutil.ErrCanceled)},
			499, "canceled", true},
		{"profile error", &lowutil.ProfileError{Stage: "run", Err: errors.New("boom")}, http.StatusInternalServerError, "profile_error", false},
		{"heap budget",
			&lowutil.ProfileError{Stage: "run", Err: &lowutil.HeapError{Max: 1 << 24, Err: errors.New("vm: heap budget exceeded")}},
			http.StatusUnprocessableEntity, "heap_limit", false},
		{"generic", errors.New("disk on fire"), http.StatusInternalServerError, "internal", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := classifyErr(tc.err)
			if status != tc.status || body.Code != tc.code || body.Retryable != tc.retryable {
				t.Errorf("classifyErr(%v) = (%d, %+v), want (%d, code %q, retryable %v)",
					tc.err, status, body, tc.status, tc.code, tc.retryable)
			}
			if body.Message == "" {
				t.Error("empty envelope message")
			}
		})
	}

	// The positioned fields survive into the envelope.
	if _, body := classifyErr(compileErr); body.Line != ce.Line || body.Col != ce.Col {
		t.Errorf("compile envelope position = %d:%d, want %d:%d", body.Line, body.Col, ce.Line, ce.Col)
	}
	if _, body := classifyErr(&lowutil.ProfileError{Stage: "analysis", Err: errors.New("x")}); body.Stage != "analysis" {
		t.Errorf("profile envelope stage = %q, want analysis", body.Stage)
	}
}
