package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lowutil"
	"lowutil/client"
	"lowutil/internal/parser"
)

// workSrc allocates enough structure for profiling to be non-trivial.
const workSrc = `
class Point { int x; int y; }
class Series {
  Point[] items;
  int size;
  void init(int cap) { this.items = new Point[cap]; this.size = 0; }
  void add(Point p) { this.items[this.size] = p; this.size = this.size + 1; }
  int count() { return this.size; }
}
class Main {
  static void main() {
    int total = 0;
    for (int s = 0; s < 10; s = s + 1) {
      Series ser = new Series();
      ser.init(40);
      for (int i = 0; i < 40; i = i + 1) {
        Point p = new Point();
        p.x = hash(s * 100 + i) % 640;
        p.y = hash(s * 200 + i) % 480;
        ser.add(p);
      }
      total = total + ser.count();
    }
    print(total);
  }
}`

// spinSrc loops forever, so only cancellation can stop it.
const spinSrc = `
class Main {
  static void main() {
    int i = 0;
    while (true) { i = i + 1; }
  }
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// decodeEnvelope parses the unified error envelope out of an error body.
func decodeEnvelope(t *testing.T, body []byte) client.ErrorBody {
	t.Helper()
	var env client.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("malformed error envelope %s: %v", body, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env.Error
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func compileSession(t *testing.T, base, src string) string {
	t.Helper()
	code, body := postJSON(t, base+"/v2/compile", client.CompilePayload{Source: src})
	if code != http.StatusOK {
		t.Fatalf("compile: status %d: %s", code, body)
	}
	var cr client.CompileResult
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	return cr.Session
}

// metricValue fetches /metrics and returns the value on the line starting
// with prefix (a bare name or name{labels}).
func metricValue(t *testing.T, base, prefix string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, prefix+" ")), 10, 64)
			if err != nil {
				t.Fatalf("parse metric %q in line %q: %v", prefix, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found", prefix)
	return 0
}

// TestConcurrentProfiles drives 8 concurrent profile requests at one
// session and asserts exactly one of them ran the profiler: the other
// seven joined the memoized run (cache-hit counter) and all eight agree on
// the result.
func TestConcurrentProfiles(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 16})
	id := compileSession(t, ts.URL, workSrc)

	const n = 8
	var wg sync.WaitGroup
	responses := make([]client.ProfileResult, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSON(t, ts.URL+"/v2/profile", client.ProfileRequest{Session: id})
			codes[i] = code
			json.Unmarshal(body, &responses[i])
		}(i)
	}
	wg.Wait()

	hits := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if responses[i].Steps != responses[0].Steps || responses[i].Steps == 0 {
			t.Fatalf("request %d: steps %d != %d", i, responses[i].Steps, responses[0].Steps)
		}
		if len(responses[i].Top) == 0 {
			t.Fatalf("request %d: no findings", i)
		}
		if responses[i].CacheHit {
			hits++
		}
	}
	if hits != n-1 {
		t.Errorf("cache hits = %d, want %d (exactly one run)", hits, n-1)
	}
	if got := metricValue(t, ts.URL, "lowutil_profile_cache_misses_total"); got != 1 {
		t.Errorf("profile cache misses = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, "lowutil_profile_cache_hits_total"); got != n-1 {
		t.Errorf("profile cache hits = %d, want %d", got, n-1)
	}

	// A later report request reuses the same memoized run: still no second
	// profiler execution.
	code, body := postJSON(t, ts.URL+"/v2/report", client.ProfileRequest{Session: id})
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, body)
	}
	var rr client.ReportResult
	json.Unmarshal(body, &rr)
	if !rr.CacheHit || !strings.Contains(rr.Report, "top low-utility structures") {
		t.Errorf("report cache_hit=%v report=%q", rr.CacheHit, rr.Report)
	}
	if got := metricValue(t, ts.URL, "lowutil_profile_cache_misses_total"); got != 1 {
		t.Errorf("after report: profile cache misses = %d, want 1", got)
	}
}

// TestConcurrentQueriesOneSession sends /v2/report, /v2/profile and
// /v2/profile/save requests for one cold session all at once: the first
// arrivals race on the profile latch, the rest query the one memoized
// Profile concurrently with no lock around it. Under -race this proves the
// session needs none; every answer must equal a lone facade run's.
func TestConcurrentQueriesOneSession(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 32})
	id := compileSession(t, ts.URL, workSrc)

	prog, err := lowutil.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prog.ProfileContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := pr.Save(&saved); err != nil {
		t.Fatal(err)
	}
	wantReport := pr.Report(lowutil.DefaultTop)
	wantTop := pr.TopStructures(lowutil.DefaultTop)

	endpoints := []string{"/v2/report", "/v2/profile", "/v2/profile/save"}
	const rounds = 4
	codes := make([]int, rounds*len(endpoints))
	bodies := make([][]byte, rounds*len(endpoints))
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = postJSON(t, ts.URL+endpoints[i%len(endpoints)], client.ProfileRequest{Session: id})
		}(i)
	}
	wg.Wait()

	for i, body := range bodies {
		ep := endpoints[i%len(endpoints)]
		if codes[i] != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, codes[i], body)
		}
		switch ep {
		case "/v2/report":
			var rr client.ReportResult
			json.Unmarshal(body, &rr)
			if rr.Report != wantReport {
				t.Errorf("concurrent report differs from a lone run:\n%s", rr.Report)
			}
		case "/v2/profile":
			var resp client.ProfileResult
			json.Unmarshal(body, &resp)
			if len(resp.Top) != len(wantTop) || resp.Steps != pr.Steps() {
				t.Fatalf("concurrent profile: %d findings, %d steps; want %d, %d",
					len(resp.Top), resp.Steps, len(wantTop), pr.Steps())
			}
			for k, f := range wantTop {
				if got := resp.Top[k]; got.Site != f.Site || got.Cost != f.Cost || got.Benefit != f.Benefit {
					t.Errorf("concurrent profile finding %d = %+v, want %+v", k, got, f)
				}
			}
		default:
			if !bytes.Equal(body, saved.Bytes()) {
				t.Errorf("concurrent save differs from a lone run (%d vs %d bytes)", len(body), saved.Len())
			}
		}
	}
	if got := metricValue(t, ts.URL, "lowutil_profile_cache_misses_total"); got != 1 {
		t.Errorf("profile cache misses = %d, want 1 (one run for all requests)", got)
	}
}

// TestCompileSessionCache asserts the second compile of identical source
// is a session cache hit with the same ID.
func TestCompileSessionCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v2/compile", client.CompilePayload{Source: workSrc})
	if code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, body)
	}
	var first client.CompileResult
	json.Unmarshal(body, &first)
	if first.CacheHit {
		t.Error("first compile reported a cache hit")
	}
	_, body = postJSON(t, ts.URL+"/v2/compile", client.CompilePayload{Source: workSrc})
	var second client.CompileResult
	json.Unmarshal(body, &second)
	if !second.CacheHit || second.Session != first.Session {
		t.Errorf("second compile: hit=%v session=%s want hit of %s", second.CacheHit, second.Session, first.Session)
	}
	if got := metricValue(t, ts.URL, "lowutil_sessions_created_total"); got != 1 {
		t.Errorf("sessions created = %d, want 1", got)
	}
}

// TestCancellation cancels an in-flight profile of an infinite loop and
// asserts the server unwinds promptly with the client-closed status, and
// that the aborted run is evicted so the session retries cleanly.
func TestCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Minute})
	id := compileSession(t, ts.URL, spinSrc)

	ctx, cancel := context.WithCancel(context.Background())
	buf, _ := json.Marshal(client.ProfileRequest{Session: id})
	req := httptest.NewRequest("POST", "/v2/profile", bytes.NewReader(buf)).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	s.Handler().ServeHTTP(rec, req)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if rec.Code != 499 {
		t.Errorf("status = %d, want 499; body %s", rec.Code, rec.Body)
	}
	if eb := decodeEnvelope(t, rec.Body.Bytes()); eb.Code != "canceled" || !eb.Retryable {
		t.Errorf("499 envelope = %+v, want retryable canceled", eb)
	}
	sess, ok := s.sessions.get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	if n := sess.cachedProfiles(); n != 0 {
		t.Errorf("canceled run left %d cache entries, want 0", n)
	}

	// The deadline path: a tight per-request timeout produces 504.
	_, ts2 := newTestServer(t, Config{RequestTimeout: 100 * time.Millisecond})
	id2 := compileSession(t, ts2.URL, spinSrc)
	code, body := postJSON(t, ts2.URL+"/v2/profile", client.ProfileRequest{Session: id2})
	if code != http.StatusGatewayTimeout {
		t.Errorf("deadline status = %d, want 504; body %s", code, body)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "deadline" || eb.Retryable {
		t.Errorf("504 envelope = %+v, want non-retryable deadline", eb)
	}
}

// TestAdmissionControl fills the gate and asserts heavy endpoints, compile
// among them, shed load with 429 while light ones still serve.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	id := compileSession(t, ts.URL, workSrc)
	if !s.gate.TryAcquire() {
		t.Fatal("fresh gate full")
	}
	defer s.gate.Release()
	code, body := postJSON(t, ts.URL+"/v2/profile", client.ProfileRequest{Session: id})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", code, body)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "at_capacity" || !eb.Retryable {
		t.Errorf("429 envelope = %+v, want retryable at_capacity", eb)
	}
	// Vet runs audit's interprocedural pipeline and escape pass, and the SSA
	// dump analyzes every method: heavy too.
	code, body = postJSON(t, ts.URL+"/v2/vet", client.ProfileRequest{Session: id})
	if eb := decodeEnvelope(t, body); code != http.StatusTooManyRequests || eb.Code != "at_capacity" {
		t.Errorf("vet under a full gate: %d %+v, want 429 at_capacity", code, eb)
	}
	code, body = postJSON(t, ts.URL+"/v2/ssa", ssaRequest{Session: id})
	if eb := decodeEnvelope(t, body); code != http.StatusTooManyRequests || eb.Code != "at_capacity" {
		t.Errorf("ssa under a full gate: %d %+v, want 429 at_capacity", code, eb)
	}
	// Compile, on a session-cache miss, allocates with the source's size:
	// heavy too.
	src, _ := json.Marshal(client.CompilePayload{Source: workSrc})
	code, hdr, body := postRaw(t, ts.URL+"/v2/compile", string(src))
	if eb := decodeEnvelope(t, body); code != http.StatusTooManyRequests || eb.Code != "at_capacity" || hdr.Get("Retry-After") == "" {
		t.Errorf("compile under a full gate: %d %+v (Retry-After %q), want 429 at_capacity", code, eb, hdr.Get("Retry-After"))
	}
	job := client.SubmitPayload{Key: "light", Jobs: []client.Job{{Spec: lowutil.Request{Kind: lowutil.KindRun, Source: workSrc}}}}
	if code, body := postJSON(t, ts.URL+"/v2/jobs", job); code != http.StatusOK {
		t.Errorf("light endpoint rejected: %d %s", code, body)
	}
	if got := metricValue(t, ts.URL, "lowutil_rejected_total"); got != 4 {
		t.Errorf("rejected = %d, want 4", got)
	}
}

// TestTooDeepCompileRejected sends a source nested far past the parser's
// bound (a few million levels would overflow the stack, which kills the
// process) and expects an ordinary 422 envelope, after which the server
// keeps serving.
func TestTooDeepCompileRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const depth = 50 * parser.MaxNesting
	src := "class Main { static void main() { int x = " +
		strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "; print(x); } }"
	code, body := postJSON(t, ts.URL+"/v2/compile", client.CompilePayload{Source: src})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("too-deep compile status = %d, want 422; body %.200s", code, body)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "compile_error" || eb.Line <= 0 || eb.Retryable {
		t.Errorf("422 envelope = %+v, want compile_error with position", eb)
	}
	id := compileSession(t, ts.URL, workSrc)
	if code, body := postJSON(t, ts.URL+"/v2/run", client.ProfileRequest{Session: id}); code != http.StatusOK {
		t.Errorf("request after the rejected compile: %d %s", code, body)
	}
}

// TestTokenFloodCompileRejected sends 15 MiB floods (inside the body
// limit with their JSON wrapper): of "(", and of `[]` pairs after a type.
// The parser fails at the first token, or at the dimension bound, instead
// of tokenizing the whole flood first, so each request gets an ordinary
// positioned 422 envelope and the server keeps serving.
func TestTokenFloodCompileRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 15 << 20
	for _, c := range []struct {
		src       string
		line, col int
	}{
		{strings.Repeat("(", n), 1, 1},
		{"class Main { static void main() { Foo" + strings.Repeat("[]", n/2) + " x; } }", 1, 548},
	} {
		code, body := postJSON(t, ts.URL+"/v2/compile", client.CompilePayload{Source: c.src})
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("flood compile status = %d, want 422; body %.200s", code, body)
		}
		if eb := decodeEnvelope(t, body); eb.Code != "compile_error" || eb.Line != c.line || eb.Col != c.col || eb.Retryable {
			t.Errorf("422 envelope = %+v, want compile_error at %d:%d", eb, c.line, c.col)
		}
		id := compileSession(t, ts.URL, workSrc)
		if code, body := postJSON(t, ts.URL+"/v2/run", client.ProfileRequest{Session: id}); code != http.StatusOK {
			t.Errorf("request after the rejected compile: %d %s", code, body)
		}
	}
}

// TestErrorMapping covers the typed-error → status contract: every error
// arrives in the unified {"error":{code,message,retryable}} envelope.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v2/compile", client.CompilePayload{Source: "class Main { static void main() { print(x); } }"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("compile error status = %d, want 422; body %s", code, body)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "compile_error" || eb.Line <= 0 || eb.Retryable {
		t.Errorf("422 envelope = %+v, want compile_error with position", eb)
	}
	code, body = postJSON(t, ts.URL+"/v2/profile", client.ProfileRequest{Session: "deadbeef"})
	if code != http.StatusNotFound {
		t.Errorf("unknown session status = %d, want 404", code)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "not_found" || eb.Retryable {
		t.Errorf("404 envelope = %+v, want not_found", eb)
	}
	code, body = postJSON(t, ts.URL+"/v2/profile", client.ProfileRequest{})
	if code != http.StatusBadRequest {
		t.Errorf("missing session status = %d, want 400", code)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "bad_request" || eb.Retryable {
		t.Errorf("400 envelope = %+v, want bad_request", eb)
	}
}

// TestSaveLoadRoundTrip saves a profile through the server, reloads it
// through the server, and asserts the rendered report is byte-identical to
// reloading the same envelope locally — the offline deployment mode
// round-trips losslessly over HTTP.
func TestSaveLoadRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)

	code, envelope := postJSON(t, ts.URL+"/v2/profile/save", client.ProfileRequest{Session: id})
	if code != http.StatusOK {
		t.Fatalf("save: status %d: %s", code, envelope)
	}
	code, body := postJSON(t, ts.URL+"/v2/profile/load", loadRequest{ProfileRequest: client.ProfileRequest{Session: id}, Profile: envelope})
	if code != http.StatusOK {
		t.Fatalf("load: status %d: %s", code, body)
	}
	var lr client.ReportResult
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}

	prog, err := lowutil.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	local, err := prog.LoadProfile(bytes.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	if want := local.Report(lowutil.DefaultTop); lr.Report != want {
		t.Errorf("server-loaded report differs from locally-loaded report:\nserver:\n%s\nlocal:\n%s", lr.Report, want)
	}

	// Loading the same envelope twice is deterministic.
	_, body2 := postJSON(t, ts.URL+"/v2/profile/load", loadRequest{ProfileRequest: client.ProfileRequest{Session: id}, Profile: envelope})
	if !bytes.Equal(body, body2) {
		t.Error("two loads of the same envelope produced different responses")
	}

	// A load ranks with the request's tree_height, as /v2/report does on
	// the same session, and renders its report byte for byte.
	n1 := client.ProfileRequest{Session: id, Options: lowutil.Options{TreeHeight: 1}}
	report := func(path string, req any) string {
		t.Helper()
		code, body := postJSON(t, ts.URL+path, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
		var rr client.ReportResult
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		return rr.Report
	}
	want := report("/v2/report", n1)
	if !strings.Contains(want, "(n=1)") {
		t.Fatalf("/v2/report with tree_height 1 does not rank with n=1:\n%s", want)
	}
	if got := report("/v2/profile/load", loadRequest{ProfileRequest: n1, Profile: envelope}); got != want {
		t.Errorf("load with tree_height 1:\n%s\nwant /v2/report's:\n%s", got, want)
	}
}

// TestMetricsAndHealth asserts the observability surface: request
// counters by endpoint, gauges, health, and pprof.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 3})
	id := compileSession(t, ts.URL, workSrc)
	postJSON(t, ts.URL+"/v2/profile", client.ProfileRequest{Session: id})
	postJSON(t, ts.URL+"/v2/run", client.ProfileRequest{Session: id})

	if got := metricValue(t, ts.URL, `lowutil_requests_total{endpoint="compile"}`); got != 1 {
		t.Errorf("compile requests = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, `lowutil_requests_total{endpoint="profile"}`); got != 1 {
		t.Errorf("profile requests = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, `lowutil_requests_total{endpoint="run"}`); got != 1 {
		t.Errorf("run requests = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, "lowutil_sessions_live"); got != 1 {
		t.Errorf("sessions live = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, "lowutil_inflight_capacity"); got != 3 {
		t.Errorf("inflight capacity = %d, want 3", got)
	}
	if got := metricValue(t, ts.URL, "lowutil_profiled_steps_total"); got <= 0 {
		t.Errorf("profiled steps = %d, want > 0", got)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %v %v", err, resp)
	}
	resp.Body.Close()
}

// TestMetricsCountEveryRoute: /metrics has a request and a failure row
// for every instrumented route, because its label set is built from the
// routes as they are registered, and /v2/ssa counts its requests and
// failures like every other endpoint.
func TestMetricsCountEveryRoute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)
	for _, path := range []string{"/v2/profile", "/v2/report", "/v2/slice", "/v2/audit", "/v2/run", "/v2/vet", "/v2/ssa", "/v2/profile/save", "/v2/profile/load"} {
		postJSON(t, ts.URL+path, client.ProfileRequest{Session: id})
	}
	b := submitJobs(t, ts.URL, client.SubmitPayload{Jobs: []client.Job{{Spec: lowutil.Request{Kind: lowutil.KindRun, Source: workSrc}}}})
	waitBatch(t, ts.URL, b.ID)
	getBody(t, ts.URL+"/v2/jobs/"+b.Jobs[0].ID+"/events")
	for _, label := range []string{"compile", "profile", "report", "slice", "audit", "run", "vet", "ssa", "save", "load", "jobs", "job", "events"} {
		if got := metricValue(t, ts.URL, fmt.Sprintf("lowutil_requests_total{endpoint=%q}", label)); got < 1 {
			t.Errorf("%s requests = %d, want at least 1", label, got)
		}
		metricValue(t, ts.URL, fmt.Sprintf("lowutil_request_failures_total{endpoint=%q}", label))
	}

	// Three more /v2/ssa requests, one of them a 400: 4 requests, 1
	// failure.
	postJSON(t, ts.URL+"/v2/ssa", ssaRequest{Session: id})
	postJSON(t, ts.URL+"/v2/ssa", ssaRequest{Session: id, Method: "Main.main"})
	if code, _ := postJSON(t, ts.URL+"/v2/ssa", ssaRequest{Session: id, Method: "No.such"}); code != http.StatusBadRequest {
		t.Fatalf("unknown method: %d, want 400", code)
	}
	if got := metricValue(t, ts.URL, `lowutil_requests_total{endpoint="ssa"}`); got != 4 {
		t.Errorf("ssa requests = %d, want 4", got)
	}
	if got := metricValue(t, ts.URL, `lowutil_request_failures_total{endpoint="ssa"}`); got != 1 {
		t.Errorf("ssa failures = %d, want 1", got)
	}
}

// TestSessionEviction bounds the LRU and asserts the oldest session falls
// out and 404s afterward.
func TestSessionEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2})
	ids := make([]string, 3)
	for i := range ids {
		src := strings.Replace(workSrc, "int total = 0;", fmt.Sprintf("int total = %d;", i), 1)
		ids[i] = compileSession(t, ts.URL, src)
	}
	if code, _ := postJSON(t, ts.URL+"/v2/vet", client.ProfileRequest{Session: ids[0]}); code != http.StatusNotFound {
		t.Errorf("evicted session status = %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v2/vet", client.ProfileRequest{Session: ids[2]}); code != http.StatusOK {
		t.Errorf("fresh session status = %d, want 200", code)
	}
	if got := metricValue(t, ts.URL, "lowutil_session_evictions_total"); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestVetAndSlice exercises the two static endpoints end to end.
func TestVetAndSlice(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)
	code, body := postJSON(t, ts.URL+"/v2/vet", client.ProfileRequest{Session: id})
	if code != http.StatusOK {
		t.Fatalf("vet: %d %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v2/slice", client.ProfileRequest{Session: id, Options: lowutil.Options{Mode: "rta", Top: 5}})
	if code != http.StatusOK {
		t.Fatalf("slice: %d %s", code, body)
	}
	var sr client.ReportResult
	json.Unmarshal(body, &sr)
	if !strings.Contains(sr.Report, "static slice") {
		t.Errorf("slice report missing header: %q", sr.Report)
	}
}

// TestConcurrentAudits drives 8 concurrent audit requests at one session
// and asserts exactly one of them ran the static analysis: the other seven
// joined the memoized entry (cache-hit counter) and all eight agree on the
// rendered report byte for byte.
func TestConcurrentAudits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 16})
	id := compileSession(t, ts.URL, workSrc)

	const n = 8
	var wg sync.WaitGroup
	responses := make([]client.ReportResult, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSON(t, ts.URL+"/v2/audit", client.ProfileRequest{Session: id})
			codes[i] = code
			json.Unmarshal(body, &responses[i])
		}(i)
	}
	wg.Wait()

	hits := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if responses[i].Report != responses[0].Report {
			t.Fatalf("request %d: report differs:\n%s\nvs\n%s", i, responses[i].Report, responses[0].Report)
		}
		if !strings.Contains(responses[i].Report, "static audit") {
			t.Fatalf("request %d: report missing header: %q", i, responses[i].Report)
		}
		if responses[i].CacheHit {
			hits++
		}
	}
	if hits != n-1 {
		t.Errorf("cache hits = %d, want %d (exactly one analysis)", hits, n-1)
	}
	if got := metricValue(t, ts.URL, "lowutil_audit_cache_misses_total"); got != 1 {
		t.Errorf("audit cache misses = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, "lowutil_audit_cache_hits_total"); got != n-1 {
		t.Errorf("audit cache hits = %d, want %d", got, n-1)
	}

	// An explicit default mode resolves to the same key: it joins the
	// memoized analysis instead of running a second.
	code, body := postJSON(t, ts.URL+"/v2/audit", client.ProfileRequest{Session: id, Options: lowutil.Options{Mode: "rta"}})
	if code != http.StatusOK {
		t.Fatalf("explicit-mode audit: status %d: %s", code, body)
	}
	var rr client.ReportResult
	json.Unmarshal(body, &rr)
	if !rr.CacheHit || rr.Report != responses[0].Report {
		t.Errorf("explicit default mode: cache_hit=%v, want a hit on the default key", rr.CacheHit)
	}
	if got := metricValue(t, ts.URL, "lowutil_audit_cache_misses_total"); got != 1 {
		t.Errorf("after the explicit default: audit cache misses = %d, want 1", got)
	}

	// A differently-keyed request runs a second analysis — and because
	// workSrc has fewer than 11 allocation sites, a top of 11 renders the
	// same bytes as the default: the analysis is deterministic.
	code, body = postJSON(t, ts.URL+"/v2/audit", client.ProfileRequest{Session: id, Options: lowutil.Options{Mode: "rta", Top: 11}})
	if code != http.StatusOK {
		t.Fatalf("distinct-key audit: status %d: %s", code, body)
	}
	rr = client.ReportResult{}
	json.Unmarshal(body, &rr)
	if rr.CacheHit {
		t.Error("distinct-key audit reported a cache hit")
	}
	if rr.Report != responses[0].Report {
		t.Errorf("re-analysis is not byte-stable:\n%s\nvs\n%s", rr.Report, responses[0].Report)
	}
	if got := metricValue(t, ts.URL, "lowutil_audit_cache_misses_total"); got != 2 {
		t.Errorf("audit cache misses = %d, want 2", got)
	}
}

// TestAuditCancellationAndDeadline covers the audit context paths: a
// client that has already gone away gets 499 and the aborted entry is
// evicted so a retry runs cleanly; an expired per-request deadline gets
// 504.
func TestAuditCancellationAndDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Minute})
	id := compileSession(t, ts.URL, workSrc)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the analysis starts
	buf, _ := json.Marshal(client.ProfileRequest{Session: id})
	req := httptest.NewRequest("POST", "/v2/audit", bytes.NewReader(buf)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("canceled audit status = %d, want 499; body %s", rec.Code, rec.Body)
	}
	sess, ok := s.sessions.get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	if n := sess.cachedAudits(); n != 0 {
		t.Errorf("canceled audit left %d cache entries, want 0", n)
	}

	// The same key retries cleanly after the eviction.
	code, body := postJSON(t, ts.URL+"/v2/audit", client.ProfileRequest{Session: id})
	if code != http.StatusOK {
		t.Fatalf("retry after cancel: status %d: %s", code, body)
	}
	var rr client.ReportResult
	json.Unmarshal(body, &rr)
	if rr.CacheHit {
		t.Error("retry after eviction reported a cache hit")
	}

	// The deadline path: an already-expired per-request timeout produces
	// 504 (the fixpoints poll the context before converging).
	_, ts2 := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	id2 := compileSession(t, ts2.URL, workSrc)
	code, body = postJSON(t, ts2.URL+"/v2/audit", client.ProfileRequest{Session: id2})
	if code != http.StatusGatewayTimeout {
		t.Errorf("deadline audit status = %d, want 504; body %s", code, body)
	}
}

// TestVetAndSSADeadline: vet and the SSA dump honor the request deadline.
// On a program whose analysis outlasts RequestTimeout both answer 504
// deadline, release their admission slot, and the next request on the
// same server succeeds.
func TestVetAndSSADeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: compiles and analyzes a 20,000-branch method")
	}
	s, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	var src strings.Builder
	src.WriteString("class Main { static void main() { int x = hash(1); int y = 0;\n")
	for k := 0; k < 20000; k++ {
		fmt.Fprintf(&src, "if (x < %d) { y = y + %d; }\n", k, k)
	}
	src.WriteString("print(y); } }\n")
	big := compileSession(t, ts.URL, src.String())
	for _, path := range []string{"/v2/vet", "/v2/ssa"} {
		code, body := postJSON(t, ts.URL+path, ssaRequest{Session: big})
		if code != http.StatusGatewayTimeout {
			t.Errorf("%s past the deadline: status %d, want 504; body %.200s", path, code, body)
			continue
		}
		if eb := decodeEnvelope(t, body); eb.Code != "deadline" || eb.Retryable {
			t.Errorf("%s: 504 envelope = %+v, want non-retryable deadline", path, eb)
		}
	}
	if n := s.gate.InFlight(); n != 0 {
		t.Errorf("%d admission slots still held after the deadlines", n)
	}
	small := compileSession(t, ts.URL, workSrc)
	for _, path := range []string{"/v2/vet", "/v2/ssa"} {
		if code, body := postJSON(t, ts.URL+path, ssaRequest{Session: small}); code != http.StatusOK {
			t.Errorf("%s after the deadlines: status %d; body %.200s", path, code, body)
		}
	}
}

// TestLegacyFieldIgnored: a profile request that still sends the removed
// "legacy" field selects the same configuration, so it joins the one
// memoized run instead of starting a second.
func TestLegacyFieldIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)
	if code, body := postJSON(t, ts.URL+"/v2/profile", client.ProfileRequest{Session: id}); code != http.StatusOK {
		t.Fatalf("profile: %d %s", code, body)
	}
	resp, err := http.Post(ts.URL+"/v2/profile", "application/json",
		strings.NewReader(fmt.Sprintf(`{"session":%q,"legacy":true}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr client.ProfileResult
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("profile with legacy: status %d, decode %v", resp.StatusCode, err)
	}
	if !pr.CacheHit {
		t.Error(`"legacy":true started a second profiling run`)
	}
}

// TestVetEngineAndSSA covers the vet endpoint and the SSA dump endpoint:
// vet answers with the SSA engine's findings whatever "engine" field a
// request sends (request decoding ignores unknown fields), and the dump
// carries SSA structure.
func TestVetEngineAndSSA(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)
	prog, err := lowutil.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{}
	for _, f := range prog.Vet() {
		want = append(want, f.Message)
	}
	for _, engine := range []string{"", "ssa", "dense", "nope"} {
		body := fmt.Sprintf(`{"session":%q,"engine":%q}`, id, engine)
		resp, err := http.Post(ts.URL+"/v2/vet", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var vr vetResponse
		err = json.NewDecoder(resp.Body).Decode(&vr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("vet with engine %q: status %d, decode %v", engine, resp.StatusCode, err)
		}
		if fmt.Sprint(vr.Findings) != fmt.Sprint(want) {
			t.Errorf("vet with engine %q: findings %q, want the SSA findings %q", engine, vr.Findings, want)
		}
	}
	code, body := postJSON(t, ts.URL+"/v2/ssa", ssaRequest{Session: id})
	if code != http.StatusOK {
		t.Fatalf("ssa: %d %s", code, body)
	}
	var dr ssaResponse
	json.Unmarshal(body, &dr)
	if !strings.Contains(dr.Dump, "phi(") && !strings.Contains(dr.Dump, "blocks=") {
		t.Errorf("ssa dump lacks SSA structure: %.200q", dr.Dump)
	}
	if code, _ := postJSON(t, ts.URL+"/v2/ssa", ssaRequest{Session: id, Method: "No.such"}); code != http.StatusBadRequest {
		t.Errorf("unknown method should 400, got %d", code)
	}
}
