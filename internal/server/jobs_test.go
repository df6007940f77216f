package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"lowutil"
	"lowutil/client"
	"lowutil/internal/jobs"
)

// getBody GETs url and returns status + body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// waitBatch polls GET /v2/jobs/{batch} until every job is terminal.
func waitBatch(t *testing.T, base, batch string) client.BatchStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getBody(t, base+"/v2/jobs/"+batch)
		if code != http.StatusOK {
			t.Fatalf("batch status: %d: %s", code, body)
		}
		var bs client.BatchStatus
		if err := json.Unmarshal(body, &bs); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, st := range bs.Jobs {
			if !st.Terminal() {
				done = false
			}
		}
		if done {
			return bs
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("batch never finished")
	return client.BatchStatus{}
}

// TestJobsBatchMatchesSynchronous submits a profile job batch and asserts
// each job's stored payload is byte-identical to the same request served
// synchronously by a fresh server — the async path changes scheduling,
// never results.
func TestJobsBatchMatchesSynchronous(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v2/jobs", client.SubmitPayload{
		Key: "batch-sync-diff",
		Jobs: []client.Job{
			{Spec: lowutil.Request{Kind: lowutil.KindProfile, Source: workSrc}},
			{Spec: lowutil.Request{Kind: lowutil.KindReport, Source: workSrc, Options: lowutil.Options{Top: 5}}},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("submit: %d: %s", code, body)
	}
	var jr client.Batch
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Jobs) != 2 || jr.ID == "" {
		t.Fatalf("submit response: %+v", jr)
	}
	bs := waitBatch(t, ts.URL, jr.ID)
	for _, st := range bs.Jobs {
		if st.State != client.StateDone {
			t.Fatalf("job %s: %s (%+v)", st.ID, st.State, st.Err)
		}
	}

	// Cold synchronous calls — one fresh server each, so neither sees a
	// memoized run: identical bytes.
	_, ts2 := newTestServer(t, Config{})
	id := compileSession(t, ts2.URL, workSrc)
	_, syncProfile := postJSON(t, ts2.URL+"/v2/profile", client.ProfileRequest{Session: id})
	_, ts3 := newTestServer(t, Config{})
	id3 := compileSession(t, ts3.URL, workSrc)
	_, syncReport := postJSON(t, ts3.URL+"/v2/report", client.ProfileRequest{Session: id3, Options: lowutil.Options{Top: 5}})
	if got, want := compact(t, bs.Jobs[0].Result.Payload), compact(t, syncProfile); got != want {
		t.Errorf("async profile diverges from synchronous:\n%s\nvs\n%s", got, want)
	}
	if got, want := compact(t, bs.Jobs[1].Result.Payload), compact(t, syncReport); got != want {
		t.Errorf("async report diverges from synchronous:\n%s\nvs\n%s", got, want)
	}
}

// compact canonicalizes JSON framing (whitespace, trailing newline) so
// payload comparisons are about content bytes, not transport framing.
func compact(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("invalid JSON %s: %v", raw, err)
	}
	return buf.String()
}

// TestJobsIdempotentSubmission: resubmitting a batch key returns the same
// IDs flagged duplicate; conflicting reuse maps to the 409 envelope.
func TestJobsIdempotentSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := client.SubmitPayload{Key: "idem", Jobs: []client.Job{{Spec: lowutil.Request{Kind: lowutil.KindRun, Source: workSrc}}}}
	_, body := postJSON(t, ts.URL+"/v2/jobs", req)
	var first client.Batch
	json.Unmarshal(body, &first)
	_, body = postJSON(t, ts.URL+"/v2/jobs", req)
	var second client.Batch
	json.Unmarshal(body, &second)
	if first.ID != second.ID || first.Jobs[0].ID != second.Jobs[0].ID {
		t.Errorf("resubmission changed IDs: %+v vs %+v", first, second)
	}
	if !second.Jobs[0].Duplicate {
		t.Error("resubmission not flagged duplicate")
	}

	req.Jobs[0].Source = workSrc + "\n"
	code, body := postJSON(t, ts.URL+"/v2/jobs", req)
	if code != http.StatusConflict {
		t.Fatalf("conflicting reuse: %d: %s", code, body)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "conflict" {
		t.Errorf("409 envelope = %+v, want conflict", eb)
	}
}

// TestJobEventsNDJSON: the event stream is NDJSON, replays byte-identically,
// and resumes exactly from ?after=.
func TestJobEventsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := postJSON(t, ts.URL+"/v2/jobs", client.SubmitPayload{
		Key:  "events",
		Jobs: []client.Job{{Spec: lowutil.Request{Kind: lowutil.KindRun, Source: workSrc}}},
	})
	var jr client.Batch
	json.Unmarshal(body, &jr)
	waitBatch(t, ts.URL, jr.ID)
	id := jr.Jobs[0].ID

	stream := func(query string) (string, []client.Event) {
		resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		raw, _ := io.ReadAll(resp.Body)
		var evs []client.Event
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			var ev client.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			evs = append(evs, ev)
		}
		return string(raw), evs
	}

	full1, evs := stream("")
	full2, _ := stream("")
	if full1 != full2 {
		t.Errorf("replays differ:\n%s\nvs\n%s", full1, full2)
	}
	if len(evs) < 3 || evs[0].Type != client.EventQueued || evs[len(evs)-1].Type != client.EventDone {
		t.Fatalf("unexpected event trail: %+v", evs)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d, want dense from 1", i, ev.Seq)
		}
	}
	_, tail := stream("?after=1")
	if len(tail) != len(evs)-1 || tail[0].Seq != 2 {
		t.Errorf("resume from after=1: %+v", tail)
	}

	code, body := getBody(t, ts.URL+"/v2/jobs/jmissing/events")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job events: %d", code)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "not_found" {
		t.Errorf("envelope = %+v", eb)
	}

	// A negative or malformed ?after= is a 400, not a handler panic.
	for _, q := range []string{"?after=-1", "?after=bogus"} {
		code, body := getBody(t, ts.URL+"/v2/jobs/"+id+"/events"+q)
		if code != http.StatusBadRequest {
			t.Fatalf("events %s: status %d, want 400", q, code)
		}
		if eb := decodeEnvelope(t, body); eb.Code != "bad_request" {
			t.Errorf("events %s envelope = %+v, want bad_request", q, eb)
		}
	}
}

// TestJobsFaultRecovery: a one-slot session LRU makes two jobs on two
// programs, running at once, evict each other's compiled session; every
// job still completes with the correct result.
func TestJobsFaultRecovery(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	_, body := postJSON(t, ts.URL+"/v2/jobs", client.SubmitPayload{
		Key: "faults",
		Jobs: []client.Job{
			{Spec: lowutil.Request{Kind: lowutil.KindProfile, Source: workSrc}},
			{Spec: lowutil.Request{Kind: lowutil.KindAudit, Source: "// variant\n" + workSrc}},
		},
	})
	var jr client.Batch
	if err := json.Unmarshal(body, &jr); err != nil || len(jr.Jobs) != 2 {
		t.Fatalf("submit: %s (%v)", body, err)
	}
	bs := waitBatch(t, ts.URL, jr.ID)
	for _, st := range bs.Jobs {
		if st.State != client.StateDone {
			t.Fatalf("job %s: %s (%+v)", st.ID, st.State, st.Err)
		}
	}
	if got := metricValue(t, ts.URL, "lowutil_session_evictions_total"); got == 0 {
		t.Error("no session evictions; the one-slot LRU did not bite")
	}
	if got := metricValue(t, ts.URL, "lowutil_jobs_completed_total"); got != 2 {
		t.Errorf("completed metric = %d, want 2", got)
	}
}

// TestJobRequestTimeout: a job runs under the server's RequestTimeout,
// as a synchronous request does, so a job that never terminates fails
// with code deadline instead of holding its worker.
func TestJobRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 200 * time.Millisecond})
	code, body := postJSON(t, ts.URL+"/v2/jobs", client.SubmitPayload{
		Key:  "spin",
		Jobs: []client.Job{{Spec: lowutil.Request{Kind: lowutil.KindRun, Source: spinSrc}}},
	})
	if code != http.StatusOK {
		t.Fatalf("submit: %d: %s", code, body)
	}
	var jr client.Batch
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := getBody(t, ts.URL+"/v2/jobs/"+jr.Jobs[0].ID)
		var st client.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Terminal() {
			if st.State != client.StateFailed || st.Err == nil || st.Err.Code != "deadline" || st.Err.Retryable {
				t.Fatalf("spin job: state=%s err=%+v, want failed with non-retryable deadline", st.State, st.Err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("spin job still %s after 5s under a 200ms RequestTimeout", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// overDepth is a batch one job over the queue's depth, which the queue
// refuses whole.
func overDepth() client.SubmitPayload {
	b := client.SubmitPayload{Key: "over", Jobs: make([]client.Job, jobs.Depth+1)}
	for i := range b.Jobs {
		b.Jobs[i] = client.Job{Spec: lowutil.Request{Kind: lowutil.KindCompile, Source: workSrc}}
	}
	return b
}

// TestJobsQueueFullEnvelope: a batch over the queue's depth is refused
// with the retryable at_capacity envelope and enqueues nothing.
func TestJobsQueueFullEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v2/jobs", overDepth())
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %d: %s", code, body)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "at_capacity" || !eb.Retryable {
		t.Errorf("429 envelope = %+v, want retryable at_capacity", eb)
	}
	if got := metricValue(t, ts.URL, "lowutil_jobs_submitted_total"); got != 0 {
		t.Errorf("jobs submitted = %d, want 0", got)
	}
}

// submitJobs posts a batch and returns the accepted submission.
func submitJobs(t *testing.T, base string, p client.SubmitPayload) client.Batch {
	t.Helper()
	code, out := postJSON(t, base+"/v2/jobs", p)
	if code != http.StatusOK {
		t.Fatalf("submit: %d: %s", code, out)
	}
	var b client.Batch
	if err := json.Unmarshal(out, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobCompileErrorEnvelope: a failed job's error is the envelope body
// the synchronous endpoint returns for the same failure, so a job's
// compile error carries the position /v2/compile reports.
func TestJobCompileErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v2/compile", client.CompilePayload{Source: badSrc})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("compile: %d %s", code, body)
	}
	want := decodeEnvelope(t, body)
	if want.Code != "compile_error" || want.Line <= 0 || want.Col <= 0 {
		t.Fatalf("422 envelope = %+v, want a positioned compile_error", want)
	}
	b := submitJobs(t, ts.URL, client.SubmitPayload{Jobs: []client.Job{{Spec: lowutil.Request{Kind: lowutil.KindProfile, Source: badSrc}}}})
	st := waitBatch(t, ts.URL, b.ID).Jobs[0]
	if st.State != client.StateFailed || st.Err == nil || *st.Err != want {
		t.Errorf("job ended %s with %+v, want failed with the 422 body %+v", st.State, st.Err, want)
	}
}

// TestRepeatedReportJobReadsSessionMemo: a report job resubmitted under a
// new key runs through the session memo, as a repeated synchronous request
// does. Its payload is byte-identical to the first job's, the memo answers
// it (one more profile cache hit), and the profiler does not run again.
func TestRepeatedReportJobReadsSessionMemo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := client.Job{Spec: lowutil.Request{Kind: lowutil.KindReport, Source: workSrc, Options: lowutil.Options{Top: 5}}}
	run := func(key string) *client.JobStatus {
		t.Helper()
		st := waitBatch(t, ts.URL, submitJobs(t, ts.URL, client.SubmitPayload{Key: key, Jobs: []client.Job{spec}}).ID).Jobs[0]
		if st.State != client.StateDone {
			t.Fatalf("job %s: %s (%+v)", key, st.State, st.Err)
		}
		return st
	}
	first := run("first")
	hits := metricValue(t, ts.URL, "lowutil_profile_cache_hits_total")
	misses := metricValue(t, ts.URL, "lowutil_profile_cache_misses_total")
	steps := metricValue(t, ts.URL, "lowutil_profiled_steps_total")
	second := run("second")
	if !bytes.Equal(second.Result.Payload, first.Result.Payload) {
		t.Errorf("repeated job's payload differs:\n%s\nvs\n%s", second.Result.Payload, first.Result.Payload)
	}
	if got := metricValue(t, ts.URL, "lowutil_profile_cache_hits_total"); got != hits+1 {
		t.Errorf("profile cache hits = %d, want %d (the memo answers the repeated job)", got, hits+1)
	}
	if got := metricValue(t, ts.URL, "lowutil_profile_cache_misses_total"); got != misses {
		t.Errorf("profile cache misses = %d, want %d", got, misses)
	}
	if got := metricValue(t, ts.URL, "lowutil_profiled_steps_total"); got != steps {
		t.Errorf("profiled steps = %d, want %d (no second run)", got, steps)
	}
}
