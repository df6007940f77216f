package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"lowutil"
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
func waitBatch(t *testing.T, base, batch string) batchStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getBody(t, base+"/v2/jobs/"+batch)
		if code != http.StatusOK {
			t.Fatalf("batch status: %d: %s", code, body)
		}
		var bs batchStatusResponse
		if err := json.Unmarshal(body, &bs); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, st := range bs.Jobs {
			if !st.State.Terminal() {
				done = false
			}
		}
		if done {
			return bs
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("batch never finished")
	return batchStatusResponse{}
}

// TestJobsBatchMatchesSynchronous submits a profile job batch and asserts
// each job's stored payload is byte-identical to the same request served
// synchronously by a fresh server — the async path changes scheduling,
// never results.
func TestJobsBatchMatchesSynchronous(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v2/jobs", jobsRequest{
		Key: "batch-sync-diff",
		Jobs: []jobSubmission{
			{Request: lowutil.Request{Kind: lowutil.KindProfile, Source: workSrc}},
			{Request: lowutil.Request{Kind: lowutil.KindReport, Source: workSrc, Options: lowutil.Options{Top: 5}}},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("submit: %d: %s", code, body)
	}
	var jr jobsResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Jobs) != 2 || jr.Batch == "" {
		t.Fatalf("submit response: %+v", jr)
	}
	bs := waitBatch(t, ts.URL, jr.Batch)
	for _, st := range bs.Jobs {
		if st.State != jobs.StateDone {
			t.Fatalf("job %s: %s (%+v)", st.ID, st.State, st.Err)
		}
	}

	// Cold synchronous calls — one fresh server each, so neither sees a
	// memoized run: identical bytes.
	_, ts2 := newTestServer(t, Config{})
	id := compileSession(t, ts2.URL, workSrc)
	_, syncProfile := postJSON(t, ts2.URL+"/v2/profile", sessionRequest{Session: id})
	_, ts3 := newTestServer(t, Config{})
	id3 := compileSession(t, ts3.URL, workSrc)
	_, syncReport := postJSON(t, ts3.URL+"/v2/report", sessionRequest{Session: id3, Options: lowutil.Options{Top: 5}})
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
	req := jobsRequest{Key: "idem", Jobs: []jobSubmission{{Request: lowutil.Request{Kind: lowutil.KindRun, Source: workSrc}}}}
	_, body := postJSON(t, ts.URL+"/v2/jobs", req)
	var first jobsResponse
	json.Unmarshal(body, &first)
	_, body = postJSON(t, ts.URL+"/v2/jobs", req)
	var second jobsResponse
	json.Unmarshal(body, &second)
	if first.Batch != second.Batch || first.Jobs[0].ID != second.Jobs[0].ID {
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
	_, body := postJSON(t, ts.URL+"/v2/jobs", jobsRequest{
		Key:  "events",
		Jobs: []jobSubmission{{Request: lowutil.Request{Kind: lowutil.KindRun, Source: workSrc}}},
	})
	var jr jobsResponse
	json.Unmarshal(body, &jr)
	waitBatch(t, ts.URL, jr.Batch)
	id := jr.Jobs[0].ID

	stream := func(query string) (string, []jobs.Event) {
		resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		raw, _ := io.ReadAll(resp.Body)
		var evs []jobs.Event
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			var ev jobs.Event
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
	if len(evs) < 3 || evs[0].Type != jobs.EventQueued || evs[len(evs)-1].Type != jobs.EventDone {
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

// TestJobsFaultRecovery injects a transient failure on every first attempt
// while a one-slot session LRU forces the two programs to evict each
// other's compiled session between attempts; every job still completes
// with the correct result.
func TestJobsFaultRecovery(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxSessions: 1,
		Jobs: jobs.Config{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			FaultHook: func(jobID string, attempt int) error {
				if attempt == 1 {
					return jobs.Transient(fmt.Errorf("%w: injected", lowutil.ErrCanceled))
				}
				return nil
			},
		},
	})
	_, body := postJSON(t, ts.URL+"/v2/jobs", jobsRequest{
		Key: "faults",
		Jobs: []jobSubmission{
			{Request: lowutil.Request{Kind: lowutil.KindProfile, Source: workSrc}},
			{Request: lowutil.Request{Kind: lowutil.KindAudit, Source: "// variant\n" + workSrc}},
		},
	})
	var jr jobsResponse
	if err := json.Unmarshal(body, &jr); err != nil || len(jr.Jobs) != 2 {
		t.Fatalf("submit: %s (%v)", body, err)
	}
	bs := waitBatch(t, ts.URL, jr.Batch)
	for _, st := range bs.Jobs {
		if st.State != jobs.StateDone {
			t.Fatalf("job %s: %s (%+v)", st.ID, st.State, st.Err)
		}
		if st.Attempts != 2 {
			t.Errorf("job %s ran %d attempts, want 2 (one injected failure)", st.ID, st.Attempts)
		}
	}
	if got := metricValue(t, ts.URL, "lowutil_jobs_retries_total"); got != 2 {
		t.Errorf("retries metric = %d, want 2", got)
	}
	if got := metricValue(t, ts.URL, "lowutil_jobs_completed_total"); got != 2 {
		t.Errorf("completed metric = %d, want 2", got)
	}
}

// TestJobsQueueFullEnvelope: a queue at depth rejects with the retryable
// at_capacity envelope and a Retry-After header.
func TestJobsQueueFullEnvelope(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, Config{
		Jobs: jobs.Config{
			Depth: 1, Shards: 1, Workers: 1,
			FaultHook: func(string, int) error { <-block; return errors.New("never") },
		},
	})
	postJSON(t, ts.URL+"/v2/jobs", jobsRequest{Key: "fill", Jobs: []jobSubmission{{Request: lowutil.Request{Kind: lowutil.KindRun, Source: workSrc}}}})
	code, body := postJSON(t, ts.URL+"/v2/jobs", jobsRequest{Key: "over", Jobs: []jobSubmission{{Request: lowutil.Request{Kind: lowutil.KindCompile, Source: workSrc}}}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %d: %s", code, body)
	}
	if eb := decodeEnvelope(t, body); eb.Code != "at_capacity" || !eb.Retryable {
		t.Errorf("429 envelope = %+v, want retryable at_capacity", eb)
	}
}
