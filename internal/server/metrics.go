package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"lowutil/internal/jobs"
)

// endpoints is the fixed label set for per-endpoint counters; building the
// maps once at construction keeps the hot path lock-free (atomics only).
var endpoints = []string{"compile", "profile", "report", "slice", "audit", "vet", "run", "save", "load", "jobs", "job", "events"}

// metrics holds the server's counters. Everything is atomic; the rendered
// /metrics page uses the Prometheus text exposition format so standard
// scrapers work, with no dependency on a client library.
type metrics struct {
	requests map[string]*atomic.Int64
	failures map[string]*atomic.Int64

	sessionsCreated  atomic.Int64
	sessionHits      atomic.Int64
	sessionMisses    atomic.Int64
	sessionEvictions atomic.Int64

	profileHits   atomic.Int64
	profileMisses atomic.Int64

	auditHits   atomic.Int64
	auditMisses atomic.Int64

	profiledSteps atomic.Int64
	rejected      atomic.Int64
}

func newMetrics() *metrics {
	m := &metrics{
		requests: make(map[string]*atomic.Int64, len(endpoints)),
		failures: make(map[string]*atomic.Int64, len(endpoints)),
	}
	for _, e := range endpoints {
		m.requests[e] = new(atomic.Int64)
		m.failures[e] = new(atomic.Int64)
	}
	return m
}

func (m *metrics) request(endpoint string) {
	if c := m.requests[endpoint]; c != nil {
		c.Add(1)
	}
}

func (m *metrics) failure(endpoint string) {
	if c := m.failures[endpoint]; c != nil {
		c.Add(1)
	}
}

// render writes the exposition page. live/inFlight/capacity and js are
// sampled gauges and counters supplied by the server.
func (m *metrics) render(w io.Writer, live, inFlight, capacity int, js jobs.Stats) {
	writeCounterVec(w, "lowutil_requests_total", "Requests served, by endpoint.", m.requests)
	writeCounterVec(w, "lowutil_request_failures_total", "Requests that ended in an error response, by endpoint.", m.failures)
	writeCounter(w, "lowutil_sessions_created_total", "Sessions compiled and inserted into the cache.", m.sessionsCreated.Load())
	writeCounter(w, "lowutil_session_cache_hits_total", "Requests satisfied by an existing session.", m.sessionHits.Load())
	writeCounter(w, "lowutil_session_cache_misses_total", "Requests that referenced no live session.", m.sessionMisses.Load())
	writeCounter(w, "lowutil_session_evictions_total", "Sessions evicted by the LRU bound.", m.sessionEvictions.Load())
	writeCounter(w, "lowutil_profile_cache_hits_total", "Profile queries satisfied by a memoized run.", m.profileHits.Load())
	writeCounter(w, "lowutil_profile_cache_misses_total", "Profile queries that ran the profiler.", m.profileMisses.Load())
	writeCounter(w, "lowutil_audit_cache_hits_total", "Audit queries satisfied by a memoized analysis.", m.auditHits.Load())
	writeCounter(w, "lowutil_audit_cache_misses_total", "Audit queries that ran the static analysis.", m.auditMisses.Load())
	writeCounter(w, "lowutil_profiled_steps_total", "Instruction instances executed by profiling runs.", m.profiledSteps.Load())
	writeCounter(w, "lowutil_rejected_total", "Requests rejected by admission control.", m.rejected.Load())
	writeCounter(w, "lowutil_jobs_submitted_total", "Batch jobs accepted by the queue.", js.Submitted)
	writeCounter(w, "lowutil_jobs_deduped_total", "Batch jobs answered from an existing idempotent submission.", js.Deduped)
	writeCounter(w, "lowutil_jobs_completed_total", "Batch jobs finished successfully.", js.Completed)
	writeCounter(w, "lowutil_jobs_failed_total", "Batch jobs finished in failure.", js.Failed)
	writeCounter(w, "lowutil_job_result_hits_total", "Job executions satisfied by the content-addressed result store.", js.ResultHits)
	writeCounter(w, "lowutil_job_result_misses_total", "Job executions that ran the executor.", js.ResultMisses)
	writeCounter(w, "lowutil_job_result_evictions_total", "Job results dropped by the store LRU bound.", js.Evictions)
	writeGauge(w, "lowutil_jobs_queued", "Jobs currently waiting in the queue.", int(js.Queued))
	writeGauge(w, "lowutil_jobs_running", "Jobs currently executing.", int(js.Running))
	writeGauge(w, "lowutil_job_results_live", "Job results currently resident in the store.", js.Results)
	writeGauge(w, "lowutil_sessions_live", "Sessions currently resident in the cache.", live)
	writeGauge(w, "lowutil_inflight_requests", "Heavy requests currently holding an admission slot.", inFlight)
	writeGauge(w, "lowutil_inflight_capacity", "Admission slots available in total.", capacity)
}

func writeCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(w io.Writer, name, help string, v int) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

func writeCounterVec(w io.Writer, name, help string, vec map[string]*atomic.Int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	keys := make([]string, 0, len(vec))
	for k := range vec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{endpoint=%q} %d\n", name, k, vec[k].Load())
	}
}
