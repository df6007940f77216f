package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"lowutil/internal/jobs"
)

// metrics holds the server's counters. Everything is atomic; the rendered
// /metrics page uses the Prometheus text exposition format so standard
// scrapers work, with no dependency on a client library.
type metrics struct {
	// requests and failures hold the per-endpoint counters, by label.
	// routes fills them as it registers each instrumented route, before
	// the server serves, so the label set is the routes' and the hot path
	// only touches the counters its handler captured (atomics, no lock).
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

// endpointCounters counts one endpoint's requests and error responses.
type endpointCounters struct{ requests, failures *atomic.Int64 }

func newMetrics() *metrics {
	return &metrics{requests: make(map[string]*atomic.Int64), failures: make(map[string]*atomic.Int64)}
}

// endpoint registers the counters labeled name and returns them. Only
// route registration calls it.
func (m *metrics) endpoint(name string) endpointCounters {
	c := endpointCounters{new(atomic.Int64), new(atomic.Int64)}
	m.requests[name], m.failures[name] = c.requests, c.failures
	return c
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
	writeGauge(w, "lowutil_jobs_queued", "Jobs currently waiting in the queue.", int(js.Queued))
	writeGauge(w, "lowutil_jobs_running", "Jobs currently executing.", int(js.Running))
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
