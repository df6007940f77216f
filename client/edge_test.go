package client_test

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowutil"
	"lowutil/client"
	"lowutil/internal/server"
)

// TestRetryAfterHTTPDate: proxies and caches speak the HTTP-date form of
// Retry-After, not delay-seconds; the typed error must carry the decoded
// delay either way.
func TestRetryAfterHTTPDate(t *testing.T) {
	base, _ := newService(t, server.Config{})
	inner := forwardTo(base)
	var injected atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v2/compile" && injected.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":{"code":"at_capacity","message":"busy","retryable":true}}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c := fastClient(ts.URL, client.WithMaxRetries(0))
	_, err := c.Compile(context.Background(), workSrc)
	var ae *client.Error
	if !errors.As(err, &ae) || ae.Code != "at_capacity" {
		t.Fatalf("err = %v, want at_capacity *client.Error", err)
	}
	// The decoded delay is the distance to the date on the local clock:
	// positive, and no more than the 30s the header promised.
	if ae.RetryAfter <= 0 || ae.RetryAfter > 30*time.Second {
		t.Errorf("RetryAfter = %v, want within (0, 30s]", ae.RetryAfter)
	}
}

// forwardTo adapts a service base URL into a forwarding handler, so tests
// can put header-editing shims in front of a real service.
func forwardTo(base string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})
}

// seqRecorder fronts a service, logging every events connection's ?after=
// alongside the last sequence number the client's callback had seen when
// that connection arrived, and aborting streams after a fixed number of
// lines to force reconnects.
type seqRecorder struct {
	h          http.Handler
	lastSeq    *atomic.Int64
	abortAfter int

	mu     sync.Mutex
	afters []int
	snaps  []int
}

func (p *seqRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/events") {
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		p.mu.Lock()
		p.afters = append(p.afters, after)
		p.snaps = append(p.snaps, int(p.lastSeq.Load()))
		p.mu.Unlock()
		if p.abortAfter > 0 {
			w = &abortWriter{ResponseWriter: w, max: p.abortAfter}
		}
	}
	p.h.ServeHTTP(w, r)
}

// TestEventsReconnectAtExactSequence pins the resume contract down to the
// query parameter: every reconnect must ask for ?after=<last sequence
// number the callback saw>, not one before (duplicates) or one after
// (holes). The existing reconnect test checks the reassembled stream;
// this one checks the wire.
func TestEventsReconnectAtExactSequence(t *testing.T) {
	var lastSeq atomic.Int64
	rec := &seqRecorder{lastSeq: &lastSeq, abortAfter: 2}
	s := server.New(server.Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	rec.h = s.Handler()
	ts := httptest.NewServer(rec)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := fastClient(ts.URL)

	batch, err := c.SubmitBatch(context.Background(), "exact-seq", []client.Job{
		{Spec: client.Spec{Kind: lowutil.KindRun, Source: workSrc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	if err := c.Events(context.Background(), batch.Jobs[0].ID, 0, func(ev client.Event) error {
		seen = append(seen, ev.Seq)
		lastSeq.Store(int64(ev.Seq))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for i, seq := range seen {
		if seq != i+1 {
			t.Fatalf("delivered seqs not dense/exactly-once: %v", seen)
		}
	}
	rec.mu.Lock()
	afters, snaps := rec.afters, rec.snaps
	rec.mu.Unlock()
	if len(afters) < 2 {
		t.Fatalf("stream survived in %d connection(s); the recorder should have broken it", len(afters))
	}
	if afters[0] != 0 {
		t.Errorf("first connection asked for after=%d, want 0", afters[0])
	}
	// The client is strictly sequential — a reconnect happens only once the
	// prior connection's tail is fully delivered — so each connection's
	// after must equal the callback's high-water mark at that instant.
	for i, after := range afters {
		if after != snaps[i] {
			t.Errorf("connection %d asked for after=%d, but the callback had seen up to %d (afters %v, snaps %v)",
				i, after, snaps[i], afters, snaps)
		}
	}
}

// blankLineWriter injects an empty NDJSON line before every real one —
// some proxies and keep-alive middleboxes do this as a heartbeat, and the
// stream decoder must skip them rather than dying on a zero-length line.
type blankLineWriter struct {
	http.ResponseWriter
	injected *atomic.Int64
}

func (w *blankLineWriter) Write(b []byte) (int, error) {
	if _, err := w.ResponseWriter.Write([]byte("\n")); err != nil {
		return 0, err
	}
	w.injected.Add(1)
	return w.ResponseWriter.Write(b)
}

func (w *blankLineWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func TestEventsSkipBlankLines(t *testing.T) {
	var injected atomic.Int64
	s := server.New(server.Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			w = &blankLineWriter{ResponseWriter: w, injected: &injected}
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := fastClient(ts.URL)

	batch, err := c.SubmitBatch(context.Background(), "blank-lines", []client.Job{
		{Spec: client.Spec{Kind: lowutil.KindRun, Source: workSrc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen []client.Event
	if err := c.Events(context.Background(), batch.Jobs[0].ID, 0, func(ev client.Event) error {
		seen = append(seen, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if injected.Load() == 0 {
		t.Fatal("the shim injected no blank lines; the test exercised nothing")
	}
	for i, ev := range seen {
		if ev.Seq != i+1 {
			t.Fatalf("blank lines corrupted the stream: %+v", seen)
		}
	}
	if len(seen) == 0 || seen[len(seen)-1].Type != "done" {
		t.Fatalf("stream did not reach a terminal event: %+v", seen)
	}
}
