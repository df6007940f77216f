package main

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"lowutil/internal/server"
)

// TestServeShutdownEndsFollowedJob: a client following a running job's
// events does not hold shutdown for the whole grace. Draining the queue is
// part of shutdown, so the spinning job fails canceled, its stream delivers
// that and ends, and shutdown returns nil well inside a 3 s grace.
func TestServeShutdownEndsFollowedJob(t *testing.T) {
	events := shutdownFollowing(t, 0, "started")
	if last := events[len(events)-1]; last.Type != "failed" || !strings.HasPrefix(last.Detail, "canceled") {
		t.Errorf("stream ended with %+v, want failed: canceled", last)
	}
}

// TestServeShutdownEndsFollowedQueuedJob: the same for a client following
// a job queued behind the one worker's spinning job. The drain fails the
// queued job canceled too, so no job is left queued with no worker to run
// it, and its stream ends queued, failed.
func TestServeShutdownEndsFollowedQueuedJob(t *testing.T) {
	events := shutdownFollowing(t, 1, "queued")
	var types []string
	for _, ev := range events {
		types = append(types, ev.Type)
	}
	if last := events[len(events)-1]; strings.Join(types, ",") != "queued,failed" || !strings.HasPrefix(last.Detail, "canceled") {
		t.Errorf("stream = %+v, want queued, then failed: canceled", events)
	}
}

type streamEvent struct{ Type, Detail string }

// shutdownFollowing submits two spinning jobs to a one-worker service,
// follows job follow's events until one of type until arrives, shuts the
// service down with a 3 s grace, and returns every event the stream
// delivered. Shutdown must return nil within 2 s.
func shutdownFollowing(t *testing.T, follow int, until string) []streamEvent {
	t.Helper()
	srv := server.New(server.Config{RequestTimeout: time.Minute, JobWorkers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	const spin = `class Main { static void main() { int i = 0; while (true) { i = i + 1; } } }`
	job := map[string]any{"kind": "run", "source": spin}
	body, _ := json.Marshal(map[string]any{"key": "spin", "jobs": []map[string]any{job, job}})
	resp, err := http.Post(base+"/v2/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Jobs []struct{ ID string } `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || len(sub.Jobs) != 2 {
		t.Fatalf("submit: %v, %+v", err, sub)
	}

	stream, err := http.Get(base + "/v2/jobs/" + sub.Jobs[follow].ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	events := make(chan streamEvent)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			var ev streamEvent
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events <- ev
			}
		}
	}()
	var got []streamEvent
	for ev := range events {
		got = append(got, ev)
		if ev.Type == until {
			break
		}
	}

	start := time.Now()
	if err := shutdown(hs, srv, 3*time.Second); err != nil {
		t.Fatalf("shutdown: %v after %v", err, time.Since(start))
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("shutdown took %v of its 3s grace", d)
	}
	for ev := range events {
		got = append(got, ev)
	}
	return got
}
