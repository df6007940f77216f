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
	srv := server.New(server.Config{RequestTimeout: time.Minute, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	const spin = `class Main { static void main() { int i = 0; while (true) { i = i + 1; } } }`
	body, _ := json.Marshal(map[string]any{"key": "spin", "jobs": []map[string]any{{"kind": "run", "source": spin}}})
	resp, err := http.Post(base+"/v2/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Jobs []struct{ ID string } `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || len(sub.Jobs) != 1 {
		t.Fatalf("submit: %v, %+v", err, sub)
	}

	stream, err := http.Get(base + "/v2/jobs/" + sub.Jobs[0].ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	type event struct{ Type, Detail string }
	events := make(chan event)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			var ev event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events <- ev
			}
		}
	}()
	for ev := range events {
		if ev.Type == "started" {
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
	var last event
	for ev := range events {
		last = ev
	}
	if last.Type != "failed" || !strings.HasPrefix(last.Detail, "canceled") {
		t.Errorf("stream ended with %+v, want failed: canceled", last)
	}
}
