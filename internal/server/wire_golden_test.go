package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden")

// badSrc fails to compile at a known position.
const badSrc = `class Main { static void main() { int x = ; } }`

// TestWireGolden pins the exact bytes of the /v2 wire for one fixed
// program: every synchronous analysis body, a 422 and a 404 envelope, a
// keyed batch submission with priority and deadline_ms, its duplicate, a
// keyless one, the finished batch's status, one job's NDJSON event stream
// and a failed job's status. Requests are raw JSON and responses raw
// bytes, so the test reads the wire as any client does and a change to it
// shows up as a diff of testdata/wire.golden. -update rewrites the file.
func TestWireGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out bytes.Buffer
	exchange := func(method, path string, body any) []byte {
		t.Helper()
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "### %s %s -> %d %s\n%s", method, path, resp.StatusCode, resp.Header.Get("Content-Type"), raw)
		if !bytes.HasSuffix(raw, []byte("\n")) {
			out.WriteString("\n")
		}
		return raw
	}
	decode := func(raw []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
	}

	var compiled struct{ Session string }
	decode(exchange("POST", "/v2/compile", map[string]any{"source": workSrc}), &compiled)
	id := compiled.Session
	exchange("POST", "/v2/profile", map[string]any{"session": id})
	exchange("POST", "/v2/report", map[string]any{"session": id, "top": 3})
	exchange("POST", "/v2/slice", map[string]any{"session": id, "top": 3})
	exchange("POST", "/v2/audit", map[string]any{"session": id, "top": 3})
	exchange("POST", "/v2/run", map[string]any{"session": id})
	exchange("POST", "/v2/compile", map[string]any{"source": badSrc})
	exchange("POST", "/v2/profile", map[string]any{"session": "deadbeef"})

	type submitted struct {
		Batch string
		Jobs  []struct{ ID string }
	}
	keyed := map[string]any{"key": "wire-golden", "jobs": []map[string]any{
		{"kind": "profile", "source": workSrc, "top": 2, "priority": 2, "deadline_ms": 60000},
		{"kind": "report", "source": workSrc, "top": 4},
		{"kind": "compile", "source": badSrc},
	}}
	var kb submitted
	decode(exchange("POST", "/v2/jobs", keyed), &kb)
	exchange("POST", "/v2/jobs", keyed)
	var kl submitted
	decode(exchange("POST", "/v2/jobs", map[string]any{"jobs": []map[string]any{
		{"kind": "run", "source": workSrc, "deadline_ms": 30000},
		{"kind": "audit", "source": workSrc, "mode": "cha", "objctx": true, "priority": 1},
	}}), &kl)
	if len(kb.Jobs) != 3 || len(kl.Jobs) != 2 {
		t.Fatalf("submissions: %+v, %+v", kb, kl)
	}

	// An event stream follows its job until it is terminal, so reading
	// every stream waits for both batches.
	for _, j := range append(kb.Jobs[1:], kl.Jobs...) {
		if code, body := getBody(t, ts.URL+"/v2/jobs/"+j.ID+"/events"); code != http.StatusOK {
			t.Fatalf("events of %s: %d %s", j.ID, code, body)
		}
	}
	exchange("GET", "/v2/jobs/"+kb.Jobs[0].ID+"/events", nil)
	exchange("GET", "/v2/jobs/"+kb.Batch, nil)
	exchange("GET", "/v2/jobs/"+kb.Jobs[2].ID, nil)

	path := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire differs from %s at line %d:\n got: %.300s\nwant: %.300s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
