package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"lowutil"
	"lowutil/client"
)

// FuzzDecodeRequest feeds each input, as a request body, to the decoder of
// every /v2 request type, and each job of a decoded submission through the
// checks POST /v2/jobs runs before it enqueues anything (Validate and
// checkSlots). Nothing may panic, and every error must map to a 4xx
// envelope: a hostile body is the client's fault, never a 500.
func FuzzDecodeRequest(f *testing.F) {
	files, err := filepath.Glob("../fuzzgen/corpus/*.mj")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		for _, body := range []any{
			client.CompilePayload{Source: string(src)},
			client.SubmitPayload{Key: "seed", Jobs: []client.Job{
				{Spec: lowutil.Request{Kind: lowutil.KindProfile, Source: string(src)}},
				{Spec: lowutil.Request{Kind: lowutil.KindAudit, Source: string(src), Options: lowutil.Options{Mode: "cha"}}, Priority: 2},
			}},
		} {
			raw, err := json.Marshal(body)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	for _, body := range []string{
		`{"source": "class Main { static void main() { print(1); `,
		`{"jobs": [{"kind": "run", "source": "class Main {`,
		`{"session": 7, "slots": "many", "objctx": "yes"}`,
		`{"jobs": {"kind": "run"}}`,
		`{"jobs": [{"kind": "run", "source": 1, "priority": "high"}]}`,
		`{"jobs": [{"kind": "bogus", "source": "class A { }"}]}`,
		`{"jobs": [{"kind": "audit", "mode": "bogus", "source": "class A { }"}]}`,
		`{"jobs": [{"kind": "profile", "source": ""}]}`,
		`{"jobs": [{"kind": "profile", "slots": 1099511627776, "source": "class Main { static void main() { print(1); } }"}]}`,
		`{"session": "s", "profile": {"nodes": [`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		check := func(what string, err error) {
			if err == nil {
				return
			}
			if status, eb := classifyErr(err); status < 400 || status >= 500 {
				t.Fatalf("%s: %v maps to %d %s, want a 4xx", what, err, status, eb.Code)
			}
		}
		req := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v2/", bytes.NewReader(body))
		}
		_, err := decode[client.CompilePayload](req())
		check("compile", err)
		_, err = decode[client.ProfileRequest](req())
		check("session", err)
		_, err = decode[ssaRequest](req())
		check("ssa", err)
		_, err = decode[loadRequest](req())
		check("load", err)
		jr, err := decode[client.SubmitPayload](req())
		check("jobs", err)
		if err != nil {
			return
		}
		for _, j := range jr.Jobs {
			check("validate", j.Spec.Validate())
			check("slots", s.checkSlots(j.Spec))
		}
	})
}
