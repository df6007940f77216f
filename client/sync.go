package client

import (
	"context"
	"errors"
	"net/http"
)

// Synchronous endpoints: the same retry/backoff/typed-error treatment,
// applied to the service's direct /v2/* calls. Compile is idempotent on
// the server (sessions are content-addressed), so retrying a compile
// never duplicates state; profile runs are memoized per session and
// configuration, so a retried profile joins the original run.

// Compile compiles source on the service and returns its session — the
// handle every other call takes. Sessions are content-addressed:
// compiling the same source again returns the same session.
func (c *Client) Compile(ctx context.Context, source string) (*CompileResult, error) {
	return c.CompileAt(ctx, source, "", "")
}

// CompileAt compiles source with an explicit entry point (empty strings
// mean Main.main).
func (c *Client) CompileAt(ctx context.Context, source, mainClass, mainMethod string) (*CompileResult, error) {
	if source == "" {
		return nil, errors.New("client: empty source")
	}
	var out CompileResult
	err := c.doJSON(ctx, http.MethodPost, "/v2/compile",
		CompilePayload{Source: source, MainClass: mainClass, MainMethod: mainMethod}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Profile runs (or joins the memoized) profiling configuration and
// returns the ranked low-utility structures.
func (c *Client) Profile(ctx context.Context, req ProfileRequest) (*ProfileResult, error) {
	var out ProfileResult
	if err := c.doJSON(ctx, http.MethodPost, "/v2/profile", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Report renders the full text report for a profiling configuration.
func (c *Client) Report(ctx context.Context, req ProfileRequest) (*ReportResult, error) {
	var out ReportResult
	if err := c.doJSON(ctx, http.MethodPost, "/v2/report", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz reports whether the service answers its liveness probe.
func (c *Client) Healthz(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil)
}
