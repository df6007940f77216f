package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lowutil"
)

// ErrCanceled is the facade's cancellation sentinel. A call aborted by
// the caller's context, or answered by the service's 499 (client closed
// request), satisfies errors.Is(err, client.ErrCanceled).
var ErrCanceled = lowutil.ErrCanceled

// Error is the service's unified error envelope as a Go error: the HTTP
// status plus the typed body every /v2/* endpoint returns. Codes
// "canceled" and "deadline" unwrap to the matching facade sentinels so
// errors.Is works across the wire.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable error class ("at_capacity",
	// "canceled", "deadline", "not_found", "bad_request", "conflict", ...).
	Code string
	// Message is the human-readable description.
	Message string
	// Retryable reports whether the service expects a backed-off retry of
	// the same request to succeed.
	Retryable bool
	// RetryAfter is the service's requested backoff, when it sent one.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("lowutil service: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// Unwrap maps wire-level cancellation codes back onto the facade's
// sentinels.
func (e *Error) Unwrap() error {
	switch e.Code {
	case "canceled":
		return ErrCanceled
	case "deadline":
		return context.DeadlineExceeded
	}
	return nil
}

// CompileError mirrors lowutil.CompileError across the wire: the service
// rejected the submitted source, with position information when the
// compiler produced any.
type CompileError struct {
	Message string
	Line    int
	Col     int
}

func (e *CompileError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("compile: %d:%d: %s", e.Line, e.Col, e.Message)
	}
	return "compile: " + e.Message
}

// ProfileError mirrors lowutil.ProfileError across the wire: a profiling
// or analysis run failed on the service, in the given stage.
type ProfileError struct {
	Stage   string
	Message string
}

func (e *ProfileError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("profile (%s): %s", e.Stage, e.Message)
	}
	return "profile: " + e.Message
}

// transportError marks connection-level failures (refused, reset,
// mid-body disconnect); always retryable.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// IsRetryable reports whether retrying the call that produced err can
// succeed: transport failures, plus API errors the service marked
// retryable (429 admission rejections, canceled runs) or bare 5xx
// responses without a parseable envelope.
func IsRetryable(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Retryable
	}
	return false
}

// decodeAPIError turns a non-2xx response into the matching typed error.
func decodeAPIError(status int, h http.Header, body []byte) error {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		// No parseable envelope (a proxy, a crash): 5xx and 429 are worth
		// retrying, everything else is final.
		return &Error{
			Status:    status,
			Code:      "internal",
			Message:   fmt.Sprintf("http %d: %s", status, truncate(body)),
			Retryable: status >= 500 || status == http.StatusTooManyRequests,
		}
	}
	switch env.Error.Code {
	case "compile_error":
		return &CompileError{Message: env.Error.Message, Line: env.Error.Line, Col: env.Error.Col}
	case "profile_error":
		return &ProfileError{Stage: env.Error.Stage, Message: env.Error.Message}
	}
	return &Error{
		Status:     status,
		Code:       env.Error.Code,
		Message:    env.Error.Message,
		Retryable:  env.Error.Retryable,
		RetryAfter: parseRetryAfter(h),
	}
}

func truncate(b []byte) string {
	const max = 200
	s := string(b)
	if len(s) > max {
		return s[:max] + "…"
	}
	return s
}
