package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// SubmitBatch enqueues jobs under the idempotency key. An empty key gets
// a generated one, shared by every retry of this call, so a retried
// submission returns the original job IDs (flagged Duplicate) instead of
// enqueuing the work twice.
func (c *Client) SubmitBatch(ctx context.Context, key string, jobs []Job) (*Batch, error) {
	if len(jobs) == 0 {
		return nil, errors.New("client: empty batch")
	}
	if key == "" {
		key = newIdempotencyKey()
	}
	var out Batch
	if err := c.doJSON(ctx, http.MethodPost, "/v2/jobs", SubmitPayload{Key: key, Jobs: jobs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobStatus fetches one job's snapshot.
func (c *Client) JobStatus(ctx context.Context, jobID string) (*JobStatus, error) {
	var out JobStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(jobID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BatchStatus fetches every job of a batch, in submission order.
func (c *Client) BatchStatus(ctx context.Context, batchID string) ([]*JobStatus, error) {
	var out BatchStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(batchID), nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// errStreamFn marks an error returned by an Events callback, which must
// abort the stream without a retry.
type errStreamFn struct{ err error }

func (e *errStreamFn) Error() string { return e.err.Error() }
func (e *errStreamFn) Unwrap() error { return e.err }

// Events streams jobID's event log from sequence after+1 onward, invoking
// fn in order, until the job reaches a terminal state. A dropped
// connection reconnects with ?after=<last seen seq>, so fn sees every
// event exactly once no matter how often the stream breaks. An error from
// fn aborts the stream and is returned as-is.
func (c *Client) Events(ctx context.Context, jobID string, after int, fn func(Event) error) error {
	retries := 0
	for {
		last, terminal, err := c.streamOnce(ctx, jobID, after, fn)
		if err != nil {
			var fnErr *errStreamFn
			if errors.As(err, &fnErr) {
				return fnErr.err
			}
			if ctx.Err() != nil {
				return wrapCtxErr(ctx, err)
			}
			if !IsRetryable(err) {
				return err
			}
		} else if terminal {
			return nil
		}
		// Disconnected mid-stream (or the stream ended pre-terminal).
		// Progress resets the retry budget: a stream that keeps moving is
		// healthy even if the transport keeps dropping.
		if last > after {
			retries = 0
		} else {
			retries++
			if retries > c.maxRetries {
				if err == nil {
					err = fmt.Errorf("client: event stream for %s ended before a terminal event", jobID)
				}
				return err
			}
		}
		after = last
		if err := c.sleep(ctx, c.backoff(retries+1), retryAfterOf(err)); err != nil {
			return err
		}
	}
}

// streamOnce runs one GET of the event stream. It returns the last
// sequence number delivered to fn and whether a terminal event arrived.
func (c *Client) streamOnce(ctx context.Context, jobID string, after int, fn func(Event) error) (int, bool, error) {
	u := c.base + "/v2/jobs/" + url.PathEscape(jobID) + "/events?after=" + strconv.Itoa(after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return after, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return after, false, &transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return after, false, decodeAPIError(resp.StatusCode, resp.Header, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	last := after
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			// A line truncated by a disconnect: resume after the last
			// complete event.
			return last, false, &transportError{fmt.Errorf("truncated event line: %w", err)}
		}
		if ev.Seq <= last {
			continue // replay overlap after a reconnect race
		}
		if err := fn(ev); err != nil {
			return last, false, &errStreamFn{err}
		}
		last = ev.Seq
		if ev.Type == EventDone || ev.Type == EventFailed {
			return last, true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, false, &transportError{err}
	}
	return last, false, nil
}

// Wait follows jobID's events until it finishes and returns the final
// snapshot (including the result or typed error).
func (c *Client) Wait(ctx context.Context, jobID string) (*JobStatus, error) {
	if err := c.Events(ctx, jobID, 0, func(Event) error { return nil }); err != nil {
		return nil, err
	}
	return c.JobStatus(ctx, jobID)
}

// WaitBatch waits for every job of a batch and returns their final
// snapshots in submission order.
func (c *Client) WaitBatch(ctx context.Context, batch *Batch) ([]*JobStatus, error) {
	for _, j := range batch.Jobs {
		if err := c.Events(ctx, j.ID, 0, func(Event) error { return nil }); err != nil {
			return nil, err
		}
	}
	return c.BatchStatus(ctx, batch.ID)
}
