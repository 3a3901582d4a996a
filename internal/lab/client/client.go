// Package client is the Go client for a remote butterflyd: submit jobs,
// query status, and fetch results over HTTP, with the retry discipline a
// load-shedding server expects. Idempotent requests — and every request
// here is idempotent, because a job submission is content-addressed and a
// duplicate submit of the same spec converges on the same cached result —
// are retried on connection errors and backpressure statuses (429, 502,
// 503, 504) with capped exponential backoff plus jitter, honoring any
// Retry-After the server sends.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
)

// ErrNotFinished is returned by Result for a job still queued or running.
var ErrNotFinished = errors.New("client: job not finished")

// APIError is a non-retryable (or retries-exhausted) HTTP-level failure.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("butterflyd: %d: %s", e.StatusCode, e.Message)
	}
	return fmt.Sprintf("butterflyd: HTTP %d", e.StatusCode)
}

// Client talks to one butterflyd base URL.
type Client struct {
	// MaxAttempts bounds each request's tries (default 8).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); each retry
	// doubles it up to MaxDelay (default 5s), then adds jitter. A server
	// Retry-After overrides the computed delay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Headers, when non-nil, is called per attempt and its entries are set
	// on the request — how a fleet coordinator stamps dispatches with its
	// epoch so fenced (replaced) coordinators are rejected by workers.
	Headers func() map[string]string

	base string
	hc   *http.Client
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:7788").
func New(base string) *Client {
	return &Client{
		MaxAttempts: 8,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		base:        strings.TrimRight(base, "/"),
		hc:          &http.Client{Timeout: 60 * time.Second},
	}
}

// Submit sends one spec. A 200 means the result was served from the
// daemon's cache at submit time; a 202 means the job was queued.
func (c *Client) Submit(ctx context.Context, spec core.Spec) (*lab.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st lab.JobStatus
	if err := c.do(ctx, http.MethodPost, "/jobs", body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*lab.JobStatus, error) {
	var st lab.JobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job the daemon knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]lab.JobStatus, error) {
	var list []lab.JobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs", nil, &list); err != nil {
		return nil, err
	}
	return list, nil
}

// Cancel requests the job stop.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, nil)
}

// Result fetches a finished job's structured result. A job still in flight
// returns ErrNotFinished; a canceled job returns an APIError with status
// 410.
func (c *Client) Result(ctx context.Context, id string) (*core.Result, error) {
	var res core.Result
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result?format=json", nil, &res); err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusConflict {
			return nil, ErrNotFinished
		}
		return nil, err
	}
	return &res, nil
}

// WaitResult blocks until the job reaches a terminal state and returns its
// result (or an error naming the terminal state for failed/canceled). Each
// request is a held result fetch (?wait=1) that the daemon answers when the
// job finishes; a 409 only means the daemon's hold expired first.
func (c *Client) WaitResult(ctx context.Context, id string) (*core.Result, error) {
	for {
		var res core.Result
		err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result?format=json&wait=1", nil, &res)
		var ae *APIError
		switch {
		case err == nil:
			return &res, nil
		case !errors.As(err, &ae):
			return nil, err
		case ae.StatusCode == http.StatusConflict:
			continue
		case ae.StatusCode == http.StatusGone:
			return nil, fmt.Errorf("client: job %s canceled: %w", id, err)
		case ae.StatusCode == http.StatusInternalServerError:
			return nil, fmt.Errorf("client: job %s failed: %w", id, err)
		}
		return nil, err
	}
}

// Experiments fetches the daemon's registry.
func (c *Client) Experiments(ctx context.Context) ([]lab.ExperimentInfo, error) {
	var list []lab.ExperimentInfo
	if err := c.do(ctx, http.MethodGet, "/experiments", nil, &list); err != nil {
		return nil, err
	}
	return list, nil
}

// Metrics fetches the daemon's scheduler metrics.
func (c *Client) Metrics(ctx context.Context) (*lab.Metrics, error) {
	var m lab.Metrics
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// WaitReady polls /readyz until the daemon reports ready (it answers 503
// during journal replay and drain) or ctx expires.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := sleepCtx(ctx, 100*time.Millisecond); err != nil {
			return fmt.Errorf("client: daemon at %s never became ready: %w", c.base, err)
		}
	}
}

// do performs one logical request with the retry policy. body is re-sent
// verbatim on each attempt; out, when non-nil, receives the decoded JSON
// response.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	delay := c.BaseDelay
	if delay <= 0 {
		delay = 100 * time.Millisecond
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.Headers != nil {
			for k, v := range c.Headers() {
				req.Header.Set(k, v)
			}
		}
		retryAfter := time.Duration(0)
		retryable := false
		resp, err := c.hc.Do(req)
		if err != nil {
			// Connection-level failure: the daemon may be restarting.
			retryable, lastErr = true, err
		} else {
			done, derr := consume(resp, out)
			if done {
				return derr
			}
			retryable = retryableStatus(resp.StatusCode)
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			lastErr = derr
		}
		if !retryable || attempt >= attempts {
			if retryable {
				return fmt.Errorf("client: gave up after %d attempts: %w", attempt, lastErr)
			}
			return lastErr
		}
		wait := delay/2 + rand.N(delay/2+1) // equal jitter over [delay/2, delay]
		if retryAfter > 0 {
			wait = retryAfter
		}
		if err := sleepCtx(ctx, wait); err != nil {
			return fmt.Errorf("client: %w (last error: %v)", err, lastErr)
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// consume reads one response. done reports that the request is settled
// (success or a non-retryable verdict the caller should see as-is).
func consume(resp *http.Response, out any) (done bool, err error) {
	defer resp.Body.Close()
	if resp.StatusCode < 300 {
		if out == nil {
			return true, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return true, fmt.Errorf("client: decode %s: %w", resp.Request.URL.Path, err)
		}
		return true, nil
	}
	var envelope struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&envelope)
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: envelope.Error}
	return !retryableStatus(resp.StatusCode), apiErr
}

// retryableStatus marks the backpressure/transient statuses.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter understands the delta-seconds form of Retry-After (the
// only form butterflyd emits).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// sleepCtx sleeps or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
