package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
)

// fastClient trims the retry schedule so tests spend milliseconds, not
// seconds, inside backoff sleeps.
func fastClient(base string) *Client {
	c := New(base)
	c.BaseDelay = 2 * time.Millisecond
	c.MaxDelay = 20 * time.Millisecond
	return c
}

// TestClientDrainsBurstThroughBackpressure is the acceptance scenario: a
// burst of 4x the daemon's queue capacity, pushed through the retrying
// client, must fully drain — the 429s the server emits become backoff and
// resubmission, never user-visible errors.
func TestClientDrainsBurstThroughBackpressure(t *testing.T) {
	const depth = 2
	sched := lab.NewScheduler(lab.Config{Workers: 1, QueueDepth: depth, Cache: lab.OpenCache(t.TempDir())})
	ts := httptest.NewServer(lab.NewServerFor(sched, lab.ServerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		sched.Shutdown(context.Background())
	})
	c := fastClient(ts.URL)
	c.MaxAttempts = 50 // a deep burst through a depth-2 queue needs patience

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	var failures atomic.Int32
	tables := make([]string, 4*depth)
	for i := 0; i < 4*depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := core.Spec{Experiment: "numa", Quick: true, Nodes: 16 * (i + 1)}
			st, err := c.Submit(ctx, spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				failures.Add(1)
				return
			}
			res, err := c.WaitResult(ctx, st.ID)
			if err != nil {
				t.Errorf("wait %d: %v", i, err)
				failures.Add(1)
				return
			}
			tables[i] = res.Table
		}(i)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d of %d burst jobs failed", failures.Load(), 4*depth)
	}
	// Each spec's result matches a direct in-process run.
	for i := 0; i < 4*depth; i++ {
		want, err := lab.RunSpec(core.Spec{Experiment: "numa", Quick: true, Nodes: 16 * (i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if tables[i] != want.Table {
			t.Errorf("burst job %d table diverges from direct run", i)
		}
	}
}

// TestClientRetriesAndHonorsRetryAfter: scripted server answers 429 with
// Retry-After twice, then succeeds; the client must wait at least the
// advertised delay and deliver the final answer.
func TestClientRetriesAndHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		json.NewEncoder(w).Encode(lab.JobStatus{ID: "j0001-ok"})
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	start := time.Now()
	st, err := c.Submit(context.Background(), core.Spec{Experiment: "numa"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j0001-ok" {
		t.Errorf("status = %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
	// Two enforced Retry-After waits of 1s each dominate the fast backoff.
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Errorf("client waited %v, want >= 2s of Retry-After honoring", elapsed)
	}
}

// TestClientGivesUpAfterMaxAttempts: permanent overload surfaces as an
// error naming the attempt count, not an infinite loop.
func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	c.MaxAttempts = 3
	_, err := c.Submit(context.Background(), core.Spec{Experiment: "numa"})
	if err == nil {
		t.Fatal("submit succeeded against a permanently-503 server")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("err = %v, want wrapped 503 APIError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want MaxAttempts=3", got)
	}
}

// TestClientDoesNotRetryClientErrors: a 400 is the caller's bug; retrying
// it would only hammer the server.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "spec: unknown experiment"})
	}))
	defer srv.Close()

	_, err := fastClient(srv.URL).Submit(context.Background(), core.Spec{Experiment: "nope"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls for a 400, want 1", got)
	}
}

// TestClientRetriesConnectionErrors: a daemon restart mid-conversation (the
// crash-recovery story) appears as connection errors; the client must ride
// through them once the daemon is back.
func TestClientRetriesConnectionErrors(t *testing.T) {
	sched := lab.NewScheduler(lab.Config{Workers: 1})
	t.Cleanup(func() { sched.Shutdown(context.Background()) })
	real := lab.NewServerFor(sched, lab.ServerConfig{})

	var down atomic.Bool
	down.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			// Simulate a dead daemon: sever the connection without a response.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	go func() {
		time.Sleep(20 * time.Millisecond)
		down.Store(false) // the daemon comes back
	}()
	c := fastClient(srv.URL)
	c.MaxAttempts = 30
	st, err := c.Submit(context.Background(), core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatalf("submit across restart: %v", err)
	}
	if _, err := c.WaitResult(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestClientWaitResultTerminalStates: WaitResult rides one held result
// fetch per job and names how a job without a result ended — a failed job
// with its error text, a job canceled mid-hold as canceled.
func TestClientWaitResultTerminalStates(t *testing.T) {
	sched := lab.NewScheduler(lab.Config{Workers: 2, Execute: func(ctx context.Context, spec core.Spec, _ string) (*core.Result, error) {
		if spec.Nodes == 16 {
			return nil, errors.New("injected fault: node 3 on fire")
		}
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}})
	var mu sync.Mutex
	var fetches []string
	real := lab.NewServerFor(sched, lab.ServerConfig{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			mu.Lock()
			fetches = append(fetches, r.URL.RequestURI())
			mu.Unlock()
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		sched.Shutdown(context.Background())
	})
	c := fastClient(ts.URL)
	ctx := context.Background()

	failing, err := c.Submit(ctx, core.Spec{Experiment: "numa", Quick: true, Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.WaitResult(ctx, failing.ID)
	var ae *APIError
	if err == nil || !strings.Contains(err.Error(), "failed") || !strings.Contains(err.Error(), "node 3 on fire") ||
		!errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError {
		t.Errorf("failed job: err = %v, want a 500 naming the failure and its error text", err)
	}

	stuck, err := c.Submit(ctx, core.Spec{Experiment: "numa", Quick: true, Nodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := c.WaitResult(ctx, stuck.ID)
		waited <- err
	}()
	// Cancel once the held fetch is in flight.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(fetches)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("held fetch of the stuck job never arrived")
		}
	}
	if err := c.Cancel(ctx, stuck.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err = <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitResult still blocked after the job was canceled")
	}
	if err == nil || !strings.Contains(err.Error(), "canceled") || !errors.As(err, &ae) || ae.StatusCode != http.StatusGone {
		t.Errorf("canceled job: err = %v, want a 410 reported as canceled", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, f := range fetches {
		if !strings.Contains(f, "wait=1") {
			t.Errorf("result fetch %q was not held", f)
		}
	}
	if len(fetches) != 2 {
		t.Errorf("result fetches = %q, want one held fetch per job", fetches)
	}
}

// TestClientWaitReady: readiness polling resolves once a scheduler is
// attached, mirroring the daemon's listen-then-replay startup.
func TestClientWaitReady(t *testing.T) {
	srv := lab.NewServer(lab.ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := fastClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Not ready yet: a bounded wait fails.
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := c.WaitReady(shortCtx); err == nil {
		t.Error("WaitReady succeeded with no scheduler attached")
	}
	shortCancel()

	sched := lab.NewScheduler(lab.Config{Workers: 1})
	t.Cleanup(func() { sched.Shutdown(context.Background()) })
	go func() {
		time.Sleep(10 * time.Millisecond)
		srv.Attach(sched)
	}()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady after attach: %v", err)
	}
}

// TestClientFlakyMixCappedBackoff: a server that flaps between 429 and 503
// (no Retry-After) before recovering. The client must ride through every
// failure and its sleeps must show the capped-jitter shape: each gap at
// least half the current backoff step, and no gap beyond MaxDelay plus
// scheduling slack — the exponential schedule stops growing at the cap.
func TestClientFlakyMixCappedBackoff(t *testing.T) {
	const failures = 6
	var mu sync.Mutex
	var stamps []time.Time
	statuses := []int{
		http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusServiceUnavailable, http.StatusTooManyRequests,
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := len(stamps)
		stamps = append(stamps, time.Now())
		mu.Unlock()
		if n < failures {
			w.WriteHeader(statuses[n])
			json.NewEncoder(w).Encode(map[string]string{"error": "flaky"})
			return
		}
		json.NewEncoder(w).Encode(lab.JobStatus{ID: "j0001-flaky"})
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	c.BaseDelay = 2 * time.Millisecond
	c.MaxDelay = 8 * time.Millisecond
	c.MaxAttempts = failures + 2

	start := time.Now()
	st, err := c.Submit(context.Background(), core.Spec{Experiment: "numa"})
	if err != nil {
		t.Fatalf("submit through flaky server: %v", err)
	}
	if st.ID != "j0001-flaky" {
		t.Errorf("status = %+v", st)
	}
	if got := len(stamps); got != failures+1 {
		t.Fatalf("server saw %d calls, want %d", got, failures+1)
	}
	// The whole conversation is bounded by the cap: 6 sleeps of at most
	// 8ms each, far below what an uncapped doubling schedule would reach.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("conversation took %v; backoff cap not applied", elapsed)
	}
	delay := c.BaseDelay
	for i := 1; i < len(stamps); i++ {
		gap := stamps[i].Sub(stamps[i-1])
		if gap < delay/2 {
			t.Errorf("gap %d = %v, want >= %v (jitter floor of the backoff step)", i, gap, delay/2)
		}
		// Generous slack: wall-clock sleeps on a loaded CI host overshoot.
		if gap > c.MaxDelay+250*time.Millisecond {
			t.Errorf("gap %d = %v, want <= MaxDelay %v (plus slack)", i, gap, c.MaxDelay)
		}
		if delay *= 2; delay > c.MaxDelay {
			delay = c.MaxDelay
		}
	}
}

// TestClientFailsFastAcrossNonRetryable4xx: every client-error status
// (other than 429) settles in exactly one attempt.
func TestClientFailsFastAcrossNonRetryable4xx(t *testing.T) {
	for _, code := range []int{
		http.StatusBadRequest, http.StatusForbidden, http.StatusNotFound,
		http.StatusConflict, http.StatusUnprocessableEntity,
	} {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(map[string]string{"error": "nope"})
		}))
		_, err := fastClient(srv.URL).Submit(context.Background(), core.Spec{Experiment: "numa"})
		srv.Close()
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != code {
			t.Errorf("status %d: err = %v, want APIError with that code", code, err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("status %d: server saw %d calls, want 1", code, got)
		}
	}
}
