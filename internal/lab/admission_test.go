package lab

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fakeClock advances only when told, so bucket refill is exact.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestLimiter(rate float64, burst int) (*rateLimiter, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	l := newRateLimiter(rate, burst)
	l.now = clk.now
	return l, clk
}

func TestRateLimiterBurstThenRefill(t *testing.T) {
	l, clk := newTestLimiter(2, 3) // 2 tokens/s, burst 3

	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("10.0.0.1"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := l.Allow("10.0.0.1")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Errorf("wait hint = %v, want (0, 1s] at 2 tokens/s", wait)
	}

	// Half a second refills one token at rate 2.
	clk.advance(500 * time.Millisecond)
	if ok, _ := l.Allow("10.0.0.1"); !ok {
		t.Error("refilled token denied")
	}
	if ok, _ := l.Allow("10.0.0.1"); ok {
		t.Error("second request admitted after a single-token refill")
	}

	// A long idle period refills to burst, never beyond.
	clk.advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l.Allow("10.0.0.1"); ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Errorf("admitted %d after long idle, want burst 3", admitted)
	}
}

func TestRateLimiterIsolatesKeys(t *testing.T) {
	l, _ := newTestLimiter(1, 1)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("first request for a denied")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("a's bucket should be empty")
	}
	// A different remote is unaffected by a's exhaustion.
	if ok, _ := l.Allow("b"); !ok {
		t.Error("b throttled by a's traffic")
	}
}

func TestRateLimiterEvictsIdleBuckets(t *testing.T) {
	l, clk := newTestLimiter(10, 2)
	for i := 0; i < maxBuckets; i++ {
		l.Allow(fmt.Sprintf("host-%d", i))
	}
	if len(l.buckets) != maxBuckets {
		t.Fatalf("bucket table = %d, want full at %d", len(l.buckets), maxBuckets)
	}
	// Everyone refills to full; the next new key evicts the idle crowd
	// instead of growing without bound.
	clk.advance(time.Minute)
	if ok, _ := l.Allow("newcomer"); !ok {
		t.Fatal("newcomer denied")
	}
	if len(l.buckets) > 2 {
		t.Errorf("idle buckets not evicted: %d remain", len(l.buckets))
	}
}

func TestRemoteKey(t *testing.T) {
	cases := map[string]string{
		"10.1.2.3:5555": "10.1.2.3",
		"[::1]:8080":    "::1",
		"not-an-addr":   "not-an-addr", // fall back to the raw string
	}
	for in, want := range cases {
		if got := remoteKey(in); got != want {
			t.Errorf("remoteKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRetryAfterHintColdStart: before any job has completed there is no
// observed throughput — the hint must not divide by zero and must not emit
// 0s (which would invite an immediate thundering-herd retry).
func TestRetryAfterHintColdStart(t *testing.T) {
	s := NewScheduler(Config{Workers: 1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	got := s.RetryAfterHint()
	if got < retryAfterMin || got > retryAfterMax {
		t.Fatalf("cold-start hint %v escapes [%v, %v]", got, retryAfterMin, retryAfterMax)
	}
	if got != 2*time.Second {
		t.Errorf("cold-start hint = %v, want the flat 2s fallback", got)
	}
}

// TestRetryAfterHintClampEdges pins both clamp edges: a pool whose runs
// take nanoseconds hints the 1s floor (never 0), and a pool whose runs take
// hours hints the 30s ceiling (never parks a client for minutes).
func TestRetryAfterHintClampEdges(t *testing.T) {
	fast := NewScheduler(Config{Workers: 1})
	t.Cleanup(func() { fast.Shutdown(context.Background()) })
	fast.rates.ran(10 * time.Nanosecond) // far below the floor
	if got := fast.RetryAfterHint(); got != retryAfterMin {
		t.Errorf("fast-pipeline hint = %v, want clamp to %v", got, retryAfterMin)
	}

	slow := NewScheduler(Config{Workers: 1})
	t.Cleanup(func() { slow.Shutdown(context.Background()) })
	slow.rates.ran(2 * time.Hour) // a two-hour run: far above the ceiling
	if got := slow.RetryAfterHint(); got != retryAfterMax {
		t.Errorf("slow-pipeline hint = %v, want clamp to %v", got, retryAfterMax)
	}

	// A run whose clock appears to have stepped backward (finished before
	// it started) clamps to the floor, not a negative wait.
	stepped := NewScheduler(Config{Workers: 1})
	t.Cleanup(func() { stepped.Shutdown(context.Background()) })
	stepped.rates.ran(-time.Hour)
	if got := stepped.RetryAfterHint(); got < retryAfterMin || got > retryAfterMax {
		t.Errorf("clock-step hint %v escapes the clamp", got)
	}
}

// TestRatesIgnoreIdleTime: a pool that ran jobs and then sat idle for an
// hour is no slower for it. The Retry-After hint must not grow across the
// idle hour, and jobs_per_sec must fall to zero rather than average the
// busy minute over the whole uptime.
func TestRatesIgnoreIdleTime(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	s := NewScheduler(Config{Workers: 2})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	s.clock = clock.now
	s.began = clock.now()

	// A busy minute: both workers finish a 4 s job every 4 s.
	for range 30 {
		clock.advance(2 * time.Second)
		s.rates.ran(4 * time.Second)
		s.rates.done(clock.now())
	}
	busyHint := s.RetryAfterHint()
	if busyHint != 2*time.Second {
		t.Errorf("busy hint = %v, want 4 s runs over 2 workers = 2s", busyHint)
	}
	if got := s.Metrics().JobsPerSec; got != 0.5 {
		t.Errorf("busy jobs_per_sec = %v, want 0.5", got)
	}

	clock.advance(time.Hour)
	if got := s.RetryAfterHint(); got > busyHint {
		t.Errorf("hint grew from %v to %v across an idle hour", busyHint, got)
	}
	if got := s.Metrics().JobsPerSec; got != 0 {
		t.Errorf("jobs_per_sec after an idle hour = %v, want 0", got)
	}
}

// TestClampRetryAfter covers the raw clamp on exact boundary values.
func TestClampRetryAfter(t *testing.T) {
	cases := []struct{ in, want time.Duration }{
		{-time.Second, retryAfterMin},
		{0, retryAfterMin},
		{retryAfterMin, retryAfterMin},
		{retryAfterMin + time.Millisecond, retryAfterMin + time.Millisecond},
		{retryAfterMax - time.Millisecond, retryAfterMax - time.Millisecond},
		{retryAfterMax, retryAfterMax},
		{time.Hour, retryAfterMax},
	}
	for _, tc := range cases {
		if got := clampRetryAfter(tc.in); got != tc.want {
			t.Errorf("clampRetryAfter(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
