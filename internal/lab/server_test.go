package lab

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"butterfly/internal/core"
)

// testServer wires a live scheduler behind an httptest server.
func testServer(t *testing.T, cfg Config) (*httptest.Server, *Scheduler) {
	t.Helper()
	return testServerCfg(t, cfg, ServerConfig{})
}

// testServerCfg is testServer with explicit admission controls.
func testServerCfg(t *testing.T, cfg Config, scfg ServerConfig) (*httptest.Server, *Scheduler) {
	t.Helper()
	sched := NewScheduler(cfg)
	ts := httptest.NewServer(NewServerFor(sched, scfg))
	t.Cleanup(func() {
		ts.Close()
		sched.Shutdown(context.Background())
	})
	return ts, sched
}

// doJSON performs a request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestServerJobLifecycle(t *testing.T) {
	ts, _ := testServer(t, Config{Workers: 2, Cache: OpenCache(t.TempDir())})

	var sub JobStatus
	code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if sub.ID == "" || sub.Fingerprint == "" {
		t.Fatalf("submit view = %+v", sub)
	}

	// Poll until done.
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for {
		doJSON(t, "GET", ts.URL+"/jobs/"+sub.ID, "", &st)
		if st.State == StateDone || st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job finished as %s: %s", st.State, st.Error)
	}

	// Text result matches the experiment's golden table.
	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	table, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tables, _ := goldens(t); string(table) != tables["numa"] {
		t.Error("HTTP result table diverges from quick.golden")
	}

	// JSON result carries the full structured record.
	var res core.Result
	doJSON(t, "GET", ts.URL+"/jobs/"+sub.ID+"/result?format=json", "", &res)
	if res.Fingerprint != sub.Fingerprint || res.Events == 0 {
		t.Errorf("json result = %+v", res)
	}

	// Resubmitting the same spec is served from cache with 200, not 202.
	var again JobStatus
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, &again); code != http.StatusOK {
		t.Errorf("cache-hit submit status = %d", code)
	}
	if !again.CacheHit {
		t.Errorf("resubmit not marked cache hit: %+v", again)
	}

	// Job listing shows both, in submission order.
	var list []JobStatus
	doJSON(t, "GET", ts.URL+"/jobs", "", &list)
	if len(list) != 2 || list[0].ID != sub.ID {
		t.Errorf("list = %+v", list)
	}
}

func TestServerValidationAndNotFound(t *testing.T) {
	ts, _ := testServer(t, Config{Workers: 1})

	var e map[string]string
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"nonesuch"}`, &e); code != http.StatusBadRequest {
		t.Errorf("bad experiment status = %d", code)
	}
	if e["error"] == "" {
		t.Error("error envelope empty")
	}
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","warp":9}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field status = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/jobs/j9999-deadbeef", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/j9999-deadbeef", "", nil); code != http.StatusNotFound {
		t.Errorf("cancel unknown job status = %d", code)
	}
}

// TestServerResultWhileRunningConflicts: an unfinished job's result is a
// 409, and a held fetch (?wait=1) blocks on the job instead — answering
// the finished bytes, 410 on cancel, 409 when the hold expires — and is
// released when its client goes away.
func TestServerResultWhileRunningConflicts(t *testing.T) {
	hold := resultHold
	t.Cleanup(func() { resultHold = hold })
	resultHold = time.Second
	ts, _ := testServer(t, Config{Workers: 1})

	var slow JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"spread"}`, &slow)
	var queued JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, &queued)
	var doomed JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true,"nodes":32}`, &doomed)

	if code := doJSON(t, "GET", ts.URL+"/jobs/"+queued.ID+"/result", "", nil); code != http.StatusConflict {
		t.Errorf("result of queued job status = %d", code)
	}
	var qst JobStatus
	doJSON(t, "GET", ts.URL+"/jobs/"+queued.ID, "", &qst)
	if qst.State == StateQueued && qst.QueuePosition < 1 {
		t.Errorf("queued job has no queue position: %+v", qst)
	}

	// The spread job outlasts the hold, so a held fetch behind it expires.
	held := ts.URL + "/jobs/" + queued.ID + "/result?wait=1"
	start := time.Now()
	if got := fetch(context.Background(), held); got.code != http.StatusConflict || time.Since(start) < resultHold {
		t.Errorf("expired hold = %d after %v, want 409 after >= %v", got.code, time.Since(start), resultHold)
	}

	// Held fetches park on the queued jobs; canceling one answers 410, and
	// freeing the worker lets the other finish with the unheld bytes.
	queuedC := fetchAsync(held)
	doomedC := fetchAsync(ts.URL + "/jobs/" + doomed.ID + "/result?wait=1")
	waitHeld(t, 2)
	var cv JobStatus
	doJSON(t, "DELETE", ts.URL+"/jobs/"+doomed.ID, "", &cv)
	if cv.State != StateCanceled {
		t.Errorf("canceled view = %+v", cv)
	}
	if got := <-doomedC; got.code != http.StatusGone {
		t.Errorf("held fetch of a canceled job = %d, want 410", got.code)
	}
	doJSON(t, "DELETE", ts.URL+"/jobs/"+slow.ID, "", nil)
	got := <-queuedC
	plain := fetch(context.Background(), ts.URL+"/jobs/"+queued.ID+"/result")
	if got.code != http.StatusOK || plain.code != http.StatusOK || got.body != plain.body || got.body == "" {
		t.Errorf("held fetch = %d %q, unheld = %d %q; want equal 200 tables", got.code, got.body, plain.code, plain.body)
	}

	// A client that gives up mid-hold releases the handler.
	var again JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"spread","nodes":32}`, &again)
	ctx, cancel := context.WithCancel(context.Background())
	goneC := make(chan fetched, 1)
	go func() { goneC <- fetch(ctx, ts.URL+"/jobs/"+again.ID+"/result?wait=1") }()
	waitHeld(t, 1)
	start = time.Now()
	cancel()
	<-goneC
	waitHeld(t, 0)
	if waited := time.Since(start); waited > resultHold/2 {
		t.Errorf("handler released %v after its client left, want well under the %v hold", waited, resultHold)
	}
	doJSON(t, "DELETE", ts.URL+"/jobs/"+again.ID, "", nil)
}

// fetched is one raw HTTP answer (err set when there was none).
type fetched struct {
	code int
	body string
	err  error
}

func fetch(ctx context.Context, url string) fetched {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fetched{err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fetched{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return fetched{code: resp.StatusCode, body: string(b), err: err}
}

func fetchAsync(url string) <-chan fetched {
	c := make(chan fetched, 1)
	go func() { c <- fetch(context.Background(), url) }()
	return c
}

// waitHeld waits until exactly n handler goroutines are parked in a held
// result fetch. The buffer grows until the dump fits, so the count never
// comes from a truncated one.
func waitHeld(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		size := runtime.Stack(buf, true)
		for size == len(buf) {
			buf = make([]byte, 2*len(buf))
			size = runtime.Stack(buf, true)
		}
		got := bytes.Count(buf[:size], []byte("lab.awaitEvent("))
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d held result fetches parked, want %d", got, n)
		}
	}
}

func TestServerSweepAndMetrics(t *testing.T) {
	ts, sched := testServer(t, Config{Workers: 2})

	var sw sweepResponse
	code := doJSON(t, "POST", ts.URL+"/sweeps",
		`{"base":{"experiment":"numa","quick":true},"axes":[{"field":"nodes","values":["16..64:*2"]}]}`, &sw)
	if code != http.StatusAccepted {
		t.Fatalf("sweep status = %d", code)
	}
	if sw.Points != 3 || len(sw.Jobs) != 3 {
		t.Fatalf("sweep response = %+v", sw)
	}
	if code := doJSON(t, "POST", ts.URL+"/sweeps",
		`{"base":{"experiment":"numa"},"axes":[{"field":"warp","values":["9"]}]}`, nil); code != http.StatusBadRequest {
		t.Errorf("bad sweep status = %d", code)
	}

	// Wait for the sweep so metrics see completions.
	for _, jv := range sw.Jobs {
		j, ok := sched.Lookup(jv.ID)
		if !ok {
			t.Fatalf("job %s missing", jv.ID)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("sweep point: %v", err)
		}
	}

	var m Metrics
	doJSON(t, "GET", ts.URL+"/metrics", "", &m)
	if m.Workers != 2 || m.Submitted != 3 || m.Completed != 3 {
		t.Errorf("metrics = %+v", m)
	}

	var exps []ExperimentInfo
	doJSON(t, "GET", ts.URL+"/experiments", "", &exps)
	if len(exps) != len(core.Experiments()) {
		t.Errorf("experiments listed = %d", len(exps))
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %v", resp, err)
	}
	if resp != nil {
		resp.Body.Close()
	}
}

// doRaw performs a request and returns the full response (caller closes).
func doRaw(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerCancelEdgeCases pins the cancel corners: cancel while queued,
// cancel after completion (a no-op), and fetching the result of a canceled
// job (410 Gone — there will never be one).
func TestServerCancelEdgeCases(t *testing.T) {
	ts, _ := testServer(t, Config{Workers: 1})

	// Occupy the single worker so the next submission stays queued.
	var slow JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"spread"}`, &slow)
	var queued JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, &queued)

	// Cancel while queued: immediate terminal state, never runs.
	var cv JobStatus
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+queued.ID, "", &cv); code != http.StatusOK {
		t.Fatalf("cancel queued status = %d", code)
	}
	if cv.State != StateCanceled {
		t.Fatalf("queued job state after cancel = %s", cv.State)
	}

	// Result of a canceled job: 410 Gone with an error envelope.
	resp := doRaw(t, "GET", ts.URL+"/jobs/"+queued.ID+"/result", "")
	if resp.StatusCode != http.StatusGone {
		t.Errorf("result of canceled job status = %d, want 410", resp.StatusCode)
	}
	var env map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env["error"] == "" {
		t.Errorf("canceled result envelope = %v (%v)", env, err)
	}
	resp.Body.Close()

	// Unblock the worker and let a fresh job finish.
	doJSON(t, "DELETE", ts.URL+"/jobs/"+slow.ID, "", nil)
	var done JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, &done)
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for {
		doJSON(t, "GET", ts.URL+"/jobs/"+done.ID, "", &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job finished as %s: %s", st.State, st.Error)
	}

	// Cancel after completion: a no-op — the job stays done and its result
	// stays fetchable.
	var after JobStatus
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+done.ID, "", &after); code != http.StatusOK {
		t.Fatalf("cancel done status = %d", code)
	}
	if after.State != StateDone {
		t.Errorf("done job state after cancel = %s, want done", after.State)
	}
	resp = doRaw(t, "GET", ts.URL+"/jobs/"+done.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("result after post-completion cancel = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServerBackpressure floods a tiny queue with 4x its capacity of
// distinct jobs: the overflow must come back as 429 + Retry-After
// immediately (never a hang), and the accepted jobs must still drain.
func TestServerBackpressure(t *testing.T) {
	const depth = 2
	ts, sched := testServer(t, Config{Workers: 1, QueueDepth: depth})

	// One long job pins the worker so queue slots stay occupied.
	var slow JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"spread"}`, &slow)
	waitState(t, mustLookup(t, sched, slow.ID), StateRunning)

	var accepted []string
	rejected := 0
	for i := 0; i < 4*depth; i++ {
		body := fmt.Sprintf(`{"experiment":"numa","quick":true,"nodes":%d}`, 16*(i+1))
		resp := doRaw(t, "POST", ts.URL+"/jobs", body)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, st.ID)
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("burst submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if len(accepted) != depth {
		t.Errorf("accepted %d jobs, want exactly the queue depth %d", len(accepted), depth)
	}
	if rejected != 4*depth-depth {
		t.Errorf("rejected %d, want %d", rejected, 4*depth-depth)
	}

	// Free the worker: everything accepted must drain to done.
	doJSON(t, "DELETE", ts.URL+"/jobs/"+slow.ID, "", nil)
	for _, id := range accepted {
		if _, err := mustLookup(t, sched, id).Wait(); err != nil {
			t.Errorf("accepted job %s: %v", id, err)
		}
	}
}

// TestServerRateLimit exercises the per-remote token bucket: a burst beyond
// the bucket gets 429 + Retry-After before the queue is even consulted.
func TestServerRateLimit(t *testing.T) {
	ts, _ := testServerCfg(t, Config{Workers: 1, QueueDepth: 64},
		ServerConfig{RatePerSec: 0.5, RateBurst: 2})

	codes := make(map[int]int)
	var retryAfter string
	for i := 0; i < 6; i++ {
		resp := doRaw(t, "POST", ts.URL+"/jobs",
			fmt.Sprintf(`{"experiment":"numa","quick":true,"nodes":%d}`, 16*(i+1)))
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusTooManyRequests {
			retryAfter = resp.Header.Get("Retry-After")
		}
		resp.Body.Close()
	}
	if codes[http.StatusAccepted] != 2 {
		t.Errorf("accepted = %d, want the burst size 2 (codes %v)", codes[http.StatusAccepted], codes)
	}
	if codes[http.StatusTooManyRequests] != 4 {
		t.Errorf("rate-limited = %d, want 4 (codes %v)", codes[http.StatusTooManyRequests], codes)
	}
	if retryAfter == "" {
		t.Error("rate-limit 429 carried no Retry-After")
	}
}

// TestServerBodyLimit: an oversized POST body is 413, not an OOM.
func TestServerBodyLimit(t *testing.T) {
	ts, _ := testServerCfg(t, Config{Workers: 1}, ServerConfig{MaxBodyBytes: 512})
	big := `{"experiment":"` + strings.Repeat("x", 4096) + `"}`
	resp := doRaw(t, "POST", ts.URL+"/jobs", big)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestServerReadyzDrain pins the liveness/readiness split: during drain
// /healthz stays ok (the process is alive) while /readyz flips to 503 the
// moment drain begins.
func TestServerReadyzDrain(t *testing.T) {
	sched := NewScheduler(Config{Workers: 1})
	srv := NewServerFor(sched, ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		sched.Shutdown(context.Background())
	})

	check := func(path string, want int) {
		t.Helper()
		resp := doRaw(t, "GET", ts.URL+path, "")
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusOK)

	srv.BeginDrain()
	check("/healthz", http.StatusOK) // liveness must NOT drop during drain
	check("/readyz", http.StatusServiceUnavailable)
	resp := doRaw(t, "GET", ts.URL+"/readyz", "")
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz carried no Retry-After")
	}
	resp.Body.Close()
}

// TestServerUnattachedIsUnready: before a scheduler is attached (journal
// replay still running), /readyz and the API answer 503 but /healthz is ok.
func TestServerUnattachedIsUnready(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := doRaw(t, "GET", ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz before attach = %d", resp.StatusCode)
	}
	resp.Body.Close()
	for _, path := range []string{"/readyz", "/jobs", "/metrics"} {
		resp := doRaw(t, "GET", ts.URL+path, "")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s before attach = %d, want 503", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// mustLookup fetches a job the server reported.
func mustLookup(t *testing.T, s *Scheduler, id string) *Job {
	t.Helper()
	j, ok := s.Lookup(id)
	if !ok {
		t.Fatalf("job %s missing from scheduler", id)
	}
	return j
}

// TestServerSurvivesPanickingSpec: a spec whose machine override is outside
// an experiment's tolerated range (quick numa indexes node 15, so fewer
// than 16 nodes panics the machine layer) must fail that one job with a
// clear error — never take the daemon down.
func TestServerSurvivesPanickingSpec(t *testing.T) {
	ts, _ := testServer(t, Config{Workers: 1})

	var sub JobStatus
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true,"nodes":8}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for {
		doJSON(t, "GET", ts.URL+"/jobs/"+sub.ID, "", &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("panicking spec: state=%s err=%q, want failed with panic message", st.State, st.Error)
	}

	// The daemon is still healthy and still runs sane jobs.
	var ok JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, &ok)
	deadline = time.Now().Add(30 * time.Second)
	for {
		doJSON(t, "GET", ts.URL+"/jobs/"+ok.ID, "", &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follow-up job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("follow-up job finished as %s: %s", st.State, st.Error)
	}
}
