package lab

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"testing"
	"time"
)

// submitTestSweep posts a 4-point quick numa sweep and returns its ID and
// point count.
func submitTestSweep(t *testing.T, base string) (string, int) {
	t.Helper()
	var resp struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	code := doJSON(t, "POST", base+"/sweeps",
		`{"base":{"experiment":"numa","quick":true},"axes":[{"field":"nodes","values":["16..64:*2"]}]}`, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("POST /sweeps = %d", code)
	}
	if resp.ID == "" {
		t.Fatal("sweep submission carried no ID")
	}
	return resp.ID, resp.Points
}

// fetchSweepDoc GETs the streamed sweep document once it stops answering
// 409 (points still running).
func fetchSweepDoc(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/sweeps/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			return string(body)
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("GET /sweeps/%s/result = %d: %s", id, resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never finished: %s", id, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSweepStreamingResultByteIdentical: GET /sweeps/{id}/result streams a
// document byte-identical to AssembleSweep's in-process output — with
// SpoolResults on, so every table is reloaded from the cache one point at a
// time, never all in memory.
func TestSweepStreamingResultByteIdentical(t *testing.T) {
	ts, sched := testServer(t, Config{
		Workers:      2,
		Cache:        OpenCache(t.TempDir()),
		SpoolResults: true,
	})
	id, points := submitTestSweep(t, ts.URL)
	if points != 3 { // 16, 32, 64
		t.Fatalf("sweep expanded to %d points, want 3", points)
	}
	got := fetchSweepDoc(t, ts.URL, id)

	// The reference document, assembled in-process from the same jobs.
	rec, ok := sched.Sweep(id)
	if !ok {
		t.Fatalf("scheduler lost sweep %s", id)
	}
	jobs := make([]*Job, 0, len(rec.JobIDs))
	for _, jid := range rec.JobIDs {
		j, found := sched.Lookup(jid)
		if !found {
			t.Fatalf("sweep names unknown job %s", jid)
		}
		jobs = append(jobs, j)
	}
	want, err := AssembleSweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("streamed document diverges from AssembleSweep (%d vs %d bytes)", len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatal("empty sweep document")
	}

	// Status document agrees.
	var status struct {
		ID     string   `json:"id"`
		Points int      `json:"points"`
		Done   int      `json:"done"`
		Jobs   []string `json:"jobs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/sweeps/"+id, "", &status); code != http.StatusOK {
		t.Fatalf("GET /sweeps/%s = %d", id, code)
	}
	if status.Done != status.Points || len(status.Jobs) != points {
		t.Errorf("status = %+v, want all %d points done", status, points)
	}

	if code := doJSON(t, "GET", ts.URL+"/sweeps/s9999", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown sweep answered %d, want 404", code)
	}
}

// TestSweepIdentitySurvivesRestart: a journaled sweep keeps its ID and its
// grid-ordered job IDs across a scheduler restart — the property a promoted
// standby relies on to serve the sweep it never accepted.
func TestSweepIdentitySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	journalDir := filepath.Join(dir, "journal")

	j1, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewScheduler(Config{Workers: 2, Cache: OpenCache(cacheDir), Journal: j1, SpoolResults: true})
	id, jobs, err := s1.SubmitSweepTracked(Sweep{
		Base: specNuma(),
		Axes: []Axis{{Field: "nodes", Values: []string{"16", "32"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AssembleSweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	shutdownCtx(t, s1)
	j1.Close()

	// Restart: replay the journal, rebuild the sweep table.
	j2, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := NewScheduler(Config{Workers: 2, Cache: OpenCache(cacheDir), Journal: j2, SpoolResults: true})
	defer shutdownCtx(t, s2)

	rec, ok := s2.Sweep(id)
	if !ok {
		t.Fatalf("sweep %s lost across restart", id)
	}
	re := make([]*Job, 0, len(rec.JobIDs))
	for _, jid := range rec.JobIDs {
		job, found := s2.Lookup(jid)
		if !found {
			t.Fatalf("replayed sweep names unknown job %s", jid)
		}
		re = append(re, job)
	}
	got, err := AssembleSweep(re)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("reassembled sweep diverges after restart")
	}

	// New sweeps keep numbering past the replayed ones.
	id2, _, err := s2.SubmitSweepTracked(Sweep{Base: specNuma()})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restarted scheduler reissued sweep ID %s", id)
	}
}

// TestSpooledResultsReloadFromCache: with SpoolResults on, a finished job's
// in-memory result drops its table, and Wait/Result transparently reload it
// from the cache — the memory bound that lets a coordinator hold 10k-job
// sweeps.
func TestSpooledResultsReloadFromCache(t *testing.T) {
	sched := NewScheduler(Config{Workers: 1, Cache: OpenCache(t.TempDir()), SpoolResults: true})
	defer shutdownCtx(t, sched)
	job, err := sched.Submit(specNuma())
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == "" {
		t.Fatal("spooled reload returned an empty table")
	}
	// The retained (pre-reload) result really is trimmed.
	job.mu.Lock()
	trimmed := job.res.Table
	spooled := job.spooled
	job.mu.Unlock()
	if !spooled {
		t.Fatal("job not marked spooled with SpoolResults on and a cache hit")
	}
	if trimmed != "" {
		t.Fatalf("retained result still holds %d table bytes", len(trimmed))
	}
	// Reload twice: idempotent.
	res2, err := job.Result()
	if err != nil || res2.Table != res.Table {
		t.Fatalf("second reload: err=%v, tables equal=%t", err, res2 != nil && res2.Table == res.Table)
	}
}

// shutdownCtx drains a scheduler with a bounded context.
func shutdownCtx(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
