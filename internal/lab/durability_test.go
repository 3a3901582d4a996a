package lab

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"butterfly/internal/core"
)

// crashLogs is a journal file system that remembers what a power loss at
// this instant would leave: of the current log, the bytes its last
// successful Sync covered, and of the snapshot, the one the last directory
// sync made durable (a rename not yet synced is lost). Its gate, while
// set, holds every log Sync until released; fail makes every log Sync
// fail.
type crashLogs struct {
	syncs   atomic.Int64 // log syncs ended
	waiting atomic.Int64 // log syncs held at the gate now
	fail    atomic.Bool

	mu   sync.Mutex
	cur  *crashLog
	snap []byte // snapshot.json as of the last directory sync; nil before one
	gate chan struct{}
}

type crashLog struct {
	*os.File
	logs            *crashLogs
	written, synced atomic.Int64
}

func (c *crashLogs) openLog(path string) (logFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &crashLog{File: f, logs: c}
	c.mu.Lock()
	c.cur = l
	c.mu.Unlock()
	return l, nil
}

func (c *crashLogs) syncDir(dir string) error {
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.snap = snap
	c.mu.Unlock()
	return nil
}

func (l *crashLog) Write(p []byte) (int, error) {
	n, err := l.File.Write(p)
	l.written.Add(int64(n))
	return n, err
}

func (l *crashLog) Sync() error {
	l.logs.mu.Lock()
	gate := l.logs.gate
	l.logs.mu.Unlock()
	if gate != nil {
		l.logs.waiting.Add(1)
		<-gate
		l.logs.waiting.Add(-1)
	}
	defer l.logs.syncs.Add(1)
	if l.logs.fail.Load() {
		return errors.New("injected sync failure")
	}
	n := l.written.Load()
	err := l.File.Sync()
	if err == nil {
		l.synced.Store(n)
	}
	return err
}

// hold makes every log Sync wait until the returned release is first
// called.
func (c *crashLogs) hold() (release func()) {
	gate := make(chan struct{})
	c.mu.Lock()
	c.gate = gate
	c.mu.Unlock()
	return sync.OnceFunc(func() {
		c.mu.Lock()
		c.gate = nil
		c.mu.Unlock()
		close(gate)
	})
}

// awaitHeld waits until a log Sync is held at the gate.
func (c *crashLogs) awaitHeld(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no log sync reached the gate")
		}
		time.Sleep(time.Millisecond)
	}
}

// crash copies the journal under dir as a power loss now would leave it:
// the snapshot the last directory sync made durable, and the log cut back
// to its last successful Sync. It returns the copy's directory, for
// OpenJournal.
func (c *crashLogs) crash(t *testing.T, dir string) string {
	t.Helper()
	c.mu.Lock()
	keep, snap := c.cur.synced.Load(), c.snap
	c.mu.Unlock()
	out := t.TempDir()
	log, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		if err := os.WriteFile(filepath.Join(out, "snapshot.json"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(out, "journal.jsonl"), log[:keep], 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// openCrashJournal opens a journal under a fresh directory on a crashLogs
// file system.
func openCrashJournal(t testing.TB) (*Journal, *crashLogs, string) {
	t.Helper()
	dir := t.TempDir()
	logs := &crashLogs{}
	j, err := openJournal(dir, logs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, logs, dir
}

// recovered reopens a crash copy and returns its jobs by ID and its sweeps
// by ID.
func recovered(t *testing.T, dir string) (map[string]core.JobRecord, map[string]core.SweepRecord) {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer j.Close()
	jobs := make(map[string]core.JobRecord)
	for _, r := range j.Jobs() {
		jobs[r.JobID] = r
	}
	sweeps := make(map[string]core.SweepRecord)
	for _, sw := range j.Sweeps() {
		sweeps[sw.SweepID] = sw
	}
	return jobs, sweeps
}

// TestAnsweredWorkSurvivesCrash: whatever the server answered for survives
// a power loss right after the answer — a job its 202 accepted while it
// waits in the queue, a sweep its 202 accepted, and a job a status answer
// reported done.
func TestAnsweredWorkSurvivesCrash(t *testing.T) {
	j, logs, dir := openCrashJournal(t)
	ts, sched := testServer(t, Config{Workers: 1, Journal: j})

	// A long spread pins the one worker, so what follows stays queued.
	var pinned, queued JobStatus
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"spread"}`, &pinned); code != 202 {
		t.Fatalf("POST spread = %d", code)
	}
	waitState(t, mustLookup(t, sched, pinned.ID), StateRunning)
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, &queued); code != 202 || queued.State != StateQueued {
		t.Fatalf("POST numa = %d in state %s, want 202 queued", code, queued.State)
	}
	var sweep sweepResponse
	body := `{"base":{"experiment":"numa","quick":true},"axes":[{"field":"nodes","values":["16","17"]}]}`
	if code := doJSON(t, "POST", ts.URL+"/sweeps", body, &sweep); code != 202 || sweep.ID == "" {
		t.Fatalf("POST /sweeps = %d, id %q", code, sweep.ID)
	}

	jobs, sweeps := recovered(t, logs.crash(t, dir))
	if _, ok := jobs[queued.ID]; !ok {
		t.Errorf("job %s answered 202 is lost in a crash", queued.ID)
	}
	if got, ok := sweeps[sweep.ID]; !ok || len(got.JobIDs) != 2 {
		t.Errorf("sweep %s answered 202 is lost in a crash: %+v", sweep.ID, got)
	}
	for _, js := range sweep.Jobs {
		if _, ok := jobs[js.ID]; !ok {
			t.Errorf("sweep point %s answered 202 is lost in a crash", js.ID)
		}
	}

	// Release the worker; the queued job runs, and once a status answer
	// says done, a crash keeps it done.
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+pinned.ID, "", nil); code != 200 {
		t.Fatalf("DELETE spread = %d", code)
	}
	var st JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for st.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reported done (last %s)", queued.ID, st.State)
		}
		doJSON(t, "GET", ts.URL+"/jobs/"+queued.ID, "", &st)
	}
	jobs, _ = recovered(t, logs.crash(t, dir))
	if got := jobs[queued.ID].State; got != core.JobDone {
		t.Errorf("job %s reported done recovers as %q after a crash", queued.ID, got)
	}
}

// startJobs journals n submitted-and-started jobs and returns their IDs.
func startJobs(t testing.TB, j *Journal, n int) []string {
	t.Helper()
	base := j.MaxSeq()
	ids := make([]string, n)
	for k := range ids {
		seq := base + k + 1
		ids[k] = fmt.Sprintf("j%06d", seq)
		spec := core.Spec{Experiment: "numa", Quick: true, Nodes: 16 + seq}
		if err := j.Submitted(ids[k], seq, spec, Fingerprint(spec)); err != nil {
			t.Fatal(err)
		}
		if err := j.Started(ids[k]); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestJournalGroupCommit: K goroutines finish K jobs while the log's
// fsync is held; once it is released all K return after at most two
// syncs, because each fsync covers every record written before it began.
// Records nobody waits for cost no fsync at all.
func TestJournalGroupCommit(t *testing.T) {
	const k = 16
	j, logs, _ := openCrashJournal(t)
	ids := startJobs(t, j, k)
	if n := logs.syncs.Load(); n != 0 {
		t.Fatalf("%d syncs for submitted and started records nobody awaited, want 0", n)
	}
	if lag := j.Stats().DurableLagRecs; lag != 2*k {
		t.Fatalf("durable_lag_recs = %d, want %d", lag, 2*k)
	}

	release := logs.hold()
	base := j.Rec()
	errs := make(chan error, k)
	for _, id := range ids {
		go func() { errs <- j.Finished(id, core.JobDone, "") }()
	}
	for j.Rec() < base+k {
		time.Sleep(time.Millisecond)
	}
	release()
	for range ids {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := logs.syncs.Load(); n < 1 || n > 2 {
		t.Errorf("%d finishers took %d syncs, want 1 or 2", k, n)
	}
	st := j.Stats()
	if st.DurableLagRecs != 0 || st.Records != 3*k {
		t.Errorf("stats after the finishers = %+v, want %d records and no lag", st, 3*k)
	}
}

// TestCompactedWorkSurvivesCrash: a record the watermark covers through
// compaction, never through a log sync, survives a power loss: compaction
// moves the watermark only once the directory sync has made its snapshot's
// rename durable, so a crash cannot bring back the older snapshot beside a
// log already emptied.
func TestCompactedWorkSurvivesCrash(t *testing.T) {
	j, logs, dir := openCrashJournal(t)
	j.CompactEvery = 4
	ids := startJobs(t, j, 2) // the fourth record compacts
	if err := j.AwaitDurable(context.Background(), j.Rec()); err != nil {
		t.Fatal(err)
	}
	if n := logs.syncs.Load(); n != 0 {
		t.Fatalf("%d log syncs, want the compaction alone to cover the records", n)
	}
	jobs, _ := recovered(t, logs.crash(t, dir))
	for _, id := range ids {
		if _, ok := jobs[id]; !ok {
			t.Errorf("job %s, durable through compaction, is lost in a crash", id)
		}
	}
}

// TestAwaitDurableEnds: a waiter behind another's fsync ends with its
// context; Close wakes waiters, answering nil for a record its final
// snapshot holds and ErrJournalClosed past it.
func TestAwaitDurableEnds(t *testing.T) {
	j, logs, _ := openCrashJournal(t)
	startJobs(t, j, 1)
	rec := j.Rec()
	release := logs.hold()
	defer release()
	lead := make(chan error, 1)
	go func() { lead <- j.AwaitDurable(context.Background(), rec) }()
	logs.awaitHeld(t)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := j.AwaitDurable(ctx, rec); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("await behind a held sync = %v, want the context's deadline", err)
	}
	follow := make(chan error, 1)
	go func() { follow <- j.AwaitDurable(context.Background(), rec) }()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-follow; err != nil {
		t.Errorf("waiter woken by Close = %v, want nil: the final snapshot holds its record", err)
	}
	release()
	if err := <-lead; err != nil {
		t.Errorf("waiter whose fsync Close overtook = %v, want nil", err)
	}
	if err := j.AwaitDurable(context.Background(), rec+1); !errors.Is(err, ErrJournalClosed) {
		t.Errorf("await past a closed journal = %v, want ErrJournalClosed", err)
	}
}

// TestSyncFailureRefusesWork: after a failed fsync the journal takes no new
// record, so POST /jobs refuses the job with 503 instead of running work it
// cannot promise, /readyz turns away new traffic, and /metrics shows the
// error.
func TestSyncFailureRefusesWork(t *testing.T) {
	j, logs, _ := openCrashJournal(t)
	ts, _ := testServer(t, Config{Workers: 1, Journal: j})
	logs.fail.Store(true)
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, nil); code != 500 {
		t.Fatalf("POST whose fsync fails = %d, want 500", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true,"nodes":17}`, nil); code != 503 {
		t.Errorf("POST after a failed fsync = %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("/readyz after a failed fsync = %d, want 503", resp.StatusCode)
	}
	var m Metrics
	doJSON(t, "GET", ts.URL+"/metrics", "", &m)
	if m.Journal == nil || m.Journal.SyncError == "" {
		t.Errorf("metrics journal gauges = %+v, want the sync error", m.Journal)
	}
}

// TestMetricsReportJournalGauges: /metrics carries the journal's syncs,
// records, and durability lag.
func TestMetricsReportJournalGauges(t *testing.T) {
	j, _, _ := openCrashJournal(t)
	ts, _ := testServer(t, Config{Workers: 1, Journal: j})
	doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"numa","quick":true}`, nil)
	var m Metrics
	doJSON(t, "GET", ts.URL+"/metrics", "", &m)
	if m.Journal == nil || m.Journal.Records == 0 || m.Journal.Syncs == 0 {
		t.Errorf("metrics journal gauges = %+v, want records and syncs", m.Journal)
	}
}

// BenchmarkJournalGroupCommit finishes jobs from 1 and from 8 goroutines
// at once and reports fsyncs per terminal record: 1 alone, well under 1
// when finishers share syncs.
func BenchmarkJournalGroupCommit(b *testing.B) {
	for _, finishers := range []int{1, 8} {
		b.Run(fmt.Sprintf("finishers=%d", finishers), func(b *testing.B) {
			j, err := OpenJournal(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			j.CompactEvery = 0
			ids := startJobs(b, j, b.N*finishers)
			syncs0 := j.Stats().Syncs
			b.ResetTimer()
			var wg sync.WaitGroup
			for f := range finishers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := f; i < len(ids); i += finishers {
						if err := j.Finished(ids[i], core.JobDone, ""); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(j.Stats().Syncs-syncs0)/float64(len(ids)), "syncs/record")
		})
	}
}
