package lab

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"butterfly/internal/core"
)

// checkPositions compares every job's queue position with its definition:
// 1 plus the number of queued jobs with a smaller seq, 0 when not queued.
// It holds every job's lock at once, so the positions and the states they
// are checked against come from one moment even while workers move jobs.
// It returns the positions it checked, by job ID.
func checkPositions(t *testing.T, s *Scheduler, step string) map[string]int {
	t.Helper()
	jobs := s.Jobs()
	for _, j := range jobs {
		j.mu.Lock()
	}
	want := make(map[string]int, len(jobs))
	got := make(map[string]int, len(jobs))
	for _, j := range jobs {
		if j.state == StateQueued {
			pos := 1
			for _, o := range jobs {
				if o.seq < j.seq && o.state == StateQueued {
					pos++
				}
			}
			want[j.ID] = pos
		}
		got[j.ID] = j.queuePositionLocked()
	}
	for _, j := range jobs {
		j.mu.Unlock()
	}
	for _, j := range jobs {
		if got[j.ID] != want[j.ID] {
			t.Fatalf("%s: job %s queue position = %d, scan says %d", step, j.ID, got[j.ID], want[j.ID])
		}
	}
	return want
}

// checkStablePositions is checkPositions for a queue nothing is draining,
// where QueuePosition itself can be read after the snapshot.
func checkStablePositions(t *testing.T, s *Scheduler, step string) {
	t.Helper()
	want := checkPositions(t, s, step)
	for _, j := range s.Jobs() {
		if pos := s.QueuePosition(j); pos != want[j.ID] {
			t.Fatalf("%s: QueuePosition(%s) = %d, scan says %d", step, j.ID, pos, want[j.ID])
		}
	}
}

// TestQueuePositionMatchesScan checks the counted queue positions against
// a scan of every job, on a live queue and on one rebuilt from a journal.
func TestQueuePositionMatchesScan(t *testing.T) {
	t.Run("live", testQueuePositionLive)
	t.Run("replay", testQueuePositionReplay)
}

// testQueuePositionLive drives submissions, cancellations, a cache hit,
// and a drain through one scheduler and checks every position after every
// step.
func testQueuePositionLive(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, QueueDepth: 320, Cache: OpenCache(t.TempDir())})
	defer shutdownCtx(t, s)

	cached := core.Spec{Experiment: "numa", Quick: true, Nodes: 16}
	first, err := s.Submit(cached)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}

	pinned, err := s.Submit(core.Spec{Experiment: "spread"}) // seconds of work
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, pinned, StateRunning)
	checkStablePositions(t, s, "pinned")

	var queued []*Job
	for n := 17; n < 17+200; n++ {
		j, err := s.Submit(core.Spec{Experiment: "numa", Quick: true, Nodes: n})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
		checkStablePositions(t, s, fmt.Sprintf("submit nodes=%d", n))
	}

	rng := rand.New(rand.NewSource(14))
	for _, i := range rng.Perm(len(queued))[:70] {
		queued[i].Cancel()
		checkStablePositions(t, s, "cancel "+queued[i].ID)
	}

	hit, err := s.Submit(cached)
	if err != nil {
		t.Fatal(err)
	}
	if st := hit.State(); st != StateDone {
		t.Fatalf("resubmitted cached spec is %s, want done", st)
	}
	checkStablePositions(t, s, "cache hit")
	// A hit is queued but uncounted from its Submitted record until its
	// finish; a Cancel landing in that window must leave the count alone.
	window := &Job{ID: "window", seq: first.seq, sched: s, done: make(chan struct{}), state: StateQueued}
	window.Cancel()
	checkStablePositions(t, s, "cancel in a hit's window")

	pinned.Cancel()
	deadline := time.Now().Add(60 * time.Second)
	for step := 0; ; step++ {
		if len(checkPositions(t, s, fmt.Sprintf("drain step %d", step))) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue did not drain")
		}
	}
	for _, j := range queued {
		if _, err := j.Wait(); err != nil && j.State() != StateCanceled {
			t.Fatalf("job %s: %v", j.ID, err)
		}
	}
	checkStablePositions(t, s, "drained")
}

// testQueuePositionReplay: the jobs NewScheduler requeues from a journal
// line up 1..k in seq order; the ones it restores as terminal take no
// place in line.
func testQueuePositionReplay(t *testing.T) {
	dir := t.TempDir()
	jr, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(n int) core.Spec { return core.Spec{Experiment: "numa", Quick: true, Nodes: 16 + n} }
	for seq := 1; seq <= 12; seq++ {
		id := fmt.Sprintf("j%04d", seq)
		if err := jr.Submitted(id, seq, spec(seq), Fingerprint(spec(seq))); err != nil {
			t.Fatal(err)
		}
		switch seq % 4 {
		case 1: // running at the crash: requeued
			err = jr.Started(id)
		case 2: // failed: restored terminal
			err = jr.Finished(id, StateFailed, "boom")
		case 3: // canceled: restored terminal
			err = jr.Finished(id, StateCanceled, ErrCanceled.Error())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := NewScheduler(Config{Workers: 1, Journal: jr2,
		Execute: func(context.Context, core.Spec, string) (*core.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return &core.Result{}, nil
		}})
	defer func() {
		close(release)
		shutdownCtx(t, s)
		jr2.Close()
	}()
	if rec := s.Recovery(); rec.Requeued != 6 || rec.Restored != 6 {
		t.Fatalf("recovery = %+v, want 6 requeued and 6 restored", rec)
	}

	<-started // the worker holds the first requeued job
	want := checkPositions(t, s, "replayed")
	var positions []string
	for _, j := range s.Jobs() {
		if p := want[j.ID]; p > 0 {
			positions = append(positions, fmt.Sprintf("%s:%d", j.ID, p))
		}
	}
	// Requeued: seqs 1, 4, 5, 8, 9, 12; the worker took seq 1.
	if got, exp := strings.Join(positions, " "), "j0004:1 j0005:2 j0008:3 j0009:4 j0012:5"; got != exp {
		t.Fatalf("queue after replay = %q, want %q", got, exp)
	}
}

// TestStatusReadsNoCacheBlob: job status is answered from the in-memory
// header of a spooled result, never by reloading its blob, so a status poll
// does no disk read and a lost blob shows only where the table is served.
func TestStatusReadsNoCacheBlob(t *testing.T) {
	cache := OpenCache(t.TempDir())
	ts, sched := testServer(t, Config{Workers: 1, Cache: cache, SpoolResults: true})

	// switch at quick scale runs for tens of milliseconds, so its wall_ms
	// is never rounded away to 0 (numa's would be).
	var sub JobStatus
	if code := doJSON(t, "POST", ts.URL+"/jobs", `{"experiment":"switch","quick":true}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	job := mustLookup(t, sched, sub.ID)
	<-job.Done()
	job.mu.Lock()
	header := *job.res
	spooled := job.spooled
	job.mu.Unlock()
	if !spooled {
		t.Fatal("finished job was not spooled")
	}

	before := cache.Stats()
	var st JobStatus
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+sub.ID, "", &st); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("GET /jobs/{id} = %d, state %s", code, st.State)
	}
	var list []JobStatus
	if code := doJSON(t, "GET", ts.URL+"/jobs", "", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("GET /jobs = %d with %d jobs", code, len(list))
	}
	after := cache.Stats()
	if after.Hits+after.Misses != before.Hits+before.Misses {
		t.Fatalf("status requests read the cache: %+v before, %+v after", before, after)
	}

	if err := os.Truncate(cache.file(), 0); err != nil {
		t.Fatal(err)
	}
	st = JobStatus{}
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+sub.ID, "", &st); code != http.StatusOK {
		t.Fatalf("GET /jobs/{id} after blob loss = %d", code)
	}
	if st.Error != "" {
		t.Errorf("status after blob loss carries error %q", st.Error)
	}
	if wantMs := header.WallNs / int64(time.Millisecond); st.WallMs != wantMs || st.WallMs == 0 {
		t.Errorf("status wall_ms = %d, header says %d ms (%d ns)", st.WallMs, wantMs, header.WallNs)
	}
	var body map[string]string
	if code := doJSON(t, "GET", ts.URL+"/jobs/"+sub.ID+"/result", "", &body); code != http.StatusInternalServerError ||
		!strings.Contains(body["error"], "lost from cache") {
		t.Fatalf("GET result after blob loss = %d %q, want 500 lost from cache", code, body["error"])
	}
}

// benchStatusSink keeps BenchmarkStatusView's result live.
var benchStatusSink JobStatus

// BenchmarkStatusView times the status answer for the last queued job of a
// scheduler holding 1k, 10k, and 100k jobs, half of them queued. Its cost
// should not grow with the number held.
func BenchmarkStatusView(b *testing.B) {
	for _, held := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			s := &Scheduler{jobs: make(map[string]*Job, held)}
			var last *Job
			for seq := 1; seq <= held; seq++ {
				j := &Job{ID: fmt.Sprintf("j%06d", seq), seq: seq, sched: s, done: make(chan struct{}),
					state: StateDone, res: &core.Result{WallNs: int64(time.Millisecond)}}
				if seq%2 == 0 {
					j.state, j.res, j.counted = StateQueued, nil, true
					s.queued.add(seq, 1)
					last = j
				}
				s.jobs[j.ID] = j
				s.order = append(s.order, j.ID)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchStatusSink, _ = statusView(last)
			}
			if want := held / 2; benchStatusSink.QueuePosition != want {
				b.Fatalf("queue position = %d, want %d", benchStatusSink.QueuePosition, want)
			}
		})
	}
}
