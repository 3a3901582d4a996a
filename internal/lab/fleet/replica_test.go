package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
)

// openTestJournal opens a journal in a fresh temp dir and closes it with
// the test.
func openTestJournal(t testing.TB) *lab.Journal {
	t.Helper()
	j, err := lab.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// primaryFor serves a journal's replication endpoint over httptest.
func primaryFor(t testing.TB, j *lab.Journal) (*Replicator, *httptest.Server) {
	t.Helper()
	rep := NewReplicator(j)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /replica/pull", rep.HandlePull)
	hts := httptest.NewServer(mux)
	t.Cleanup(hts.Close)
	return rep, hts
}

// TestEpochGateMiddleware: requests without an epoch header pass untouched;
// a stale epoch is rejected with 412 before reaching the handler; a newer
// epoch raises the fence and passes.
func TestEpochGateMiddleware(t *testing.T) {
	var gate EpochGate
	var reached atomic.Int32
	h := gate.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(epoch string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		if epoch != "" {
			req.Header.Set(EpochHeader, epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get(""); got != http.StatusOK {
		t.Fatalf("headerless request answered %d, want 200", got)
	}
	if got := get("3"); got != http.StatusOK { // first epoch seen: raises the fence
		t.Fatalf("epoch 3 answered %d, want 200", got)
	}
	if gate.Current() != 3 {
		t.Fatalf("gate = %d after observing 3", gate.Current())
	}
	if got := get("2"); got != http.StatusPreconditionFailed {
		t.Fatalf("stale epoch 2 answered %d, want 412", got)
	}
	if got := get("5"); got != http.StatusOK { // takeover: fence rises
		t.Fatalf("epoch 5 answered %d, want 200", got)
	}
	if got := get("notanumber"); got != http.StatusBadRequest {
		t.Fatalf("garbage epoch answered %d, want 400", got)
	}
	if reached.Load() != 3 { // headerless + epoch 3 + epoch 5
		t.Fatalf("handler reached %d times, want 3", reached.Load())
	}
}

// TestReplicationStreamsJournal: a follower pulling an active primary ends
// up with a faithful, same-numbering copy — jobs, sweeps, epoch —
// and the primary's lag gauge for it drains to zero. Records stream over
// held pulls: with DeadAfter an hour, a failed pull would stall the test.
func TestReplicationStreamsJournal(t *testing.T) {
	primary := openTestJournal(t)
	rep, hts := primaryFor(t, primary)

	if _, err := primary.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Submitted("j0001-aaaa", 1, core.Spec{Experiment: "numa", Quick: true}, "fp-a"); err != nil {
		t.Fatal(err)
	}
	if err := primary.SweepSubmitted("s0001", []string{"j0001-aaaa"}); err != nil {
		t.Fatal(err)
	}

	standby := openTestJournal(t)
	f := NewFollower(FollowerConfig{
		Self:      core.WorkerRecord{ID: "sb", URL: "http://sb"},
		Primary:   hts.URL,
		Journal:   standby,
		DeadAfter: time.Hour, // never take over in this test
		Logf:      t.Logf,
	})
	f.Start()
	defer f.Stop()

	waitFor(t, "standby to catch up", func() bool { return standby.Rec() == primary.Rec() })

	// More records after the initial sync: the stream keeps flowing.
	if err := primary.Finished("j0001-aaaa", core.JobDone, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby to stream the new record", func() bool { return standby.Rec() == primary.Rec() })

	if got, want := standby.Epoch(), primary.Epoch(); got != want {
		t.Errorf("standby epoch %d, primary %d", got, want)
	}
	jobs := standby.Jobs()
	if len(jobs) != 1 || jobs[0].State != core.JobDone {
		t.Fatalf("standby jobs = %+v, want one done job", jobs)
	}
	if sw := standby.Sweeps(); len(sw) != 1 || sw[0].SweepID != "s0001" || len(sw[0].JobIDs) != 1 {
		t.Fatalf("standby sweeps = %+v", sw)
	}

	waitFor(t, "primary lag gauge to drain", func() bool {
		fs := rep.Followers()
		return len(fs) == 1 && fs[0].ID == "sb" && fs[0].LagRecs == 0
	})
	if urls := rep.FollowerURLs(); len(urls) != 1 || urls[0] != "http://sb" {
		t.Errorf("FollowerURLs = %v", urls)
	}
}

// TestFollowerAcksOnlyDurable: every pull a standby sends acknowledges only
// records already on its disk — when the primary's pull handler receives
// AfterRec = n, the standby journal's durability watermark is at least n —
// so the primary never counts as replicated a record that a standby power
// loss would drop. The standby's acked_rec gauge is the last value sent.
func TestFollowerAcksOnlyDurable(t *testing.T) {
	primary, standby := openTestJournal(t), openTestJournal(t)
	rep := NewReplicator(primary)
	var lastAck atomic.Int64
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req core.ReplicaPullRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("pull body: %v", err)
		}
		if durable := standby.Rec() - standby.Stats().DurableLagRecs; durable < req.AfterRec {
			t.Errorf("standby acknowledged record %d with its durability watermark at %d", req.AfterRec, durable)
		}
		lastAck.Store(req.AfterRec)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rep.HandlePull(w, r)
	}))
	defer hts.Close()
	f := NewFollower(FollowerConfig{
		Self:      core.WorkerRecord{ID: "sb", URL: "http://sb"},
		Primary:   hts.URL,
		Journal:   standby,
		DeadAfter: time.Hour, // never take over in this test
		Logf:      t.Logf,
	})
	f.Start()
	defer f.Stop()

	// Two batches: the second streams to a caught-up follower.
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("j%d%03d-aaaa", batch, i)
			if err := primary.Submitted(id, 1, core.Spec{Experiment: "numa", Quick: true}, "fp-"+id); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "standby to ack the batch", func() bool { return lastAck.Load() == primary.Rec() })
	}
	if got := f.Metrics().AckedRec; got != primary.Rec() {
		t.Errorf("acked_rec = %d, want the last ack sent, %d", got, primary.Rec())
	}
}

// TestReplicationSnapshotBootstrap: a follower whose ack is beyond the
// primary's bounded tail gets a full state snapshot instead of a stream,
// then streams normally.
func TestReplicationSnapshotBootstrap(t *testing.T) {
	primary := openTestJournal(t)
	primary.TailMax = 4 // force the tail to forget early records
	_, hts := primaryFor(t, primary)

	if _, err := primary.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		id := string(rune('a'+i%26)) + "-job"
		if err := primary.Submitted(id, i+1, core.Spec{Experiment: "numa", Quick: true}, "fp-"+id); err != nil {
			t.Fatal(err)
		}
	}

	standby := openTestJournal(t)
	f := NewFollower(FollowerConfig{
		Self:      core.WorkerRecord{ID: "sb"},
		Primary:   hts.URL,
		Journal:   standby,
		DeadAfter: time.Hour,
		Logf:      t.Logf,
	})
	f.Start()
	defer f.Stop()

	waitFor(t, "standby to bootstrap from a snapshot", func() bool { return standby.Rec() == primary.Rec() })
	if got, want := len(standby.Jobs()), len(primary.Jobs()); got != want {
		t.Fatalf("standby has %d jobs, primary %d", got, want)
	}

	// Post-snapshot, streaming resumes record-by-record.
	if err := primary.Submitted("late-job", 99, core.Spec{Experiment: "numa", Quick: true}, "fp-late"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby to stream post-snapshot", func() bool { return standby.Rec() == primary.Rec() })
}

// TestFollowerTakeover: a primary that stops answering at the connection
// level for DeadAfter triggers exactly one takeover — epoch durably bumped
// first, then OnTakeover. An HTTP-alive primary (any status) never does.
func TestFollowerTakeover(t *testing.T) {
	primary := openTestJournal(t)
	_, hts := primaryFor(t, primary)
	if _, err := primary.BumpEpoch(); err != nil { // primary fences epoch 1
		t.Fatal(err)
	}
	if err := primary.Submitted("j0001-aaaa", 1, core.Spec{Experiment: "numa", Quick: true}, "fp-a"); err != nil {
		t.Fatal(err)
	}

	standby := openTestJournal(t)
	var tookOver atomic.Uint64
	f := NewFollower(FollowerConfig{
		Self:       core.WorkerRecord{ID: "sb", URL: "http://sb"},
		Primary:    hts.URL,
		Journal:    standby,
		DeadAfter:  200 * time.Millisecond,
		OnTakeover: func(epoch uint64) { tookOver.Store(epoch) },
		Logf:       t.Logf,
	})
	f.Start()
	defer f.Stop()

	waitFor(t, "standby to sync", func() bool { return standby.Rec() == primary.Rec() })

	// The primary stays up well past DeadAfter: no takeover while it answers.
	time.Sleep(400 * time.Millisecond)
	if f.TookOver() {
		t.Fatal("follower took over from a live primary")
	}

	// SIGKILL equivalent: the listener vanishes.
	hts.Close()
	waitFor(t, "takeover", func() bool { return f.TookOver() })
	if got := tookOver.Load(); got != 2 {
		t.Errorf("takeover epoch = %d, want 2 (primary fenced 1)", got)
	}
	if standby.Epoch() != 2 {
		t.Errorf("standby journal epoch = %d after takeover, want 2", standby.Epoch())
	}
	// The replicated job came along: the promoted coordinator can resume it
	// under its original ID.
	jobs := standby.Jobs()
	if len(jobs) != 1 || jobs[0].JobID != "j0001-aaaa" {
		t.Fatalf("standby jobs after takeover = %+v", jobs)
	}
}

// BenchmarkFollowerTakeover times a standby's promotion: a primary with a
// fenced epoch and 100 submitted jobs streams to a follower with DeadAfter
// 250 ms; the clock runs from the primary's listener and connections
// vanishing to OnTakeover. It reports the mean as takeover-ms.
func BenchmarkFollowerTakeover(b *testing.B) {
	const deadAfter = 250 * time.Millisecond
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		primary := openTestJournal(b)
		_, hts := primaryFor(b, primary)
		if _, err := primary.BumpEpoch(); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 100; k++ {
			id := fmt.Sprintf("j%04d-bench", k+1)
			spec := core.Spec{Experiment: "numa", Quick: true, Nodes: 16 + k}
			if err := primary.Submitted(id, k+1, spec, "fp-"+id); err != nil {
				b.Fatal(err)
			}
		}
		standby := openTestJournal(b)
		promoted := make(chan uint64, 1)
		f := NewFollower(FollowerConfig{
			Self:       core.WorkerRecord{ID: "sb", URL: "http://sb"},
			Primary:    hts.URL,
			Journal:    standby,
			DeadAfter:  deadAfter,
			OnTakeover: func(epoch uint64) { promoted <- epoch },
		})
		f.Start()
		b.Cleanup(f.Stop)
		waitFor(b, "standby to sync", func() bool { return standby.Rec() == primary.Rec() })
		b.StartTimer()

		// SIGKILL equivalent: the listener and every open connection go.
		killed := time.Now()
		hts.Listener.Close()
		hts.CloseClientConnections()
		select {
		case epoch := <-promoted:
			total += time.Since(killed)
			if epoch != 2 {
				b.Fatalf("takeover epoch = %d, want 2 (primary fenced 1)", epoch)
			}
		case <-time.After(10 * time.Second):
			b.Fatal("standby never took over")
		}
		b.StopTimer()
	}
	b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "takeover-ms")
}

// TestFencedCoordinatorStepsDown: a worker whose gate saw a newer epoch
// answers the old coordinator's dispatches with 412; the old coordinator
// classifies that as fencing, fails the dispatch with ErrFenced, and
// refuses all further Executes.
func TestFencedCoordinatorStepsDown(t *testing.T) {
	// A "worker" that always answers 412 — the shape a real worker has
	// after observing a newer coordinator's epoch.
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"stale coordinator epoch"}`, http.StatusPreconditionFailed)
	}))
	defer worker.Close()

	c := NewCoordinator(CoordinatorConfig{DeadAfter: time.Hour, Epoch: 1, Logf: t.Logf})
	defer c.Close()
	c.dir.Beat(core.HeartbeatRequest{Worker: core.WorkerRecord{ID: "w1", URL: worker.URL}})
	c.refreshRing()

	_, err := c.Execute(context.Background(), core.Spec{Experiment: "numa", Quick: true}, "fp-x")
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("Execute error = %v, want ErrFenced", err)
	}
	if !c.Fenced() {
		t.Fatal("coordinator did not step down after a 412")
	}
	// Every later Execute fast-fails — no more split-brain dispatches.
	if _, err := c.Execute(context.Background(), core.Spec{Experiment: "numa", Quick: true}, "fp-y"); err == nil {
		t.Fatal("fenced coordinator dispatched again")
	}
}
