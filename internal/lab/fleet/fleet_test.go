package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
)

// testNode is one in-process fleet member: a real lab server on a real
// HTTP listener, backed by its own scheduler and cache, plus the fleet
// Worker runtime heartbeating the coordinator.
type testNode struct {
	w     *Worker
	sched *lab.Scheduler
	hts   *httptest.Server
}

// startNode brings up a worker node against the coordinator at coordURL.
func startNode(t *testing.T, id, coordURL, cacheDir string) *testNode {
	t.Helper()
	return startNodeAt(t, id, coordURL, cacheDir, "", nil)
}

// startNodeAt is startNode listening on addr ("" picks a free port), with
// wrap, when non-nil, around the node's HTTP handler.
func startNodeAt(t *testing.T, id, coordURL, cacheDir, addr string, wrap func(http.Handler) http.Handler) *testNode {
	t.Helper()
	srv := lab.NewServer(lab.ServerConfig{})
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	hts := httptest.NewUnstartedServer(h)
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hts.Listener.Close()
		hts.Listener = ln
	}
	hts.Start()
	w := NewWorker(WorkerConfig{
		Self:           core.WorkerRecord{ID: id, URL: hts.URL},
		Coordinator:    coordURL,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	sched := lab.NewScheduler(lab.Config{
		Workers:  2,
		Cache:    lab.OpenCache(cacheDir),
		PeerFill: w.PeerFill,
	})
	srv.Attach(sched)
	w.Start()
	n := &testNode{w: w, sched: sched, hts: hts}
	t.Cleanup(func() { n.kill(t) })
	return n
}

// kill tears the node down abruptly: heartbeats stop, the listener closes.
// Safe to call twice.
func (n *testNode) kill(t *testing.T) {
	t.Helper()
	n.w.Stop()
	n.hts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.sched.Shutdown(ctx)
}

// startCoordinator brings up a coordinator node whose scheduler dispatches
// through the ring. A nil cache keeps every submission flowing to the
// fleet — exactly what the placement tests need.
func startCoordinator(t *testing.T, deadAfter time.Duration) (*Coordinator, *lab.Scheduler, string) {
	t.Helper()
	return startCoordinatorCfg(t, CoordinatorConfig{DeadAfter: deadAfter, Logf: t.Logf})
}

// startCoordinatorCfg is startCoordinator with an explicit configuration.
func startCoordinatorCfg(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *lab.Scheduler, string) {
	t.Helper()
	srv := lab.NewServer(lab.ServerConfig{})
	hts := httptest.NewServer(srv)
	coord := NewCoordinator(cfg)
	coord.Mount(srv)
	sched := lab.NewScheduler(lab.Config{Workers: 8, Execute: coord.Execute})
	srv.Attach(sched)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
		coord.Close()
		hts.Close()
	})
	return coord, sched, hts.URL
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func sweepSpecs(n int) []core.Spec {
	specs := make([]core.Spec, n)
	for i := range specs {
		specs[i] = core.Spec{Experiment: "numa", Quick: true, Nodes: 16 * (i + 1)}
	}
	return specs
}

// TestFleetExecutesByteIdentical: a two-worker fleet must produce exactly
// the tables the sequential in-process driver does.
func TestFleetExecutesByteIdentical(t *testing.T) {
	coord, sched, coordURL := startCoordinator(t, 5*time.Second)
	startNode(t, "wA", coordURL, filepath.Join(t.TempDir(), "a"))
	startNode(t, "wB", coordURL, filepath.Join(t.TempDir(), "b"))
	waitFor(t, "2 workers on the ring", func() bool { return coord.Ring().Len() == 2 })

	for _, spec := range sweepSpecs(6) {
		job, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait()
		if err != nil {
			t.Fatalf("nodes=%d: %v", spec.Nodes, err)
		}
		clean, err := lab.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table != clean.Table {
			t.Errorf("nodes=%d: fleet table diverges from sequential driver", spec.Nodes)
		}
		if res.Fingerprint != lab.Fingerprint(spec) {
			t.Errorf("nodes=%d: fingerprint drifted across the wire", spec.Nodes)
		}
	}
}

// TestFleetReassignsOnWorkerDeath: jobs placed on a worker that dies are
// moved to the next ring node and still finish byte-identical. The dead
// worker is detected by connection failure (faster than the heartbeat
// timeout), journaled down, and counted in ReassignedJobs.
func TestFleetReassignsOnWorkerDeath(t *testing.T) {
	coord, sched, coordURL := startCoordinator(t, 2*time.Second)
	a := startNode(t, "wA", coordURL, filepath.Join(t.TempDir(), "a"))
	startNode(t, "wB", coordURL, filepath.Join(t.TempDir(), "b"))
	waitFor(t, "2 workers on the ring", func() bool { return coord.Ring().Len() == 2 })

	// Kill A after it joined but before any dispatch: every job the ring
	// places on it must fail over to B.
	a.kill(t)

	specs := sweepSpecs(10)
	jobs := make([]*lab.Job, len(specs))
	for i, spec := range specs {
		job, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	for i, job := range jobs {
		res, err := job.Wait()
		if err != nil {
			t.Fatalf("nodes=%d: %v", specs[i].Nodes, err)
		}
		clean, err := lab.RunSpec(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Table != clean.Table {
			t.Errorf("nodes=%d: reassigned run diverges from sequential driver", specs[i].Nodes)
		}
	}
	if coord.Reassigned() == 0 {
		t.Error("no job was reassigned — the dead worker owned none of 10 placements?")
	}
	waitFor(t, "ring to shrink to the survivor", func() bool { return coord.Ring().Len() == 1 })
}

// TestFleetPeerCacheFill: a fresh worker joining a warm fleet fills its
// jobs from ring siblings' caches instead of simulating. The ISSUE's
// acceptance bar is >= 90% fill on the second sweep; with every result
// already on the first worker it should be 100%.
func TestFleetPeerCacheFill(t *testing.T) {
	coord, sched, coordURL := startCoordinator(t, 5*time.Second)
	a := startNode(t, "wA", coordURL, filepath.Join(t.TempDir(), "a"))
	waitFor(t, "first worker on the ring", func() bool { return coord.Ring().Len() == 1 })

	// Sweep 1: everything lands on A and is cached there.
	specs := sweepSpecs(10)
	for _, spec := range specs {
		job, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if a.w.Simulated() == 0 {
		t.Fatal("first sweep simulated nothing — test premise broken")
	}

	// A fresh worker B joins with an empty cache.
	b := startNode(t, "wB", coordURL, filepath.Join(t.TempDir(), "b"))
	waitFor(t, "2 workers on the ring", func() bool { return coord.Ring().Len() == 2 })
	waitFor(t, "B to learn the ring", func() bool { return b.w.Metrics().RingSize == 2 })

	// Sweep 2: same specs. The coordinator has no cache, so every job is
	// re-placed; B-owned jobs must come from A's cache, not simulation.
	for _, spec := range specs {
		job, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait()
		if err != nil {
			t.Fatal(err)
		}
		clean, err := lab.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table != clean.Table {
			t.Errorf("nodes=%d: peer-filled run diverges from sequential driver", spec.Nodes)
		}
	}
	hits, sim := b.w.PeerHits(), b.w.Simulated()
	if hits == 0 {
		t.Fatal("fresh worker handled no jobs (or probed no siblings) — placement never split")
	}
	if rate := float64(hits) / float64(hits+sim); rate < 0.9 {
		t.Errorf("peer fill rate = %.0f%% (%d hits, %d simulated), want >= 90%%", 100*rate, hits, sim)
	}
}

// TestFleetGracefulLeaveDrainsWithoutReassignment: a worker that announces
// its departure (SIGTERM path) leaves the placement set immediately — no
// waiting out -dead-after, and crucially no reassignment churn, because
// nothing was abandoned. New jobs land on the survivor; the leaver stays
// alive (draining) for in-flight polling until its heartbeats stop.
func TestFleetGracefulLeaveDrainsWithoutReassignment(t *testing.T) {
	coord, sched, coordURL := startCoordinator(t, 5*time.Second)
	a := startNode(t, "wA", coordURL, filepath.Join(t.TempDir(), "a"))
	startNode(t, "wB", coordURL, filepath.Join(t.TempDir(), "b"))
	waitFor(t, "2 workers on the ring", func() bool { return coord.Ring().Len() == 2 })

	// wA announces a planned departure. It keeps heartbeating (its queue
	// may still hold dispatched jobs) but must stop being placeable.
	a.w.Leave()
	waitFor(t, "ring to exclude the leaver", func() bool { return coord.Ring().Len() == 1 })
	if coord.Directory().Life("wA").Err() != nil {
		t.Fatal("draining worker went dead instead of draining")
	}
	if coord.Directory().Placeable("wA") {
		t.Fatal("draining worker still placeable")
	}
	var drainingSeen bool
	for _, h := range coord.Directory().Health() {
		if h.ID == "wA" && h.Draining {
			drainingSeen = true
		}
	}
	if !drainingSeen {
		t.Fatal("directory health does not show wA draining")
	}

	// Every post-leave job lands on wB, byte-identical, with zero
	// reassignments — a drain is not a death.
	for _, spec := range sweepSpecs(6) {
		job, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait()
		if err != nil {
			t.Fatalf("nodes=%d: %v", spec.Nodes, err)
		}
		clean, err := lab.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table != clean.Table {
			t.Errorf("nodes=%d: post-drain run diverges from sequential driver", spec.Nodes)
		}
	}
	if n := coord.Reassigned(); n != 0 {
		t.Errorf("graceful leave caused %d reassignments, want 0", n)
	}
	if got := a.w.Simulated(); got != 0 {
		t.Errorf("draining worker simulated %d new jobs after leaving", got)
	}

	// A draining worker's heartbeats must not resurrect it onto the ring.
	time.Sleep(150 * time.Millisecond) // a few heartbeat intervals
	if coord.Ring().Len() != 1 {
		t.Errorf("heartbeats resurrected the draining worker: ring=%d", coord.Ring().Len())
	}
}

// TestFleetRestartAfterLeaveIsPlaceable: a worker that left (SIGTERM) and
// restarts under the same ID before DeadAfter expires is still draining in
// the directory. Its first heartbeat is an arrival, which cancels the drain:
// it is placeable again at once and takes back the jobs it owns, without
// waiting out DeadAfter and without a reassignment.
func TestFleetRestartAfterLeaveIsPlaceable(t *testing.T) {
	coord, sched, coordURL := startCoordinator(t, 5*time.Second)
	dirA := filepath.Join(t.TempDir(), "a")
	a := startNode(t, "wA", coordURL, dirA)
	startNode(t, "wB", coordURL, filepath.Join(t.TempDir(), "b"))
	waitFor(t, "2 workers on the ring", func() bool { return coord.Ring().Len() == 2 })
	owned := specsOwnedBy(t, coord, "wA", 2)

	a.w.Leave()
	waitFor(t, "ring to exclude the leaver", func() bool { return coord.Ring().Len() == 1 })
	a.kill(t)
	if coord.Directory().Life("wA").Err() != nil {
		t.Fatal("leaver went dead before DeadAfter; the test needs it still draining")
	}

	start := time.Now()
	restarted := startNodeAt(t, "wA", coordURL, dirA, strings.TrimPrefix(a.hts.URL, "http://"), nil)
	waitFor(t, "restarted wA back on the ring", func() bool { return coord.Ring().Len() == 2 })
	if took := time.Since(start); took > time.Second {
		t.Errorf("restarted worker placeable after %v, want within a few 50ms heartbeats", took)
	}
	runAll(t, sched, owned)
	if n := coord.Reassigned(); n != 0 {
		t.Errorf("reassigned = %d, want 0", n)
	}
	if got := restarted.w.Simulated() + restarted.w.PeerHits(); got != uint64(len(owned)) {
		t.Errorf("restarted wA resolved %d of the %d jobs it owns", got, len(owned))
	}
}

// TestFleetHoldsJobsWithNoWorkers: with every worker gone the coordinator
// parks jobs rather than failing them, releases them the moment a worker
// appears, and lets a parked job be canceled.
func TestFleetHoldsJobsWithNoWorkers(t *testing.T) {
	coord, sched, coordURL := startCoordinator(t, 5*time.Second)

	job, err := sched.Submit(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := sched.Submit(core.Spec{Experiment: "numa", Quick: true, Nodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
		t.Fatal("job finished with no workers on the ring")
	case <-time.After(300 * time.Millisecond):
	}
	doomed.Cancel()
	if _, err := doomed.Wait(); !errors.Is(err, lab.ErrCanceled) || doomed.State() != lab.StateCanceled {
		t.Errorf("job canceled with no workers: state %s, err %v; want canceled, ErrCanceled", doomed.State(), err)
	}

	startNode(t, "wA", coordURL, filepath.Join(t.TempDir(), "a"))
	waitFor(t, "worker to join", func() bool { return coord.Ring().Len() == 1 })
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := lab.RunSpec(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table != clean.Table {
		t.Error("held-then-released job diverges from sequential driver")
	}
}

// fleetLog keeps the coordinator's log lines (and forwards them to t.Logf)
// so a test can assert on what was, or was not, journaled.
type fleetLog struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (l *fleetLog) logf(format string, args ...any) {
	l.t.Logf(format, args...)
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// count reports how many logged lines contain substr.
func (l *fleetLog) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// requestLog records every request a node's handler serves.
type requestLog struct {
	mu   sync.Mutex
	reqs []string
}

func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+r.URL.RequestURI())
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (l *requestLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.reqs...)
}

// specsOwnedBy returns quick numa specs, one per placement bucket, that the
// coordinator's current ring places on worker id.
func specsOwnedBy(t *testing.T, c *Coordinator, id string, n int) []core.Spec {
	t.Helper()
	var specs []core.Spec
	for nodes := 16; len(specs) < n; nodes *= 2 {
		if nodes > 1<<12 {
			t.Fatalf("only %d of %d placement buckets land on %s", len(specs), n, id)
		}
		spec := core.Spec{Experiment: "numa", Quick: true, Nodes: nodes}
		if w, ok := c.pickOwner(PlacementKey(spec)); ok && w.ID == id {
			specs = append(specs, spec)
		}
	}
	return specs
}

// runAll submits each spec to the coordinator's scheduler and checks its
// table against the sequential driver.
func runAll(t *testing.T, sched *lab.Scheduler, specs []core.Spec) {
	t.Helper()
	for _, spec := range specs {
		job, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait()
		if err != nil {
			t.Fatalf("nodes=%d: %v", spec.Nodes, err)
		}
		clean, err := lab.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table != clean.Table {
			t.Errorf("nodes=%d: fleet table diverges from sequential driver", spec.Nodes)
		}
	}
}

// TestFleetRevivedWorkerKeepsPlacements: a worker that died and came back
// on its old ID and address takes its placements again at once. Nothing
// left over from its death may bounce the jobs it now owns: no reassignment
// and no second worker-down.
func TestFleetRevivedWorkerKeepsPlacements(t *testing.T) {
	logs := &fleetLog{t: t}
	coord, sched, coordURL := startCoordinatorCfg(t, CoordinatorConfig{DeadAfter: 5 * time.Second, Logf: logs.logf})
	dirA := filepath.Join(t.TempDir(), "a")
	a := startNode(t, "wA", coordURL, dirA)
	startNode(t, "wB", coordURL, filepath.Join(t.TempDir(), "b"))
	waitFor(t, "2 workers on the ring", func() bool { return coord.Ring().Len() == 2 })
	owned := specsOwnedBy(t, coord, "wA", 3)

	// Kill wA and drive a job onto it: the failed dial marks it dead and
	// the job moves to wB.
	a.kill(t)
	runAll(t, sched, owned[:1])
	if n := coord.Reassigned(); n != 1 {
		t.Fatalf("reassigned = %d after a job met the dead worker, want 1", n)
	}
	if coord.Directory().Life("wA").Err() == nil {
		t.Fatal("dead worker still alive in the directory")
	}
	downs := logs.count("worker-down id=wA")

	// wA restarts on the same address and rejoins through its heartbeats.
	startNodeAt(t, "wA", coordURL, dirA, strings.TrimPrefix(a.hts.URL, "http://"), nil)
	waitFor(t, "wA to rejoin the ring", func() bool { return coord.Ring().Len() == 2 })

	runAll(t, sched, owned[1:])
	if n := coord.Reassigned(); n != 1 {
		t.Errorf("reassigned = %d, want 1: jobs placed on the revived worker bounced", n)
	}
	if n := logs.count("worker-down id=wA"); n != downs {
		t.Errorf("revived worker logged down %d more times", n-downs)
	}
}

// TestFleetDispatchCostsTwoRequests: a fresh job costs its worker one
// submit and one held result fetch — no status polls.
func TestFleetDispatchCostsTwoRequests(t *testing.T) {
	coord, sched, coordURL := startCoordinator(t, 5*time.Second)
	var reqs requestLog
	startNodeAt(t, "wA", coordURL, filepath.Join(t.TempDir(), "a"), "", reqs.wrap)
	waitFor(t, "worker on the ring", func() bool { return coord.Ring().Len() == 1 })

	job, err := sched.Submit(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	got := reqs.snapshot()
	if len(got) != 2 || got[0] != "POST /jobs" ||
		!strings.HasPrefix(got[1], "GET /jobs/") || !strings.Contains(got[1], "/result?") || !strings.Contains(got[1], "wait=1") {
		t.Errorf("worker requests = %q, want POST /jobs then one held GET /jobs/{id}/result?wait=1", got)
	}
}

// TestFleetDispatchAbortsPromptly: a held fetch never delays the two
// aborts the coordinator owes a dispatch. Canceling the job reaches the
// worker's copy within ~100ms; a worker whose heartbeats stop while its
// listener stays open loses the job to the next ring node within
// DeadAfter, not after the hold.
func TestFleetDispatchAbortsPromptly(t *testing.T) {
	const deadAfter = 500 * time.Millisecond
	coord, sched, coordURL := startCoordinator(t, deadAfter)
	a := startNode(t, "wA", coordURL, filepath.Join(t.TempDir(), "a"))
	b := startNode(t, "wB", coordURL, filepath.Join(t.TempDir(), "b"))
	waitFor(t, "2 workers on the ring", func() bool { return coord.Ring().Len() == 2 })
	nodes := map[string]*testNode{"wA": a, "wB": b}

	// spread runs for seconds: long enough to be caught mid-hold.
	slow := core.Spec{Experiment: "spread"}
	owner, _ := coord.pickOwner(PlacementKey(slow))
	remote := func(n *testNode) *lab.Job {
		if jobs := n.sched.Jobs(); len(jobs) > 0 {
			return jobs[len(jobs)-1]
		}
		return nil
	}
	running := func(n *testNode) bool {
		j := remote(n)
		return j != nil && j.State() == lab.StateRunning
	}

	job, err := sched.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the job to run on its owner", func() bool { return running(nodes[owner.ID]) })
	start := time.Now()
	job.Cancel()
	select {
	case <-remote(nodes[owner.ID]).Done():
	case <-time.After(2 * time.Second):
		t.Fatal("worker's copy of a canceled job still running after 2s")
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Errorf("worker's job ended %v after the cancel, want ~100ms", took)
	}

	// Heartbeats stop; the listener (and the held fetch) stay up.
	job, err = sched.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the job to run on its owner", func() bool { return running(nodes[owner.ID]) })
	nodes[owner.ID].w.Stop()
	start = time.Now()
	waitFor(t, "the job to be reassigned", func() bool { return coord.Reassigned() == 1 })
	if took := time.Since(start); took > deadAfter+time.Second {
		t.Errorf("reassignment took %v after heartbeats stopped, want <= DeadAfter+1s = %v", took, deadAfter+time.Second)
	}
	// Cancel both copies so the cleanup does not wait out their runs.
	remote(nodes[owner.ID]).Cancel()
	job.Cancel()
	<-job.Done()
}
