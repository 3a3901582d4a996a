package lab

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"butterfly/internal/core"
)

// goldens reads each experiment's quick-scale table and trajectory line,
// keyed by id, from the module's testdata/quick.golden and
// determinism.golden (see the root package's determinism_test.go).
func goldens(t *testing.T) (tables, trajectories map[string]string) {
	t.Helper()
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	tables = make(map[string]string)
	for _, sec := range strings.Split(read("quick.golden"), "\n===== ")[1:] {
		id, _, _ := strings.Cut(sec, ":")
		_, tables[id], _ = strings.Cut(sec, "\n\n")
	}
	trajectories = make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(read("determinism.golden"), "\n"), "\n") {
		id, _, _ := strings.Cut(line, " ")
		trajectories[id] = line
	}
	return tables, trajectories
}

// TestRunSpecMatchesDirect: a lab run prints the table and walks the
// trajectory that a direct run of the registry pinned in the goldens.
func TestRunSpecMatchesDirect(t *testing.T) {
	tables, trajectories := goldens(t)
	res, err := RunSpec(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table != tables["numa"] {
		t.Errorf("lab table diverges from quick.golden:\n%s", res.Table)
	}
	if got := fmt.Sprintf("numa machines=%d vtime=%d events=%d", res.Machines, res.VTimeNs, res.Events); got != trajectories["numa"] {
		t.Errorf("trajectory = %s, want %s", got, trajectories["numa"])
	}
	if res.Attempts != 1 || res.CacheHit || res.Fingerprint == "" {
		t.Errorf("result bookkeeping wrong: %+v", res)
	}
}

func TestFingerprintCanonicalization(t *testing.T) {
	base := core.Spec{Experiment: "numa", Quick: true}
	if Fingerprint(base) != Fingerprint(base) {
		t.Fatal("fingerprint not stable")
	}

	// Every simulation-relevant field must move the fingerprint.
	seed := uint64(3)
	variants := []core.Spec{
		{Experiment: "hotspot", Quick: true},
		{Experiment: "numa"},
		{Experiment: "numa", Quick: true, Preset: "bplus"},
		{Experiment: "numa", Quick: true, Nodes: 32},
		{Experiment: "numa", Quick: true, Probe: true},
		{Experiment: "numa", Quick: true, Faults: "seed 1; drop 0.001"},
		{Experiment: "numa", Quick: true, Faults: "seed 1; drop 0.001", FaultSeed: &seed},
	}
	seen := map[string]int{Fingerprint(base): -1}
	for i, v := range variants {
		fp := Fingerprint(v)
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %d collides with %d: %+v", i, prev, v)
		}
		seen[fp] = i
	}

	// Execution policy is not simulation content: same address.
	policy := base
	policy.TimeoutMs = 5000
	policy.Retries = 3
	if Fingerprint(policy) != Fingerprint(base) {
		t.Error("timeout/retries must not participate in the fingerprint")
	}

	// Two spellings of one fault schedule canonicalize identically: seed
	// directive position and failure listing order are not semantic.
	a := core.Spec{Experiment: "numa", Quick: true, Faults: "seed 7; kill 2 @ 10ms; kill 1 @ 5ms"}
	b := core.Spec{Experiment: "numa", Quick: true, Faults: "kill 1 @ 5ms; kill 2 @ 10ms; seed 7"}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("equivalent fault schedules produced different fingerprints")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c := OpenCache(t.TempDir())
	fp := Fingerprint(core.Spec{Experiment: "numa", Quick: true})

	if _, ok := c.Get(fp); ok {
		t.Fatal("hit on empty cache")
	}
	res := &core.Result{
		Spec:        core.Spec{Experiment: "numa", Quick: true},
		Fingerprint: fp,
		Table:       "pretend table\n",
		Machines:    1, Events: 42, VTimeNs: 1000, WallNs: 77, Attempts: 1,
	}
	if err := c.Put(res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(fp)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Table != res.Table || got.Events != 42 || got.WallNs != 77 {
		t.Errorf("round trip mangled result: %+v", got)
	}
	if !got.CacheHit || got.Attempts != 0 {
		t.Errorf("hit not marked as cache-served: hit=%v attempts=%d", got.CacheHit, got.Attempts)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(fp); !ok {
		t.Error("miss after Close: a closed cache reopens its file")
	}

	if err := c.Put(&core.Result{}); err == nil {
		t.Error("Put without fingerprint must fail")
	}
	if err := c.Put(&core.Result{Fingerprint: "a b"}); err == nil {
		t.Error("Put of a fingerprint that would break its line must fail")
	}
}

func TestCacheRejectsMismatchedBlob(t *testing.T) {
	c := OpenCache(t.TempDir())
	// A line keyed by one fingerprint but holding another's result (say, a
	// hand-edited file) must not be served.
	fpA := Fingerprint(core.Spec{Experiment: "numa", Quick: true})
	fpB := Fingerprint(core.Spec{Experiment: "hotspot", Quick: true})
	if err := c.Put(&core.Result{Fingerprint: fpA, Table: "x\n"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(c.file())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendFile(c.file(), fpB+strings.TrimPrefix(string(b), fpA)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(fpB); ok {
		t.Error("cache served a record whose result's fingerprint mismatches its key")
	}
	if _, ok := c.Get(fpA); !ok {
		t.Error("the correctly keyed record was lost")
	}
}

// TestCacheSharedFile: two Cache values on one directory stand in for two
// processes sharing a cache. Their appends interleave in one file, each
// one's miss finds the other's results, and a line torn by a writer that
// died mid-record costs only that record.
func TestCacheSharedFile(t *testing.T) {
	dir := t.TempDir()
	a, b := OpenCache(dir), OpenCache(dir)
	result := func(nodes int) *core.Result {
		spec := core.Spec{Experiment: "numa", Quick: true, Nodes: nodes}
		return &core.Result{Spec: spec, Fingerprint: Fingerprint(spec), Table: fmt.Sprintf("table %d\n", nodes)}
	}
	served := func(c *Cache, nodes int) bool {
		t.Helper()
		got, ok := c.Get(result(nodes).Fingerprint)
		if ok && got.Table != result(nodes).Table {
			t.Fatalf("nodes=%d: served table %q", nodes, got.Table)
		}
		return ok
	}
	for n := 1; n <= 6; n++ {
		c := a
		if n%2 == 0 {
			c = b
		}
		if err := c.Put(result(n)); err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= 6; n++ {
		if !served(a, n) || !served(b, n) {
			t.Errorf("nodes=%d: a Put by one cache is not found by both", n)
		}
	}

	// A writer dies mid-record: its line is never terminated.
	torn := result(7).Fingerprint + ` {"spec":{"experiment":"numa"`
	if err := appendFile(a.file(), torn); err != nil {
		t.Fatal(err)
	}
	if served(b, 7) {
		t.Error("a torn record was served")
	}
	if err := a.Put(result(8)); err != nil {
		t.Fatal(err)
	}
	if !served(b, 8) || !served(a, 8) {
		t.Error("the record written after a torn line was lost")
	}
	if served(a, 7) || served(b, 7) {
		t.Error("a torn record was served once terminated")
	}
	for _, c := range []*Cache{a, b} {
		if got := c.Len(); got != 7 {
			t.Errorf("Len = %d, want 7 (the torn record alone lost)", got)
		}
	}
	if err := b.Put(result(7)); err != nil {
		t.Fatal(err)
	}
	if !served(a, 7) {
		t.Error("re-running the torn record's job did not store it")
	}

	// A record longer than the scan buffer is indexed whole, also by a
	// cache that scans the file from the start.
	big := result(9)
	big.Table = strings.Repeat("x", 200<<10) + "\n"
	if err := a.Put(big); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cache{b, OpenCache(dir)} {
		if got, ok := c.Get(big.Fingerprint); !ok || got.Table != big.Table {
			t.Errorf("a %d-byte record was not served whole", len(big.Table))
		}
	}
}

// TestCacheConcurrentUse: workers of two caches on one directory Put and
// Get at once; every result is found by both once its Put returns. Run
// under -race it also checks the index's locking.
func TestCacheConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	caches := []*Cache{OpenCache(dir), OpenCache(dir)}
	rs := benchResults(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rs); i += 4 {
				if err := caches[w%2].Put(rs[i]); err != nil {
					t.Error(err)
					return
				}
				for _, c := range caches {
					if _, ok := c.Get(rs[i].Fingerprint); !ok {
						t.Errorf("result %d not found after its Put", i)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, c := range caches {
		if got := c.Len(); got != len(rs) {
			t.Errorf("Len = %d, want %d", got, len(rs))
		}
	}
}

// benchResults returns n results with distinct fingerprints and a table
// the size of a quick numa run's.
func benchResults(n int) []*core.Result {
	table := strings.Repeat("nodes  local_ns  remote_ns  ratio\n", 24)
	rs := make([]*core.Result, n)
	for i := range rs {
		spec := core.Spec{Experiment: "numa", Quick: true, Nodes: i + 1}
		rs[i] = &core.Result{Spec: spec, Fingerprint: Fingerprint(spec), Table: table, Machines: 1, Events: 1000}
	}
	return rs
}

// BenchmarkCachePut times storing one result: one appended line per Put.
func BenchmarkCachePut(b *testing.B) {
	c := OpenCache(b.TempDir())
	rs := benchResults(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(rs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheGet times a hit on a cache holding 1,000 results.
func BenchmarkCacheGet(b *testing.B) {
	c := OpenCache(b.TempDir())
	rs := benchResults(1000)
	for _, r := range rs {
		if err := c.Put(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(rs[i%len(rs)].Fingerprint); !ok {
			b.Fatal("miss on a stored result")
		}
	}
}

// BenchmarkRunSpecNumaGrid times one cold point of the sweep grid the
// benchmark's single-node workload submits: quick numa over 4 presets × 4
// topologies × 16–1,039 nodes, visited with a stride so consecutive points
// differ in every axis.
func BenchmarkRunSpecNumaGrid(b *testing.B) {
	presets := []string{"", "b1", "bfp", "bplus"}
	topologies := []string{"butterfly", "fattree", "dragonfly", "mesh"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i * 7919
		spec := core.Spec{Experiment: "numa", Quick: true, Preset: presets[k%4],
			Topology: topologies[k/4%4], Nodes: 16 + k/16%1024}
		if _, err := RunSpec(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSchedulerParallelDeterminism is the tentpole invariant: running
// experiments concurrently on the worker pool yields the golden tables and
// trajectories that one sequential run of the registry pinned. Run under
// -race this also proves the workers share no simulation state.
func TestSchedulerParallelDeterminism(t *testing.T) {
	ids := []string{"numa", "hotspot", "prims", "alloc", "fig6", "crowd", "sarcache", "rpc"}
	if !testing.Short() {
		ids = nil
		for _, e := range core.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	tables, trajectories := goldens(t)

	s := NewScheduler(Config{Workers: 4})
	defer s.Shutdown(context.Background())
	var jobs []*Job
	for _, id := range ids {
		j, err := s.Submit(core.Spec{Experiment: id, Quick: true})
		if err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		jobs = append(jobs, j)
	}
	results, err := WaitAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		id := ids[i]
		if res.Table != tables[id] {
			t.Errorf("%s: parallel table diverges from quick.golden", id)
		}
		got := fmt.Sprintf("%s machines=%d vtime=%d events=%d", id, res.Machines, res.VTimeNs, res.Events)
		if got != trajectories[id] {
			t.Errorf("trajectory diverged:\n  got  %s\n  want %s", got, trajectories[id])
		}
	}

	m := s.Metrics()
	if m.Completed != uint64(len(ids)) || m.Failed != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestSchedulerCacheHit(t *testing.T) {
	cache := OpenCache(t.TempDir())
	s := NewScheduler(Config{Workers: 2, Cache: cache})
	defer s.Shutdown(context.Background())

	spec := core.Spec{Experiment: "numa", Quick: true}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first run reported a cache hit")
	}

	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j2.State() != StateDone {
		t.Errorf("cache-hit job not finished at submit time: %s", j2.State())
	}
	r2, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || r2.Attempts != 0 {
		t.Errorf("second run not served from cache: hit=%v attempts=%d", r2.CacheHit, r2.Attempts)
	}
	if r2.Table != r1.Table || r2.Fingerprint != r1.Fingerprint {
		t.Error("cached result differs from executed result")
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d blobs", cache.Len())
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}

	// A different spec is a different address: no false hit.
	j3, err := s.Submit(core.Spec{Experiment: "numa", Quick: true, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := j3.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Error("probe variant incorrectly served from non-probe blob")
	}
	if r3.ProbeReport == "" {
		t.Error("probe report missing")
	}
	if r3.Table != r1.Table {
		t.Error("probes perturbed the table")
	}
}

func TestJobTimeoutAndRetry(t *testing.T) {
	// spread at full scale runs for seconds; a 25 ms budget always expires.
	spec := core.Spec{Experiment: "spread", TimeoutMs: 25, Retries: 1}
	res, err := RunSpec(spec)
	if err == nil {
		t.Fatalf("expected timeout, got result with %d machines", res.Machines)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	// Retries=1 means two attempts; the final error names the last one.
	if !strings.Contains(err.Error(), "attempt 2") {
		t.Errorf("error = %v, want evidence of the retry", err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := NewScheduler(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	running, err := s.Submit(core.Spec{Experiment: "spread"}) // seconds of work
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	waitState(t, running, StateRunning)
	if pos := s.QueuePosition(queued); pos != 1 {
		t.Errorf("queue position = %d, want 1", pos)
	}

	queued.Cancel()
	if queued.State() != StateCanceled {
		t.Errorf("queued job state = %s after cancel", queued.State())
	}
	if _, err := queued.Wait(); !errors.Is(err, ErrCanceled) {
		t.Errorf("queued job error = %v", err)
	}

	running.Cancel()
	if _, err := running.Wait(); !errors.Is(err, ErrCanceled) {
		t.Errorf("running job error = %v", err)
	}

	if m := s.Metrics(); m.Canceled != 2 {
		t.Errorf("canceled count = %d", m.Canceled)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, QueueDepth: 1})
	running, err := s.Submit(core.Spec{Experiment: "spread"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)

	queued, err := s.Submit(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(core.Spec{Experiment: "hotspot", Quick: true}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	// The rejected job must leave no residue.
	if n := len(s.Jobs()); n != 2 {
		t.Errorf("scheduler tracks %d jobs after rejection, want 2", n)
	}

	running.Cancel()
	queued.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestShutdownDrainsAndRefusesIntake(t *testing.T) {
	s := NewScheduler(Config{Workers: 2})
	j1, err := s.Submit(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(core.Spec{Experiment: "fig6", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{j1, j2} {
		if j.State() != StateDone {
			t.Errorf("job %s not drained: %s", j.ID, j.State())
		}
	}
	if _, err := s.Submit(core.Spec{Experiment: "numa", Quick: true}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submit error = %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsRunningJobs(t *testing.T) {
	s := NewScheduler(Config{Workers: 1})
	j, err := s.Submit(core.Spec{Experiment: "spread"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want deadline exceeded", err)
	}
	if j.State() != StateCanceled {
		t.Errorf("in-flight job state = %s after forced shutdown", j.State())
	}
}

func TestRunSpecRejectsBadSpec(t *testing.T) {
	if _, err := RunSpec(core.Spec{Experiment: "nonesuch"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := RunSpec(core.Spec{Experiment: "numa", Faults: "gibberish"}); err == nil {
		t.Error("unparseable fault schedule accepted")
	}
}

// waitState polls until the job reaches the state or the test times out.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := j.State()
		if st == want {
			return
		}
		switch st {
		case StateDone, StateFailed, StateCanceled:
			t.Fatalf("job %s reached terminal state %s while waiting for %s", j.ID, st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", j.ID, want)
}

// appendFile appends text to a file, as another writer would.
func appendFile(path, text string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, werr := f.WriteString(text)
	return errors.Join(werr, f.Close())
}
