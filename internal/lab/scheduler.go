package lab

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/internal/core"
)

// Submission errors.
var (
	// ErrQueueFull is returned by Submit when the bounded work queue has no
	// free slot — backpressure a service can surface as HTTP 503.
	ErrQueueFull = errors.New("lab: work queue full")
	// ErrShuttingDown is returned by Submit after Shutdown began.
	ErrShuttingDown = errors.New("lab: scheduler shutting down")
)

// State is a job's lifecycle phase — an alias of the journal's record
// vocabulary so the scheduler, the wire, and the durable log agree.
type State = core.JobState

// Job states. Queued and Running are transient; the other three are final.
const (
	StateQueued   = core.JobQueued
	StateRunning  = core.JobRunning
	StateDone     = core.JobDone
	StateFailed   = core.JobFailed
	StateCanceled = core.JobCanceled
)

// Job is one submitted spec moving through the scheduler.
type Job struct {
	// ID is the scheduler-unique handle ("j0007-3fa2b1c9": submission
	// sequence plus fingerprint prefix).
	ID string
	// Spec is the submitted job description.
	Spec core.Spec
	// Fingerprint is the spec's content address.
	Fingerprint string

	seq   int
	sched *Scheduler
	done  chan struct{}

	mu    sync.Mutex
	state State
	res   *core.Result
	err   error
	// rec is the journal record the job's reported state rests on: its
	// submission until it finishes, then its terminal record. An answer
	// about the job awaits it (Server). A started record is never awaited:
	// a running job that a crash returns to the queue loses nothing it was
	// promised.
	rec int64
	// cancel ends the context a running job executes under; runJob sets it
	// in the same critical section that makes the job running, so a Cancel
	// either finds the job queued or finds cancel set.
	cancel context.CancelCauseFunc
	// counted marks a job the scheduler's queued-by-seq count includes:
	// set when it is enqueued, cleared when it leaves StateQueued. A cache
	// hit or a job restored as terminal is queued only in passing and is
	// never counted.
	counted bool
	// spooled marks a done job whose payload (table, probe report) was
	// released to the cache; Wait/Result reload it from there.
	spooled   bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a final state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes and returns its result or error.
func (j *Job) Wait() (*core.Result, error) {
	<-j.done
	j.mu.Lock()
	res, err, spooled := j.res, j.err, j.spooled
	j.mu.Unlock()
	if spooled {
		return j.reload(res)
	}
	return res, err
}

// Result returns the job's result and error without blocking; both are nil
// while the job is still queued or running.
func (j *Job) Result() (*core.Result, error) {
	j.mu.Lock()
	res, err, spooled := j.res, j.err, j.spooled
	j.mu.Unlock()
	if spooled {
		return j.reload(res)
	}
	return res, err
}

// reload rematerializes a spooled result from the cache (outside j.mu —
// this is file IO). The blob was written before the payload was released,
// so a miss means the cache directory was tampered with underneath us;
// failing loudly beats serving a silently empty table.
func (j *Job) reload(trimmed *core.Result) (*core.Result, error) {
	if hit, ok := j.sched.cache.Get(j.Fingerprint); ok {
		return hit, nil
	}
	return trimmed, fmt.Errorf("lab: spooled result %s lost from cache", j.Fingerprint)
}

// Cancel requests the job stop: a queued job finishes immediately as
// canceled; a running job's context ends with ErrCanceled, which interrupts
// its simulation engines or its remote dispatch. Canceling a finished job
// is a no-op.
func (j *Job) Cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.dequeueLocked()
		j.finishLocked(StateCanceled, nil, ErrCanceled)
	case StateRunning:
		j.cancel(ErrCanceled)
	}
}

// dequeueLocked drops j from the queued-by-seq count as it leaves
// StateQueued. Callers hold j.mu.
func (j *Job) dequeueLocked() {
	if j.counted {
		j.counted = false
		j.sched.queued.add(j.seq, -1)
	}
}

// finishLocked moves the job to a final state and writes its terminal
// record, without waiting for the disk: the answer that reports the
// outcome awaits the journal's durability watermark, outside every lock
// (see Server), so a worker holding j.mu never waits on an fsync. Callers
// hold j.mu.
func (j *Job) finishLocked(st State, res *core.Result, err error) {
	if j.state.Terminal() {
		return
	}
	s := j.sched
	j.state = st
	j.res = res
	j.err = err
	j.finished = s.clock()
	close(j.done)
	switch st {
	case StateDone:
		s.completed.Add(1)
	case StateFailed:
		s.failed.Add(1)
	case StateCanceled:
		s.canceled.Add(1)
	}
	// During recovery the journal already holds the terminal record being
	// restored, so nothing is re-appended or counted. A journal write
	// failure here is deliberately non-fatal: the result stands, and at
	// worst a restart re-executes the job — idempotent by construction.
	if s.recovering {
		return
	}
	if st == StateDone {
		s.rates.done(j.finished)
	}
	if s.journal != nil {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if rec, err := s.journal.finished(j.ID, st, msg); err == nil {
			j.rec = rec
		}
	}
}

// Config parameterizes a Scheduler.
type Config struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	// Each worker goroutine owns the engines of the job it is running —
	// workers share no mutable simulation state.
	Workers int
	// QueueDepth bounds the work queue; <= 0 means 256.
	QueueDepth int
	// Cache, when non-nil, serves fingerprint hits without execution and
	// stores fresh results.
	Cache *Cache
	// Journal, when non-nil, makes the scheduler durable: submissions are
	// journaled before they are enqueued, lifecycle transitions are
	// appended as they happen (the Server's answers await their
	// durability; the scheduler itself never waits on the disk), and
	// NewScheduler replays the journal —
	// restoring terminal jobs (done jobs re-bind their cached results) and
	// requeuing everything the previous process left mid-flight.
	Journal *Journal
	// Execute, when non-nil, replaces local simulation: workers call it
	// instead of booting engines themselves. A fleet coordinator uses this
	// to dispatch the job to a ring worker — the scheduler keeps owning the
	// queue, the journal, the cache, and the job lifecycle, so recovery and
	// admission behave identically in both modes. ctx is the job's; a
	// cancel ends it with cause ErrCanceled, and the job then ends canceled
	// unless Execute returns a result.
	Execute func(ctx context.Context, spec core.Spec, fingerprint string) (*core.Result, error)
	// PeerFill, when non-nil, is consulted after a job leaves the queue
	// and before it executes: a fleet worker asks its ring siblings for a
	// cached result here, so a rebalanced or freshly-joined worker never
	// re-simulates work the fleet has already done. The spec travels along
	// so the probe can walk the ring by placement key, the same walk the
	// coordinator placed by. The returned result must carry the job's
	// fingerprint. A cancel of ctx, the job's, abandons the probe.
	PeerFill func(ctx context.Context, spec core.Spec, fingerprint string) (*core.Result, bool)
	// SpoolResults, when true (and a Cache is configured), releases each
	// finished job's result payload from scheduler memory once the cache
	// holds it durably; Wait and Result rematerialize it from the cache on
	// demand. This bounds a coordinator's memory by its largest single
	// result instead of the sum of a sweep — 10k-job sweeps reassemble by
	// streaming results one at a time off disk, not by holding every table
	// at once.
	SpoolResults bool
}

// RecoveryStats summarizes what NewScheduler replayed from the journal.
type RecoveryStats struct {
	// Replayed is how many jobs the journal knew about.
	Replayed int
	// Restored is how many replayed jobs were already terminal and stayed
	// so (failed, canceled, or done with a cached result to serve).
	Restored int
	// Requeued is how many replayed jobs were put back on the queue:
	// queued or running at the crash, or done without a cached result.
	Requeued int
}

// Scheduler owns the bounded job queue and the worker pool.
type Scheduler struct {
	cfg     Config
	workers int
	queue   chan *Job
	cache   *Cache
	journal *Journal
	recov   RecoveryStats
	wg      sync.WaitGroup
	began   time.Time
	// clock reads the time for began, job start and finish times, and the
	// rate window; tests inject one.
	clock func() time.Time
	rates rateWindow

	// recovering is true only inside NewScheduler's single-threaded
	// replay, before any worker or submitter exists; finishLocked checks
	// it to avoid re-journaling restored terminal states.
	recovering bool

	busy      atomic.Int32
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string
	seq       int
	quiescing bool

	// queued counts the queued jobs by seq, so a queue position is a prefix
	// sum rather than a scan of every job the scheduler has held.
	queued seqCounts

	// Tracked sweeps: ID → grid-ordered job IDs, journaled so a restart —
	// or a standby promoted from a replicated journal — can still serve
	// GET /sweeps/{id}/result under the original identity.
	sweeps   map[string]core.SweepRecord
	sweepSeq int
}

// NewScheduler starts a scheduler with its worker pool running. With a
// journal configured, the journal is replayed first: terminal jobs are
// restored (done jobs re-bind their cached results; done jobs whose blob is
// gone are requeued), and jobs the previous process left queued or running
// are marked interrupted and requeued — sound because every simulation is
// deterministic and re-execution through the content-addressed cache is
// idempotent.
func NewScheduler(cfg Config) *Scheduler {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	s := &Scheduler{
		cfg:     cfg,
		workers: workers,
		cache:   cfg.Cache,
		journal: cfg.Journal,
		clock:   time.Now,
		jobs:    make(map[string]*Job),
		sweeps:  make(map[string]core.SweepRecord),
	}
	s.began = s.clock()
	var requeue []*Job
	if s.journal != nil {
		requeue = s.replayJournal()
		s.replaySweeps()
	}
	// The queue must at least hold every requeued job — recovery is never
	// turned away by the admission bound it predates.
	if len(requeue) > depth {
		depth = len(requeue)
	}
	s.queue = make(chan *Job, depth)
	for _, j := range requeue {
		s.enqueue(j)
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// replayJournal reconstructs jobs from the journal's compacted state and
// returns the ones that must run (again). Runs single-threaded inside
// NewScheduler, before workers exist.
func (s *Scheduler) replayJournal() []*Job {
	s.recovering = true
	defer func() { s.recovering = false }()
	var requeue []*Job
	for _, r := range s.journal.Jobs() {
		s.recov.Replayed++
		j := &Job{
			ID:          r.JobID,
			Spec:        r.Spec,
			Fingerprint: r.Fingerprint,
			seq:         r.Seq,
			sched:       s,
			done:        make(chan struct{}),
			state:       StateQueued,
			submitted:   time.Now(),
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.submitted.Add(1)
		switch r.State {
		case core.JobDone:
			if s.cache != nil {
				if hit, ok := s.cache.Get(r.Fingerprint); ok {
					j.mu.Lock()
					j.finishLocked(StateDone, hit, nil)
					j.mu.Unlock()
					s.recov.Restored++
					continue
				}
			}
			// Completed, but the result blob is gone (or caching is off):
			// re-execute — deterministic, so the rerun reproduces it.
			_ = s.journal.Interrupted(j.ID)
			s.recov.Requeued++
			requeue = append(requeue, j)
		case core.JobFailed:
			j.mu.Lock()
			j.finishLocked(StateFailed, nil, errors.New(r.Error))
			j.mu.Unlock()
			s.recov.Restored++
		case core.JobCanceled:
			j.mu.Lock()
			j.finishLocked(StateCanceled, nil, ErrCanceled)
			j.mu.Unlock()
			s.recov.Restored++
		case core.JobRunning:
			_ = s.journal.Interrupted(j.ID)
			s.recov.Requeued++
			requeue = append(requeue, j)
		default: // queued: already so in the journal, nothing to append
			s.recov.Requeued++
			requeue = append(requeue, j)
		}
	}
	s.seq = s.journal.MaxSeq()
	return requeue
}

// replaySweeps restores tracked-sweep identities from the journal and
// re-derives the ID sequence so new sweeps never collide with replayed ones.
// Runs single-threaded inside NewScheduler.
func (s *Scheduler) replaySweeps() {
	for _, rec := range s.journal.Sweeps() {
		s.sweeps[rec.SweepID] = rec
		var n int
		if _, err := fmt.Sscanf(rec.SweepID, "s%d", &n); err == nil && n > s.sweepSeq {
			s.sweepSeq = n
		}
	}
}

// Recovery reports what the scheduler replayed from its journal at startup
// (zero-valued without a journal).
func (s *Scheduler) Recovery() RecoveryStats { return s.recov }

// journalRec is the last journal record written, or 0 without a journal.
func (s *Scheduler) journalRec() int64 {
	if s.journal == nil {
		return 0
	}
	return s.journal.Rec()
}

// journalErr is the journal's sticky sync error, or nil (also without a
// journal).
func (s *Scheduler) journalErr() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Err()
}

// Cache returns the scheduler's cache, or nil.
func (s *Scheduler) Cache() *Cache { return s.cache }

// Workers returns the worker-pool size.
func (s *Scheduler) Workers() int { return s.workers }

// worker runs jobs from the queue until it closes. A job's simulation
// (engine, machines, goroutine-scoped machine hooks) is owned by this one
// worker goroutine, so N workers run N fully independent simulations with
// no shared mutable state.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one dequeued job through its retry/timeout policy.
func (s *Scheduler) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting in the queue
		j.mu.Unlock()
		return
	}
	j.dequeueLocked()
	j.state = StateRunning
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	j.cancel = cancel
	j.started = s.clock()
	if s.journal != nil {
		// Best-effort: if the append fails the job still runs; a restart
		// would requeue it from "queued", which is harmlessly idempotent.
		_ = s.journal.Started(j.ID)
	}
	j.mu.Unlock()

	s.busy.Add(1)
	var res *core.Result
	var err error
	if s.cfg.PeerFill != nil {
		if hit, ok := s.cfg.PeerFill(ctx, j.Spec, j.Fingerprint); ok && hit != nil && hit.Fingerprint == j.Fingerprint {
			res = hit
		}
	}
	if res == nil {
		if s.cfg.Execute != nil {
			res, err = s.cfg.Execute(ctx, j.Spec, j.Fingerprint)
		} else {
			res, err = runSpec(ctx, j.Spec, nil)
		}
	}
	s.busy.Add(-1)

	if err == nil && res == nil {
		err = errors.New("lab: executor returned no result")
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		res.Fingerprint = j.Fingerprint
		cached := false
		if s.cache != nil {
			// A cache write failure degrades to cache-off behavior; the
			// result itself is fine.
			cached = s.cache.Put(res) == nil
		}
		if s.cfg.SpoolResults && cached {
			// The payload is durable on disk; keep only the light header in
			// memory and reload the rest on demand. Spooling is what lets a
			// coordinator hold a 10k-job sweep without the sum of its tables.
			trimmed := *res
			trimmed.Table = ""
			trimmed.ProbeReport = ""
			res = &trimmed
			j.spooled = true
		}
		j.finishLocked(StateDone, res, nil)
	case errors.Is(context.Cause(ctx), ErrCanceled):
		j.finishLocked(StateCanceled, nil, ErrCanceled)
	default:
		j.finishLocked(StateFailed, nil, err)
	}
	s.rates.ran(j.finished.Sub(j.started))
}

// Submit validates and enqueues a spec. A cache hit finishes the job
// immediately without queueing; a full queue returns ErrQueueFull.
func (s *Scheduler) Submit(spec core.Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fp := Fingerprint(spec)

	var hit *core.Result
	if s.cache != nil {
		hit, _ = s.cache.Get(fp)
	}

	s.mu.Lock()
	if s.quiescing {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	// Admission: reject before the job exists anywhere — in particular
	// before the journal's write-ahead record, so a turned-away submission
	// leaves no trace to replay. Holding s.mu from this check through the
	// enqueue below makes the reservation sound: Submit is the only sender.
	if hit == nil && len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.seq++
	j := &Job{
		ID:          fmt.Sprintf("j%04d-%s", s.seq, fp[:8]),
		Spec:        spec,
		Fingerprint: fp,
		seq:         s.seq,
		sched:       s,
		done:        make(chan struct{}),
		state:       StateQueued,
		submitted:   time.Now(),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.submitted.Add(1)
	if s.journal != nil {
		// Write-ahead: the job is journaled before it is runnable, and the
		// answer that acknowledges it waits until the record is on disk,
		// so a crash between acknowledgment and execution loses nothing.
		// If the journal cannot accept it, neither does the scheduler — a
		// durable service must not take work it would forget.
		rec, err := s.journal.submitted(j.ID, j.seq, spec, fp)
		if err != nil {
			delete(s.jobs, j.ID)
			s.order = s.order[:len(s.order)-1]
			s.submitted.Add(^uint64(0))
			s.mu.Unlock()
			return nil, fmt.Errorf("lab: journal submission: %w", err)
		}
		j.rec = rec
	}
	if hit != nil {
		// The hit finishes outside s.mu, under its own j.mu only. Its
		// Submitted record is already written, so the journal still orders
		// the two.
		s.mu.Unlock()
		j.mu.Lock()
		j.finishLocked(StateDone, hit, nil)
		j.mu.Unlock()
		return j, nil
	}
	// The enqueue stays under s.mu so it cannot race Shutdown's close of
	// the queue, and it cannot block: the slot was reserved by the
	// admission check above and workers only ever drain.
	s.enqueue(j)
	s.mu.Unlock()
	return j, nil
}

// enqueue counts j as queued and hands it to the workers. Its callers own
// j alone: Submit under s.mu before the job is returned, NewScheduler
// before any worker starts.
func (s *Scheduler) enqueue(j *Job) {
	j.counted = true
	s.queued.add(j.seq, 1)
	s.queue <- j
}

// Lookup finds a job by ID.
func (s *Scheduler) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// QueuePosition returns j's place in line: 1 plus the number of queued jobs
// submitted before it (0 for a job that is running or finished).
func (s *Scheduler) QueuePosition(j *Job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queuePositionLocked()
}

// queuePositionLocked is QueuePosition for callers holding j.mu: one prefix
// sum, whatever the number of jobs held.
func (j *Job) queuePositionLocked() int {
	if j.state != StateQueued {
		return 0
	}
	return 1 + j.sched.queued.below(j.seq)
}

// seqCounts counts queued jobs by seq in a Fenwick tree, so an add and a
// count of the jobs below a seq both cost O(log n) in the highest seq seen.
// Its lock is a leaf: it is taken under s.mu and j.mu and takes nothing.
type seqCounts struct {
	mu sync.Mutex
	// t[i] sums the counts of seqs i-lowbit(i) .. i-1; t[0] is unused.
	t []int
}

// add adds d to the count at seq, growing the tree to cover it.
func (c *seqCounts) add(seq, d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := seq + 1
	for len(c.t) <= i {
		// A new node sums a range of seqs every one of which is already
		// covered, so it starts as the difference of two prefix sums.
		n := len(c.t)
		c.t = append(c.t, c.prefix(n-1)-c.prefix(n-n&-n))
	}
	for ; i < len(c.t); i += i & -i {
		c.t[i] += d
	}
}

// below returns the total count of the seqs smaller than seq.
func (c *seqCounts) below(seq int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prefix(min(seq, len(c.t)-1))
}

// prefix sums nodes 1..i, the counts of seqs 0..i-1. Callers hold c.mu.
func (c *seqCounts) prefix(i int) int {
	sum := 0
	for ; i > 0; i -= i & -i {
		sum += c.t[i]
	}
	return sum
}

// Metrics is a point-in-time snapshot of scheduler health.
type Metrics struct {
	Workers    int    `json:"workers"`
	Busy       int    `json:"busy"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Canceled   uint64 `json:"canceled"`
	// JobsPerSec is the rate jobs finished done over the last minute
	// (over the uptime, in a daemon's first minute).
	JobsPerSec   float64    `json:"jobs_per_sec"`
	UptimeMs     int64      `json:"uptime_ms"`
	Cache        CacheStats `json:"cache"`
	CacheHitRate float64    `json:"cache_hit_rate"`
	// Journal carries the journal's durability gauges; absent without one.
	Journal *JournalStats `json:"journal,omitempty"`
	// Fleet carries the role-specific fleet gauges (core.FleetMetrics on a
	// coordinator, core.WorkerMetrics on a worker) when butterflyd runs as
	// part of a fleet; absent on a single-box daemon.
	Fleet any `json:"fleet,omitempty"`
}

// Metrics snapshots queue depth, worker utilization, throughput, and cache
// traffic.
func (s *Scheduler) Metrics() Metrics {
	now := s.clock()
	up := now.Sub(s.began)
	m := Metrics{
		Workers:    s.workers,
		Busy:       int(s.busy.Load()),
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Submitted:  s.submitted.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		Canceled:   s.canceled.Load(),
		UptimeMs:   up.Milliseconds(),
		JobsPerSec: s.rates.perSec(now, up),
	}
	if s.cache != nil {
		m.Cache = s.cache.Stats()
		m.CacheHitRate = m.Cache.HitRate()
	}
	if s.journal != nil {
		st := s.journal.Stats()
		m.Journal = &st
	}
	return m
}

// Retry-After clamp bounds: a turned-away client is never told to come
// back in 0 seconds (a thundering herd) nor parked longer than 30.
const (
	retryAfterMin = time.Second
	retryAfterMax = 30 * time.Second
)

// RetryAfterHint estimates how long a turned-away client should wait before
// resubmitting: roughly the time for one queue slot to free, clamped to
// [1s, 30s]. The queue is full only while every worker is busy, and then a
// slot frees every mean run time over the pool size; the mean is over the
// last heldRuns jobs the workers ran, so time the pool sat idle never
// lengthens it. Before any job has run there is no run time to divide, so
// the hint falls back to a flat 2 seconds instead of emitting a 0s
// (retry-immediately) header.
func (s *Scheduler) RetryAfterHint() time.Duration {
	held, ok := s.rates.meanHeld()
	if !ok {
		return clampRetryAfter(2 * time.Second)
	}
	return clampRetryAfter(held / time.Duration(s.workers))
}

// Rate window sizes: jobs_per_sec counts the last rateSpan seconds, and
// the Retry-After hint averages the last heldRuns runs.
const (
	rateSpan = 60
	heldRuns = 64
)

// rateWindow is the scheduler's recent throughput. Completions are
// counted in one-second buckets over the last rateSpan seconds, and the
// time a worker held each of the last heldRuns jobs it ran is kept in a
// ring, so neither /metrics nor Retry-After reads a pool that sat idle as
// a slow one. Its lock is a leaf, taken under j.mu.
type rateWindow struct {
	mu    sync.Mutex
	count [rateSpan]uint64 // jobs finished done in second sec[i]
	sec   [rateSpan]int64  // Unix second count[i] counts

	held    [heldRuns]time.Duration
	heldN   int // runs ever recorded
	heldSum time.Duration
}

// done counts a job finishing done at t.
func (w *rateWindow) done(t time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	sec := t.Unix()
	i := sec % rateSpan
	if w.sec[i] != sec {
		w.sec[i], w.count[i] = sec, 0
	}
	w.count[i]++
}

// ran records how long a worker held one job.
func (w *rateWindow) ran(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := w.heldN % heldRuns
	if w.heldN >= heldRuns {
		w.heldSum -= w.held[i]
	}
	w.held[i] = d
	w.heldSum += d
	w.heldN++
}

// perSec is the done rate over the last rateSpan seconds before now, or
// over up when the scheduler is younger than that.
func (w *rateWindow) perSec(now time.Time, up time.Duration) float64 {
	span := min(up, rateSpan*time.Second)
	if span <= 0 {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var n uint64
	for i, sec := range w.sec {
		if sec > now.Unix()-rateSpan && sec <= now.Unix() {
			n += w.count[i]
		}
	}
	return float64(n) / span.Seconds()
}

// meanHeld is the mean time a worker held each of the last heldRuns jobs;
// ok is false before any job has run.
func (w *rateWindow) meanHeld() (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := min(w.heldN, heldRuns)
	if n == 0 {
		return 0, false
	}
	return w.heldSum / time.Duration(n), true
}

// clampRetryAfter pins a per-slot estimate into [retryAfterMin,
// retryAfterMax]. Zero and negative inputs (no throughput observed yet, or
// a clock step) clamp to the minimum — never to "retry now".
func clampRetryAfter(d time.Duration) time.Duration {
	if d < retryAfterMin {
		return retryAfterMin
	}
	if d > retryAfterMax {
		return retryAfterMax
	}
	return d
}

// Shutdown stops intake and drains: queued and in-flight jobs run to
// completion, then the workers exit. If ctx expires first, every live job
// is canceled (running simulations are interrupted) and Shutdown returns
// the context's error once the workers finish unwinding.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.quiescing {
		s.quiescing = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		for _, j := range s.Jobs() {
			j.Cancel()
		}
		<-drained
		return ctx.Err()
	}
}

// WaitAll waits for every job and returns their results in the given order.
// The first job error is returned (with its job ID) but all jobs are waited
// for regardless, so no worker is left writing into a shared structure.
func WaitAll(jobs []*Job) ([]*core.Result, error) {
	results := make([]*core.Result, len(jobs))
	var firstErr error
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("job %s (%s): %w", j.ID, j.Spec.Experiment, err)
		}
		results[i] = res
	}
	return results, firstErr
}
