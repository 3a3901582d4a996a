package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
	"butterfly/internal/lab/client"
)

// errWorkerLost marks a dispatch abandoned because its worker died (or
// vanished from the network) — the one error Execute answers by moving
// the job to the next ring node instead of failing it.
var errWorkerLost = errors.New("fleet: worker lost")

// ErrFenced marks a dispatch rejected by a worker's epoch gate: a newer
// coordinator has taken over and this one must stop dispatching — its
// journal is no longer the authority on anything.
var ErrFenced = errors.New("fleet: fenced by a newer coordinator epoch")

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// DeadAfter is how long a worker may go without a heartbeat before
	// its jobs are reassigned (default 5s).
	DeadAfter time.Duration
	// Epoch is this coordinator's generation, stamped on every dispatch.
	// The first coordinator on a journal fences epoch 1; a standby bumps
	// the epoch durably before building its coordinator. Zero means the
	// fleet predates fencing (dispatches go unstamped).
	Epoch uint64
	// Takeovers is how many failovers produced this coordinator (0 for a
	// primary that started as one; surfaced on /metrics).
	Takeovers uint64
	// SelfURL is the base URL workers reach this coordinator on; it leads
	// the coordinator list heartbeat acks advertise.
	SelfURL string
	// Replicator, when non-nil, streams this coordinator's journal to
	// standbys (mounted at POST /replica/pull) and contributes the
	// replication-lag gauges and the standby URLs workers fail over to.
	Replicator *Replicator
	// Logf receives the coordinator's structured log lines (default:
	// discard). Reassignments always log through it — one key=value line
	// per reassignment, so operators can reconstruct failure timelines.
	Logf func(format string, args ...any)
}

// Coordinator owns fleet membership and remote dispatch. Membership is what
// the workers' heartbeats say and nothing else: a restarted or promoted
// coordinator starts with an empty ring, Execute holds jobs while it is
// empty, and the next round of heartbeats refills it. It plugs into a
// lab.Scheduler as its Execute hook: the scheduler keeps owning the
// queue, journal, cache, admission, and job IDs — the machinery that
// survives a crash — while the coordinator turns "run this spec" into
// "place it on the ring, watch the worker, reassign on death".
type Coordinator struct {
	cfg    CoordinatorConfig
	dir    *Directory
	ring   atomic.Pointer[Ring]
	ringMu sync.Mutex // serializes refreshRing

	mu      sync.Mutex
	clients map[string]*client.Client // worker ID → client (rebuilt on URL change)
	urls    map[string]string         // worker ID → URL the client above targets

	reassigned atomic.Uint64
	fenced     atomic.Bool // a worker rejected our epoch: a successor runs
	stop       chan struct{}
	stopOnce   sync.Once
	swept      sync.WaitGroup
}

// NewCoordinator builds a coordinator and starts its heartbeat-timeout
// sweeper. Call Close to stop it.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:     cfg,
		dir:     NewDirectory(cfg.DeadAfter),
		clients: make(map[string]*client.Client),
		urls:    make(map[string]string),
		stop:    make(chan struct{}),
	}
	c.ring.Store(NewRing(nil))
	c.swept.Add(1)
	go c.sweepLoop()
	return c
}

// Close stops the heartbeat sweeper. In-flight Executes keep running;
// they exit through their jobs' cancellation.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.swept.Wait()
}

// sweepLoop downs workers whose heartbeats stopped, twice per timeout.
func (c *Coordinator) sweepLoop() {
	defer c.swept.Done()
	t := time.NewTicker(c.cfg.DeadAfter / 2)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for _, w := range c.dir.Sweep() {
				c.workerDown(w, "heartbeat-timeout")
			}
		}
	}
}

// workerDown records a worker's death everywhere it matters: directory
// (already done by the caller or Sweep), log, ring.
func (c *Coordinator) workerDown(w core.WorkerRecord, reason string) {
	c.cfg.Logf("fleet: worker-down id=%s url=%s reason=%s live=%d", w.ID, w.URL, reason, len(c.dir.Live()))
	c.refreshRing()
}

// workerUp records a worker joining (or rejoining) through its heartbeat.
func (c *Coordinator) workerUp(w core.WorkerRecord) {
	c.cfg.Logf("fleet: worker-up id=%s url=%s live=%d", w.ID, w.URL, len(c.dir.Live()))
	c.refreshRing()
}

// refreshRing rebuilds the placement ring from the live membership. The
// lock orders snapshot-and-store pairs: two unserialized refreshes racing
// a join could store the older snapshot last and leave a live worker off
// the ring until the next membership change.
func (c *Coordinator) refreshRing() {
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	c.ring.Store(NewRing(c.dir.Live()))
}

// Ring returns the current placement ring (never nil).
func (c *Coordinator) Ring() *Ring { return c.ring.Load() }

// Directory returns the coordinator's membership table.
func (c *Coordinator) Directory() *Directory { return c.dir }

// Reassigned returns how many dispatches moved to another worker after a
// death.
func (c *Coordinator) Reassigned() uint64 { return c.reassigned.Load() }

// clientFor returns the client for a worker, caching per worker ID and
// rebuilding when the worker rejoined under a new URL.
func (c *Coordinator) clientFor(w core.WorkerRecord) *client.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.clients[w.ID]; ok && c.urls[w.ID] == w.URL {
		return cl
	}
	cl := client.New(w.URL)
	// Dispatch wants fast failure detection, not patient backoff: the
	// ring has somewhere else to put the job.
	cl.MaxAttempts = 3
	cl.BaseDelay = 50 * time.Millisecond
	cl.MaxDelay = 500 * time.Millisecond
	if c.cfg.Epoch > 0 {
		epoch := strconv.FormatUint(c.cfg.Epoch, 10)
		cl.Headers = func() map[string]string { return map[string]string{EpochHeader: epoch} }
	}
	c.clients[w.ID] = cl
	c.urls[w.ID] = w.URL
	return cl
}

// pickOwner walks the ring clockwise from the placement key and returns
// the first member the directory still believes placeable. The ring is a
// snapshot — between a death being recorded and the ring refresh landing,
// Owner can name a worker that is already dead, and after two simultaneous
// deaths the *successor* can be dead too. Checking each candidate against
// the live directory closes that window: the job goes to the next live
// member, however many corpses sit between.
func (c *Coordinator) pickOwner(key string) (core.WorkerRecord, bool) {
	ring := c.Ring()
	for _, w := range ring.Successors(key, ring.Len()) {
		if c.dir.Placeable(w.ID) {
			return w, true
		}
	}
	return core.WorkerRecord{}, false
}

// Execute is the lab.Config.Execute hook: place the job's locality key on
// the ring, dispatch it to the owning worker, and wait — reassigning to
// the next live ring node whenever the worker dies mid-flight.
// Re-execution after a reassignment is idempotent: the result is
// content-addressed, and any worker that already holds it (its own cache
// or a ring sibling's) serves it without simulating. Placement hashes
// PlacementKey(spec), not the fingerprint, so a sweep's axis-neighbors pin
// to one worker and its cache serves the sweep's next refinement. When ctx
// ends, Execute abandons the dispatch and returns ctx's cause.
func (c *Coordinator) Execute(ctx context.Context, spec core.Spec, fp string) (*core.Result, error) {
	key := PlacementKey(spec)
	var lastWorker string
	for {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		if c.fenced.Load() {
			return nil, ErrFenced
		}
		w, ok := c.pickOwner(key)
		if !ok {
			// No live workers. Hold the job rather than failing it — the
			// fleet losing its last worker is exactly when an operator is
			// mid-restart. Cancellation (or shutdown) is the way out.
			select {
			case <-ctx.Done():
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		if lastWorker != "" && lastWorker != w.ID {
			n := c.reassigned.Add(1)
			c.cfg.Logf("fleet: reassign fp=%.12s from=%s to=%s reason=worker-lost total_reassigned=%d",
				fp, lastWorker, w.ID, n)
		}
		lastWorker = w.ID
		res, err := c.dispatch(ctx, w, spec)
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, errWorkerLost):
			continue // the ring has already been refreshed without w
		case errors.Is(err, errWorkerBusy):
			continue // same worker; the client already backed off between its attempts
		default:
			return nil, err // deterministic job failure — reassignment cannot help
		}
	}
}

// errWorkerBusy marks a dispatch turned away by a live worker (429/503
// after the client's own backed-off retries): try again rather than
// declaring the worker dead.
var errWorkerBusy = errors.New("fleet: worker busy")

// dispatch submits the spec to one worker and waits on a held result fetch.
// The wait ends when the job's context does or the worker's life in the
// directory does, so a death mid-wait abandons the attempt promptly instead
// of waiting out the hold or a network timeout.
func (c *Coordinator) dispatch(ctx context.Context, w core.WorkerRecord, spec core.Spec) (*core.Result, error) {
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	stop := context.AfterFunc(c.dir.Life(w.ID), func() { abort(errWorkerLost) })
	defer stop()
	cl := c.clientFor(w)
	op := "submit"
	st, err := cl.Submit(ctx, spec)
	if err == nil {
		op = "wait"
		var res *core.Result
		if res, err = cl.WaitResult(ctx, st.ID); err == nil {
			return res, nil
		}
	}
	if ctx.Err() != nil {
		cause := context.Cause(ctx)
		if errors.Is(cause, lab.ErrCanceled) && st != nil {
			// Best-effort: stop the worker burning cycles on a job nobody
			// will collect.
			_ = cl.Cancel(context.WithoutCancel(ctx), st.ID)
		}
		return nil, cause
	}
	return nil, c.classify(w, err, op)
}

// classify sorts a client error into the fleet's three kinds: an HTTP
// answer that is backpressure (busy), an HTTP answer that is a verdict
// (permanent), and no answer at all (the worker is gone — mark it dead,
// reassign its work).
func (c *Coordinator) classify(w core.WorkerRecord, err error, op string) error {
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch ae.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return fmt.Errorf("%w: %s %s: %v", errWorkerBusy, w.ID, op, err)
		case http.StatusGone:
			// Only the coordinator cancels worker jobs; a cancellation it
			// did not ask for means the worker restarted confused — rerun.
			return fmt.Errorf("%w: %s %s: %v", errWorkerLost, w.ID, op, err)
		case http.StatusPreconditionFailed:
			// The worker's epoch gate rejected us: a newer coordinator has
			// taken over. Step down loudly — every further dispatch from
			// this process would be a split-brain write.
			if !c.fenced.Swap(true) {
				c.cfg.Logf("fleet: FENCED epoch=%d worker=%s op=%s — a newer coordinator has taken over, stepping down",
					c.cfg.Epoch, w.ID, op)
			}
			return fmt.Errorf("%w: worker %s %s: %v", ErrFenced, w.ID, op, err)
		}
		return fmt.Errorf("fleet: worker %s %s: %w", w.ID, op, err)
	}
	// Connection-level failure: the worker is unreachable. Down it now —
	// the heartbeat timeout would get there, but the job should not wait
	// for it.
	if c.dir.MarkDead(w.ID) {
		c.workerDown(w, "connection-failed op="+op)
	}
	return fmt.Errorf("%w: %s %s: %v", errWorkerLost, w.ID, op, err)
}

// Fenced reports whether a worker has rejected this coordinator's epoch —
// i.e. a successor has taken over and this process must not dispatch.
func (c *Coordinator) Fenced() bool { return c.fenced.Load() }

// Metrics assembles the coordinator's fleet gauges for /metrics.
func (c *Coordinator) Metrics() core.FleetMetrics {
	health := c.dir.Health()
	m := core.FleetMetrics{
		Role:           "coordinator",
		Epoch:          c.cfg.Epoch,
		Takeovers:      c.cfg.Takeovers,
		KnownWorkers:   len(health),
		ReassignedJobs: c.reassigned.Load(),
		Workers:        health,
	}
	for _, h := range health {
		if h.Alive {
			m.LiveWorkers++
			if h.HeartbeatAgeMs > m.MaxBeatAgeMs {
				m.MaxBeatAgeMs = h.HeartbeatAgeMs
			}
		}
		m.PeerHits += h.PeerHits
		m.Simulated += h.Simulated
	}
	if c.cfg.Replicator != nil {
		m.Followers = c.cfg.Replicator.Followers()
		for _, f := range m.Followers {
			if f.LagRecs > m.ReplicationLagRecs {
				m.ReplicationLagRecs = f.LagRecs
			}
		}
	}
	return m
}

// view assembles the membership answer to heartbeats and leaves, carrying
// the epoch (so workers raise their fences without waiting for a dispatch)
// and the coordinator failover list (self first, then pulling standbys).
func (c *Coordinator) view() core.FleetView {
	v := core.FleetView{Workers: c.dir.Live(), Epoch: c.cfg.Epoch}
	if c.cfg.SelfURL != "" {
		v.Coordinators = append(v.Coordinators, c.cfg.SelfURL)
	}
	if c.cfg.Replicator != nil {
		v.Coordinators = append(v.Coordinators, c.cfg.Replicator.FollowerURLs()...)
	}
	return v
}

// Mount wires the coordinator's HTTP surface onto a lab server:
//
//	POST /fleet/heartbeat  liveness + counters; admits the worker (body: core.HeartbeatRequest)
//	POST /fleet/leave      worker's planned departure (body: core.LeaveRequest)
//	GET  /fleet            fleet status document (core.FleetMetrics)
//	POST /replica/pull     standby journal replication (with a Replicator)
//
// and registers the fleet block of /metrics.
func (c *Coordinator) Mount(srv *lab.Server) {
	srv.Handle("POST /fleet/heartbeat", http.HandlerFunc(c.handleHeartbeat))
	srv.Handle("POST /fleet/leave", http.HandlerFunc(c.handleLeave))
	srv.Handle("GET /fleet", http.HandlerFunc(c.handleStatus))
	if c.cfg.Replicator != nil {
		srv.Handle("POST /replica/pull", http.HandlerFunc(c.cfg.Replicator.HandlePull))
	}
	srv.AugmentMetrics(func() any { return c.Metrics() })
}

// handleLeave is a worker's planned departure: drop it from the placement
// set immediately, but keep it pollable for its in-flight jobs — no
// reassignment churn, because nothing was abandoned.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req core.LeaveRequest
	if !decodeFleetBody(w, r, &req) || !validWorker(w, req.Worker) {
		return
	}
	if c.dir.Depart(req.Worker.ID) {
		c.cfg.Logf("fleet: worker-leave id=%s url=%s reason=drain live=%d",
			req.Worker.ID, req.Worker.URL, len(c.dir.Live()))
		c.refreshRing()
	}
	writeFleetJSON(w, c.view())
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req core.HeartbeatRequest
	if !decodeFleetBody(w, r, &req) || !validWorker(w, req.Worker) {
		return
	}
	// A heartbeat from an unknown (or believed-dead) worker admits it:
	// this is how every worker joins, and how a restarted coordinator
	// re-learns its fleet.
	if c.dir.Beat(req) {
		c.workerUp(req.Worker)
	}
	writeFleetJSON(w, c.view())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeFleetJSON(w, c.Metrics())
}

// decodeFleetBody parses a small fleet POST (bounded well under the lab's
// body cap — a membership record is a hundred bytes).
func decodeFleetBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"bad fleet body: %v"}`, err), http.StatusBadRequest)
		return false
	}
	return true
}

func validWorker(w http.ResponseWriter, rec core.WorkerRecord) bool {
	if rec.ID == "" || rec.URL == "" {
		http.Error(w, `{"error":"worker id and url are required"}`, http.StatusBadRequest)
		return false
	}
	return true
}

func writeFleetJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
