package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
)

// replicaBatchMax bounds one pull response; a follower that is further
// behind simply pulls again immediately.
const replicaBatchMax = 1024

// pullHold bounds how long the primary holds a caught-up follower's pull
// waiting for the next record. It stays well under the follower's 2 s
// client timeout, so a held pull is never mistaken for silence.
const pullHold = time.Second

// Replicator is the primary side of journal replication: it answers
// standbys' pulls from the journal's bounded record tail (or with a full
// state snapshot when a follower is beyond the tail) and tracks each
// follower's acknowledged record for the replication-lag gauge.
//
// Replication is pull-based on purpose: the primary keeps no connection
// state, a standby can appear (or reappear) at any time, and the ack rides
// the next request for free — the same traffic-re-learns-everything shape
// the fleet's heartbeats already use. A caught-up pull is held until the
// journal appends, so a record reaches the standby one round trip after
// it is written rather than one pull interval.
type Replicator struct {
	j   *lab.Journal
	now func() time.Time

	mu        sync.Mutex
	followers map[string]*followerState
}

type followerState struct {
	url      string
	acked    int64
	lastPull time.Time
}

// NewReplicator builds the primary-side replication endpoint for a journal.
func NewReplicator(j *lab.Journal) *Replicator {
	return &Replicator{j: j, now: time.Now, followers: make(map[string]*followerState)}
}

// HandlePull answers POST /replica/pull: records after the follower's ack,
// or a full snapshot when the tail no longer reaches back that far. A
// follower that is caught up is held (up to pullHold) until the next
// record is appended.
func (rp *Replicator) HandlePull(w http.ResponseWriter, r *http.Request) {
	var req core.ReplicaPullRequest
	if !decodeFleetBody(w, r, &req) {
		return
	}
	if req.FollowerID == "" {
		http.Error(w, `{"error":"follower_id is required"}`, http.StatusBadRequest)
		return
	}
	rp.mu.Lock()
	fs, ok := rp.followers[req.FollowerID]
	if !ok {
		fs = &followerState{}
		rp.followers[req.FollowerID] = fs
	}
	if req.FollowerURL != "" {
		fs.url = req.FollowerURL
	}
	if req.AfterRec > fs.acked {
		fs.acked = req.AfterRec
	}
	fs.lastPull = rp.now()
	rp.mu.Unlock()
	if !req.FullState {
		rp.j.WaitAfter(r.Context(), req.AfterRec, pullHold)
	}
	var resp core.ReplicaPullResponse
	if req.FullState {
		st := rp.j.ReplicaState()
		resp.State = &st
	} else if recs, ok := rp.j.RecordsAfter(req.AfterRec, replicaBatchMax); ok {
		resp.Records = recs
	} else {
		st := rp.j.ReplicaState()
		resp.State = &st
	}
	writeFleetJSON(w, resp)
}

// Followers snapshots per-standby replication health, sorted by ID.
func (rp *Replicator) Followers() []core.FollowerHealth {
	last := rp.j.Rec()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	out := make([]core.FollowerHealth, 0, len(rp.followers))
	for id, fs := range rp.followers {
		out = append(out, core.FollowerHealth{
			ID:            id,
			URL:           fs.url,
			AckedRec:      fs.acked,
			LagRecs:       last - fs.acked,
			LastPullAgeMs: rp.now().Sub(fs.lastPull).Milliseconds(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// FollowerURLs lists the standby endpoints that have pulled, sorted by ID —
// what heartbeat acks advertise so workers know where to fail over.
func (rp *Replicator) FollowerURLs() []string {
	var urls []string
	for _, f := range rp.Followers() {
		if f.URL != "" {
			urls = append(urls, f.URL)
		}
	}
	return urls
}

// FollowerConfig parameterizes a standby's replication loop.
type FollowerConfig struct {
	// Self identifies this standby to the primary (ID required; URL is
	// advertised to workers as a failover coordinator endpoint).
	Self core.WorkerRecord
	// Primary is the primary coordinator's base URL (butterflyd -follow).
	Primary string
	// Journal is the standby's own journal — a faithful, same-numbering
	// copy of the primary's, on this host's disk.
	Journal *lab.Journal
	// DeadAfter is how long the primary may stay unreachable before the
	// standby takes over (default 5s). Only connection-level silence
	// counts; any HTTP answer proves the primary alive. It also paces
	// retries: after a failed pull the follower waits DeadAfter/50 before
	// pulling again. While the primary answers, the follower pulls back to
	// back — a caught-up pull is held by the primary until it appends.
	DeadAfter time.Duration
	// OnTakeover runs exactly once, after the takeover epoch is durably
	// fenced into the journal — the hook that promotes this process into a
	// serving coordinator.
	OnTakeover func(epoch uint64)
	// Logf receives the follower's log lines (default: discard).
	Logf func(format string, args ...any)
}

// Follower is the standby side of replication: it pulls the primary's
// journal into its own, watches for the primary's death, and — after
// DeadAfter of connection-level silence — fences a new epoch and fires
// OnTakeover. Death detection deliberately reuses the fleet's
// classification: an HTTP answer of any status is a live primary; only no
// answer at all counts toward the deadline.
type Follower struct {
	cfg FollowerConfig
	hc  *http.Client

	lastAlive atomic.Int64 // UnixNano of the last HTTP answer from the primary
	lastSync  atomic.Int64 // UnixNano of the last successfully applied pull
	fullState atomic.Bool  // next pull must request a snapshot (gap detected)
	acked     atomic.Int64 // record number the last pull sent (durable here)
	tookOver  atomic.Bool

	// ctx ends the pull loop (and any held pull in flight) on Stop.
	ctx    context.Context
	cancel context.CancelFunc
	done   sync.WaitGroup
}

// NewFollower builds a standby replication loop. Call Start to begin.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		cfg:    cfg,
		hc:     &http.Client{Timeout: 2 * time.Second},
		ctx:    ctx,
		cancel: cancel,
	}
}

// Start runs the pull loop on a background goroutine.
func (f *Follower) Start() {
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		for !f.tick() { // a takeover ends the loop's job
			select {
			case <-f.ctx.Done():
				return
			case <-time.After(f.cfg.DeadAfter / 50):
			}
		}
	}()
}

// Stop halts the pull loop (it is already stopped after a takeover).
func (f *Follower) Stop() {
	f.cancel()
	f.done.Wait()
}

// TookOver reports whether this follower has promoted itself.
func (f *Follower) TookOver() bool { return f.tookOver.Load() }

// tick performs one replication round; returns true when the follower took
// over (and the loop should exit).
func (f *Follower) tick() bool {
	// Pull until the primary fails to answer. This does not spin: a
	// caught-up pull is held by the primary until its journal grows.
	for f.ctx.Err() == nil {
		answered, err := f.pullOnce()
		if answered {
			f.lastAlive.Store(time.Now().UnixNano())
		}
		if err != nil {
			if f.ctx.Err() == nil {
				f.cfg.Logf("replica: pull failed primary=%s err=%v", f.cfg.Primary, err)
			}
			break
		}
	}
	// Takeover check: only connection-level silence counts, and only once
	// we have synced at least once (a standby that never reached its
	// primary has nothing to take over).
	last := f.lastAlive.Load()
	if f.lastSync.Load() == 0 || last == 0 {
		return false
	}
	if time.Since(time.Unix(0, last)) <= f.cfg.DeadAfter {
		return false
	}
	epoch, err := f.cfg.Journal.BumpEpoch()
	if err != nil {
		f.cfg.Logf("replica: takeover epoch fence failed: %v", err)
		return false
	}
	f.tookOver.Store(true)
	f.cfg.Logf("replica: takeover primary=%s silent>%s epoch=%d rec=%d",
		f.cfg.Primary, f.cfg.DeadAfter, epoch, f.cfg.Journal.Rec())
	if f.cfg.OnTakeover != nil {
		f.cfg.OnTakeover(epoch)
	}
	return true
}

// pullOnce does one pull round-trip and applies its payload. answered
// reports whether the primary produced any HTTP response (alive), even a
// failing one. It acks only records on this disk: it awaits the journal's
// durability watermark first, one group-committed fsync per applied batch.
func (f *Follower) pullOnce() (answered bool, err error) {
	rec := f.cfg.Journal.Rec()
	if err := f.cfg.Journal.AwaitDurable(f.ctx, rec); err != nil {
		return false, err
	}
	f.acked.Store(rec)
	req := core.ReplicaPullRequest{
		FollowerID:  f.cfg.Self.ID,
		FollowerURL: f.cfg.Self.URL,
		AfterRec:    rec,
		FullState:   f.fullState.Load(),
	}
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(f.ctx, http.MethodPost, f.cfg.Primary+"/replica/pull", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(hreq)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return true, errors.New("primary answered " + resp.Status)
	}
	var pr core.ReplicaPullResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return true, err
	}
	if pr.State != nil {
		if err := f.cfg.Journal.InstallReplicaState(*pr.State); err != nil {
			return true, err
		}
		f.fullState.Store(false)
		f.lastSync.Store(time.Now().UnixNano())
		f.cfg.Logf("replica: installed state snapshot rec=%d jobs=%d epoch=%d",
			pr.State.Rec, len(pr.State.Jobs), pr.State.Epoch)
		return true, nil
	}
	for _, rec := range pr.Records {
		if err := f.cfg.Journal.AppendReplica(rec); err != nil {
			if errors.Is(err, lab.ErrReplicaGap) {
				// The stream skipped past us (torn local tail truncated on
				// restart, or the primary compacted beyond our ack): ask
				// for a snapshot and resync rather than refusing.
				f.fullState.Store(true)
				f.cfg.Logf("replica: gap at rec=%d, resyncing via snapshot: %v", rec.Rec, err)
				return true, nil
			}
			return true, err
		}
	}
	f.lastSync.Store(time.Now().UnixNano())
	return true, nil
}

// Metrics assembles the standby's replication gauges.
func (f *Follower) Metrics() core.StandbyMetrics {
	syncAge := int64(-1)
	if ts := f.lastSync.Load(); ts > 0 {
		syncAge = time.Since(time.Unix(0, ts)).Milliseconds()
	}
	return core.StandbyMetrics{
		Role:          "standby",
		Primary:       f.cfg.Primary,
		Epoch:         f.cfg.Journal.Epoch(),
		AckedRec:      f.acked.Load(),
		LastSyncAgeMs: syncAge,
	}
}

// Mount exposes the standby's pre-takeover observability: GET
// /replica/status answers even while /metrics still 503s (no scheduler is
// attached until promotion).
func (f *Follower) Mount(srv *lab.Server) {
	srv.Handle("GET /replica/status", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeFleetJSON(w, f.Metrics())
	}))
	srv.AugmentMetrics(func() any { return f.Metrics() })
}
