package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/internal/core"
)

// WorkerConfig parameterizes a fleet Worker.
type WorkerConfig struct {
	// Self identifies this worker on the ring: a stable ID and the URL
	// the coordinator and ring siblings reach its job API on.
	Self core.WorkerRecord
	// Coordinator is the coordinator's base URL (butterflyd -join).
	Coordinator string
	// HeartbeatEvery paces liveness reports (default 1s).
	HeartbeatEvery time.Duration
	// Logf receives the worker's log lines (default: discard).
	Logf func(format string, args ...any)
}

// probeSiblings is how many ring siblings PeerFill asks for a cached result
// before simulating.
const probeSiblings = 2

// Worker is the fleet-side of a butterflyd worker process: it heartbeats
// the coordinator (carrying peer-fill counters; the first beat is how it
// joins), keeps a local copy of the ring from each heartbeat ack, and
// offers PeerFill — the scheduler hook that resolves a job from a ring
// sibling's cache instead of simulating it. Heartbeat acks also carry the
// coordinator failover list and epoch: when the primary stops answering,
// the worker walks the list until a (possibly promoted) coordinator
// answers, and its EpochGate rejects dispatches from any coordinator older
// than the newest it has seen.
type Worker struct {
	cfg   WorkerConfig
	hc    *http.Client // heartbeats and sibling cache probes
	peers atomic.Pointer[Ring]
	gate  EpochGate

	// coords is the failover list (primary first) learned from acks;
	// coordsMu guards it and cur, the index currently answering.
	coordsMu sync.Mutex
	coords   []string
	cur      int

	peerHits  atomic.Uint64
	simulated atomic.Uint64
	lastAck   atomic.Int64 // UnixNano of the last heartbeat ack; 0 = never (beats are arrivals)

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// NewWorker builds a worker runtime. Call Start to begin heartbeating and
// Stop to halt.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	// A missed heartbeat is retried by the next tick, not by backoff: each
	// tick walks the coordinator list at most once, one bounded attempt per
	// candidate, which keeps the cadence honest while every coordinator is
	// down, and the first beat a restarted coordinator receives re-admits
	// this worker.
	w := &Worker{
		cfg:    cfg,
		hc:     &http.Client{Timeout: 2 * time.Second},
		coords: []string{cfg.Coordinator},
		stop:   make(chan struct{}),
	}
	w.peers.Store(NewRing(nil))
	return w
}

// Gate returns the worker's epoch fence, for wrapping its job API (see
// EpochGate.Middleware).
func (w *Worker) Gate() *EpochGate { return &w.gate }

// coordinator returns the coordinator URL currently believed to answer.
func (w *Worker) coordinator() string {
	w.coordsMu.Lock()
	defer w.coordsMu.Unlock()
	return w.coords[w.cur]
}

// coordinators snapshots the failover list.
func (w *Worker) coordinators() []string {
	w.coordsMu.Lock()
	defer w.coordsMu.Unlock()
	out := make([]string, len(w.coords))
	copy(out, w.coords)
	return out
}

// advanceCoordinator rotates to the next failover candidate after a failed
// round-trip, returning the new target. With a single-entry list this is a
// no-op (the next tick retries the same coordinator).
func (w *Worker) advanceCoordinator() string {
	w.coordsMu.Lock()
	defer w.coordsMu.Unlock()
	if len(w.coords) > 1 {
		w.cur = (w.cur + 1) % len(w.coords)
	}
	return w.coords[w.cur]
}

// adoptCoordinators installs the failover list an ack carried, keeping the
// URL that just answered as the current target.
func (w *Worker) adoptCoordinators(answered string, list []string) {
	if len(list) == 0 {
		return
	}
	w.coordsMu.Lock()
	defer w.coordsMu.Unlock()
	w.coords = append(w.coords[:0], list...)
	w.cur = 0
	for i, u := range w.coords {
		if u == answered {
			w.cur = i
			break
		}
	}
}

// Start heartbeats the coordinator: once right away, then every tick. The
// beats sent until one is acknowledged are arrivals — the first one the
// coordinator hears makes this worker placeable, even if a previous run
// under the same ID left a drain pending. The loop runs on a background
// goroutine so a worker can come up before its coordinator does.
func (w *Worker) Start() {
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(w.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			w.beat()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// Stop halts the heartbeat loop.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.done.Wait()
}

// beat sends one heartbeat and folds the ack's membership into the local
// ring. A connection failure moves on to the next coordinator on the
// failover list within the same beat, so a worker whose primary died
// reaches the standby that took over on its next tick, not after walking
// the list one tick per candidate. An answer that is not an ack (a standby
// not yet promoted) rotates to the next candidate for the next tick. Any
// other failure is forgotten: the next tick tries again, and the first
// beat a restarted — or newly promoted — coordinator receives re-admits
// this worker.
func (w *Worker) beat() {
	arrival := w.lastAck.Load() == 0
	body, _ := json.Marshal(core.HeartbeatRequest{
		Worker:    w.cfg.Self,
		Arrival:   arrival,
		PeerHits:  w.peerHits.Load(),
		Simulated: w.simulated.Load(),
	})
	for range len(w.coordinators()) {
		coord := w.coordinator()
		resp, err := w.hc.Post(coord+"/fleet/heartbeat", "application/json", bytes.NewReader(body))
		if err != nil {
			next := w.advanceCoordinator()
			if next == coord {
				w.cfg.Logf("fleet: heartbeat failed coordinator=%s err=%v", coord, err)
				return
			}
			w.cfg.Logf("fleet: heartbeat failed coordinator=%s err=%v — failing over to %s", coord, err, next)
			continue
		}
		view, err := decodeView(resp)
		if err != nil {
			// An HTTP answer that is not a valid ack: the endpoint is alive
			// but not (yet) a coordinator — a standby still waiting to
			// promote. Rotate so the next tick tries another candidate.
			w.advanceCoordinator()
			w.cfg.Logf("fleet: heartbeat ack unreadable coordinator=%s err=%v", coord, err)
			return
		}
		w.acceptView(coord, view)
		if arrival {
			w.cfg.Logf("fleet: joined coordinator=%s ring=%d epoch=%d", coord, len(view.Workers), view.Epoch)
		}
		return
	}
}

// Leave announces a planned departure to the current coordinator — called
// on SIGTERM, before the drain, so the fleet stops placing new jobs here
// and never mistakes the shutdown for a death. Best-effort: an unreachable
// coordinator means the heartbeat timeout will (noisily) get there anyway.
func (w *Worker) Leave() {
	body, _ := json.Marshal(core.LeaveRequest{Worker: w.cfg.Self})
	coord := w.coordinator()
	resp, err := w.hc.Post(coord+"/fleet/leave", "application/json", bytes.NewReader(body))
	if err != nil {
		w.cfg.Logf("fleet: leave failed coordinator=%s err=%v", coord, err)
		return
	}
	resp.Body.Close()
	w.cfg.Logf("fleet: left coordinator=%s", coord)
}

// acceptView installs the coordinator's membership list as the local ring
// and adopts the ack's epoch and coordinator failover list.
func (w *Worker) acceptView(answered string, view core.FleetView) {
	w.peers.Store(NewRing(view.Workers))
	w.gate.Observe(view.Epoch)
	w.adoptCoordinators(answered, view.Coordinators)
	w.lastAck.Store(time.Now().UnixNano())
}

// PeerFill is the lab.Config.PeerFill hook: before simulating, ask up to
// probeSiblings ring neighbors whether they already hold the result. The
// fleet has usually computed any given fingerprint exactly once — on this
// job's previous owner — so a worker that just joined (or inherited an
// arc in a reassignment) fills its cache instead of burning CPU. Probing
// walks the ring from the spec's placement key, the same walk the
// coordinator places by, so the first sibling asked is the worker most
// likely to have owned this job (or its axis-neighbors) before. A probe
// in flight when ctx ends is abandoned as a miss.
func (w *Worker) PeerFill(ctx context.Context, spec core.Spec, fp string) (*core.Result, bool) {
	ring := w.peers.Load()
	probes := 0
	for _, peer := range ring.Successors(PlacementKey(spec), ring.Len()) {
		if peer.ID == w.cfg.Self.ID {
			continue
		}
		if probes++; probes > probeSiblings {
			break
		}
		res, ok := w.probe(ctx, peer, fp)
		if ok {
			w.peerHits.Add(1)
			w.cfg.Logf("fleet: peer-fill fp=%.12s from=%s", fp, peer.ID)
			return res, true
		}
	}
	w.simulated.Add(1)
	return nil, false
}

// probe fetches one fingerprint from one sibling's cache endpoint.
func (w *Worker) probe(ctx context.Context, peer core.WorkerRecord, fp string) (*core.Result, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer.URL+"/cache/"+fp, nil)
	if err != nil {
		return nil, false
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var res core.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || res.Fingerprint != fp {
		return nil, false
	}
	return &res, true
}

// Metrics assembles the worker's fleet gauges for /metrics.
func (w *Worker) Metrics() core.WorkerMetrics {
	ackAge := int64(-1)
	if ts := w.lastAck.Load(); ts > 0 {
		ackAge = time.Since(time.Unix(0, ts)).Milliseconds()
	}
	return core.WorkerMetrics{
		Role:         "worker",
		ID:           w.cfg.Self.ID,
		Coordinator:  w.coordinator(),
		Coordinators: w.coordinators(),
		Epoch:        w.gate.Current(),
		RingSize:     w.peers.Load().Len(),
		PeerHits:     w.peerHits.Load(),
		Simulated:    w.simulated.Load(),
		LastAckAgeMs: ackAge,
	}
}

// PeerHits returns how many jobs this worker resolved from ring siblings.
func (w *Worker) PeerHits() uint64 { return w.peerHits.Load() }

// Simulated returns how many jobs this worker executed locally.
func (w *Worker) Simulated() uint64 { return w.simulated.Load() }

// decodeView reads a FleetView response, consuming and closing the body.
func decodeView(resp *http.Response) (core.FleetView, error) {
	defer resp.Body.Close()
	var view core.FleetView
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("fleet: coordinator answered %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return view, err
	}
	return view, nil
}
