package fleet

import (
	"context"
	"sort"
	"sync"
	"time"

	"butterfly/internal/core"
)

// Directory is the coordinator's membership table and the fleet's only
// record of it: which workers exist, when each last heartbeat, and the
// counters they reported. It is not journaled — a restarted or promoted
// coordinator starts empty and refills from the next round of heartbeats.
// Liveness is purely heartbeat-driven — a worker that misses beats for
// DeadAfter is dead until it beats again (a SIGKILLed worker and a
// partitioned one look identical from here, and both are handled the same
// way: their in-flight jobs move to the next ring node).
type Directory struct {
	deadAfter time.Duration
	now       func() time.Time // injectable for tests

	mu      sync.Mutex
	members map[string]*member
}

type member struct {
	rec      core.WorkerRecord
	lastBeat time.Time
	alive    bool
	// life is canceled by die; every path that clears alive calls die.
	life context.Context
	die  context.CancelFunc
	// draining marks a planned departure (explicit leave): the worker gets
	// no new placements but stays alive for in-flight polling until its
	// heartbeats stop — at which point it is downed quietly, with no
	// reassignment churn. Only an arrival beat clears it.
	draining  bool
	peerHits  uint64
	simulated uint64
}

// NewDirectory builds a directory that declares a worker dead after
// deadAfter without a heartbeat (minimum 100ms to keep a mistyped flag
// from flapping the whole fleet).
func NewDirectory(deadAfter time.Duration) *Directory {
	if deadAfter < 100*time.Millisecond {
		deadAfter = 100 * time.Millisecond
	}
	return &Directory{deadAfter: deadAfter, now: time.Now, members: make(map[string]*member)}
}

// Beat folds one heartbeat in: liveness plus the worker's reported
// counters. It is the only way into the directory — an unknown or dead
// worker is (re)admitted by its next beat. A draining worker's beats keep
// it alive for in-flight polling without making it placeable again, unless
// the beat is an arrival: a restarted worker cancels its predecessor's
// drain. Beat reports whether the placeable membership just changed.
func (d *Directory) Beat(req core.HeartbeatRequest) (changed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[req.Worker.ID]
	if !ok {
		m = &member{}
		d.members[req.Worker.ID] = m
	}
	if req.Arrival && m.draining {
		m.draining = false
		changed = true
	}
	changed = changed || !ok || (!m.alive && !m.draining) || (!m.draining && m.rec.URL != req.Worker.URL)
	m.rec = req.Worker
	m.lastBeat = d.now()
	m.revive()
	m.peerHits = req.PeerHits
	m.simulated = req.Simulated
	return changed
}

// Depart marks a planned departure (an explicit leave): the worker leaves
// the placement set immediately but stays alive for in-flight polling.
// Reports whether the worker was known and placeable (i.e. whether the
// caller should announce the departure).
func (d *Directory) Depart(id string) (was bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[id]
	if !ok || !m.alive || m.draining {
		return false
	}
	m.draining = true
	return true
}

// MarkDead downs a worker immediately — the coordinator calls it when a
// dispatch fails at the connection level, rather than waiting out the
// heartbeat timeout. Reports whether the worker was alive.
func (d *Directory) MarkDead(id string) (was bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[id]
	if !ok || !m.alive {
		return false
	}
	m.alive = false
	m.die()
	return true
}

// Sweep downs every worker whose last heartbeat is older than DeadAfter
// and returns the newly-dead, for the caller to log.
func (d *Directory) Sweep() []core.WorkerRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	var dead []core.WorkerRecord
	for _, m := range d.members {
		if m.alive && now.Sub(m.lastBeat) > d.deadAfter {
			m.alive = false
			m.die()
			if m.draining {
				// A drained worker going silent is the plan succeeding, not
				// a failure: finalize quietly, no reassignment.
				continue
			}
			dead = append(dead, m.rec)
		}
	}
	sort.Slice(dead, func(a, b int) bool { return dead[a].ID < dead[b].ID })
	return dead
}

// revive marks the member alive, starting a new life unless it is already
// living one. Callers hold d.mu.
func (m *member) revive() {
	if !m.alive {
		m.life, m.die = context.WithCancel(context.Background())
	}
	m.alive = true
}

// Life returns a context that is canceled when the worker stops being
// alive — swept, marked dead, or anything else that downs it. For a worker
// not alive now it is already canceled. A worker that rejoins starts a new
// life; the old context stays canceled.
func (d *Directory) Life(id string) context.Context {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[id]; ok {
		return m.life
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// Placeable reports whether the worker may receive new placements: alive
// and not draining.
func (d *Directory) Placeable(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[id]
	return ok && m.alive && !m.draining
}

// Live returns the placeable membership sorted by ID — the input to
// NewRing. Draining workers are excluded: they finish what they hold but
// receive nothing new.
func (d *Directory) Live() []core.WorkerRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]core.WorkerRecord, 0, len(d.members))
	for _, m := range d.members {
		if m.alive && !m.draining {
			out = append(out, m.rec)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Health snapshots every known worker for the fleet metrics block.
func (d *Directory) Health() []core.WorkerHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	out := make([]core.WorkerHealth, 0, len(d.members))
	for _, m := range d.members {
		out = append(out, core.WorkerHealth{
			ID:             m.rec.ID,
			URL:            m.rec.URL,
			Alive:          m.alive,
			Draining:       m.draining,
			HeartbeatAgeMs: now.Sub(m.lastBeat).Milliseconds(),
			PeerHits:       m.peerHits,
			Simulated:      m.simulated,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
