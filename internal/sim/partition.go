package sim

// Partitioned conservative parallel-DES mode.
//
// EnablePartitions splits the engine's event queue into per-partition queues
// (one sched per partition, each mapping a disjoint set of machine nodes).
// Run then executes the simulation as a sequence of virtual-time windows:
//
//	W = [globalMin, globalMin + lookahead)
//
// where globalMin is the earliest pending event across all partitions. Every
// partition executes its own events inside the window concurrently — its
// processes run exactly as on the classic engine, as coroutines resumed by
// the partition's own dispatch loop — and a partition that interacts with
// state owned by another partition does so only through Proc.Exchange, which
// parks the process until the window barrier. At the barrier the coordinator
// services all exchanges of the window in (issue time, process ID) order and
// resumes each requester no earlier than the window end.
//
// Why results are independent of the partition count:
//
//   - Window boundaries derive from global virtual time only. Events never
//     move backward across a barrier (everything dispatched in a window is
//     < windowEnd; everything scheduled after it is >= windowEnd), so the
//     sequence of windows is a pure function of the event timeline.
//   - Inside a window, partitions share no simulation state: the engine
//     panics on cross-node Unblock/Kill/Spawn, and the machine layer routes
//     every off-node reference through Exchange — including references that
//     happen to land in the caller's own partition, so the routing decision
//     never depends on the node-to-partition mapping.
//   - Exchanges are serviced in (issue time, process ID) order, both
//     P-independent, and completions are quantized to max(completion,
//     windowEnd), so the resume times cannot depend on which partition
//     drained first.
//
// A single-partition engine (EnablePartitions(1, ...)) therefore executes
// the identical event sequence as any multi-partition split of the same
// program, and serves as the sequential reference in tests.

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// exchangeReq is one pending cross-partition operation: fn runs at the
// window barrier with the issue time and returns the completion time.
type exchangeReq struct {
	p  *Proc
	t  int64 // issue time (the process's flushed clock)
	fn func(issue int64) int64
}

// EnablePartitions switches the engine into windowed conservative-parallel
// mode with nparts partitions. partOf maps a process's node index to its
// partition in [0, nparts); it must be pure. Must be called on a fresh
// engine: before any Spawn and before Run. With nparts == 1 the engine runs
// the windowed scheme sequentially — the reference semantics every larger
// partition count must reproduce exactly.
func (e *Engine) EnablePartitions(nparts int, partOf func(node int) int) {
	if e.started {
		panic("sim: EnablePartitions after Run")
	}
	if len(e.procs) > 0 {
		panic("sim: EnablePartitions after Spawn")
	}
	if nparts < 1 {
		panic("sim: EnablePartitions needs at least one partition")
	}
	if partOf == nil {
		panic("sim: EnablePartitions with nil partOf")
	}
	e.windowed = true
	e.partOf = partOf
	e.drained = make(chan *sched, nparts)
	e.scheds = make([]*sched, nparts)
	for i := range e.scheds {
		e.scheds[i] = newSched(e, i)
	}
}

// Partitions returns the number of partitions, or 0 for a classic
// (non-windowed) engine.
func (e *Engine) Partitions() int {
	if !e.windowed {
		return 0
	}
	return len(e.scheds)
}

// SetBarrierHook installs fn to run at every window barrier, after the
// window's exchanges have been serviced, with the window's start time. The
// machine layer uses it for periodic calendar pruning, which must not race
// with in-window execution. Must be set before Run; nil removes it.
func (e *Engine) SetBarrierHook(fn func(windowStart int64)) { e.barrierHook = fn }

// Exchange issues a cross-partition operation: the calling process's local
// clock is flushed, the process parks, and fn runs at the end of the current
// window on the coordinator — where it may touch any partition's servers —
// returning the operation's completion time. The process resumes at that
// time or at the window boundary, whichever is later. Exchange panics on a
// non-partitioned engine.
func (p *Proc) Exchange(fn func(issue int64) int64) {
	p.mustBeRunning("Exchange")
	e := p.eng
	if !e.windowed {
		panic("sim: Exchange on a non-partitioned engine")
	}
	p.sync()
	s := p.sd
	s.stats.Exchanges++
	s.outbox = append(s.outbox, exchangeReq{p: p, t: s.now, fn: fn})
	p.state = stateBlocked
	p.blockedOn = "cross-partition exchange"
	s.blocked++
	if pr := e.probe; pr != nil {
		pr.ProcBlock(s.now, p.ID, p.blockedOn)
	}
	p.park()
}

// runWindows is the partitioned Run loop: the coordinator computes each
// window, lets active partitions execute it (concurrently when safe),
// services the window's exchanges at the barrier, and repeats until no
// events remain anywhere.
func (e *Engine) runWindows() {
	window := Lookahead
	// Concurrent execution needs >1 partition and real parallelism to win;
	// an attached probe forces sequential windows so the observed event
	// stream is deterministic. Sequential execution is semantically
	// identical — partitions are isolated within a window either way.
	concurrent := len(e.scheds) > 1 && e.probe == nil && runtime.GOMAXPROCS(0) > 1
	for {
		globalMin := int64(math.MaxInt64)
		for _, s := range e.scheds {
			if len(s.heap) > 0 && s.heap[0].at < globalMin {
				globalMin = s.heap[0].at
			}
		}
		if globalMin == math.MaxInt64 {
			// No pending event anywhere; outboxes were drained at the last
			// barrier, so the simulation is finished (or deadlocked).
			return
		}
		wEnd := globalMin + window
		active := e.activeScr[:0]
		for _, s := range e.scheds {
			if len(s.heap) > 0 && s.heap[0].at < wEnd {
				s.windowEnd = wEnd
				active = append(active, s)
			}
		}
		e.activeScr = active
		t0 := time.Now()
		if concurrent && len(active) > 1 {
			for _, s := range active {
				go func(s *sched) {
					// Deferred, so a body's Goexit cannot strand the barrier.
					defer func() { e.drained <- s }()
					s.run(s.popNext())
					s.drainedAt = int64(time.Since(t0))
				}(s)
			}
			for range active {
				<-e.drained
			}
		} else {
			for _, s := range active {
				// Per-sched stopwatch: measuring from t0 would fold every
				// earlier partition's drain into this one's busy time.
				ds := time.Now()
				s.run(s.popNext())
				s.drainedAt = int64(time.Since(ds))
			}
		}
		execNs := int64(time.Since(t0))
		for _, s := range active {
			s.busyNs += s.drainedAt
			s.syncWaitNs += execNs - s.drainedAt
		}
		for _, s := range e.scheds {
			if len(s.heap) == 0 || s.heap[0].at >= wEnd {
				// Not active this window (or drained immediately): the
				// partition had nothing to execute here.
				if !containsSched(active, s) {
					s.idleNs += execNs
				}
			}
		}
		if e.interrupted.Load() {
			// Tear-down: in-window dispatch already killed everything it
			// touched; abandon exchange waiters like other blocked procs.
			return
		}
		e.serviceExchanges(wEnd)
		if e.barrierHook != nil {
			e.barrierHook(globalMin)
		}
		e.barrierNs += int64(time.Since(t0)) - execNs
		e.windows++
	}
}

func containsSched(ss []*sched, s *sched) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// serviceExchanges runs every exchange issued during the window, in (issue
// time, process ID) order — an ordering independent of the partition count —
// and reschedules each requester at max(completion, wEnd). The exchange
// functions execute on the coordinator while all partitions are quiescent,
// so they may touch any partition's calendars safely.
func (e *Engine) serviceExchanges(wEnd int64) {
	reqs := e.xscratch[:0]
	for _, s := range e.scheds {
		reqs = append(reqs, s.outbox...)
		s.outbox = s.outbox[:0]
	}
	if len(reqs) > 1 {
		sort.Slice(reqs, func(i, j int) bool {
			if reqs[i].t != reqs[j].t {
				return reqs[i].t < reqs[j].t
			}
			return reqs[i].p.ID < reqs[j].p.ID
		})
	}
	for i := range reqs {
		x := &reqs[i]
		c := x.fn(x.t)
		if c < wEnd {
			c = wEnd
		}
		s := x.p.sd
		s.blocked--
		x.p.blockedOn = ""
		if pr := e.probe; pr != nil {
			pr.ProcUnblock(c, x.p.ID)
		}
		s.schedule(x.p, c)
		x.fn = nil
		x.p = nil
	}
	e.xscratch = reqs[:0]
}

// PartitionTiming is the wall-clock execution profile of one partition
// across the whole run, for the -timing breakdown: Busy is time spent
// executing the partition's events, SyncWait time spent drained while
// sibling partitions finished their windows, Idle time spent in windows the
// partition had no events for.
type PartitionTiming struct {
	ID         int
	Events     uint64
	BusyNs     int64
	SyncWaitNs int64
	IdleNs     int64
}

// PartitionTimings returns the per-partition execution profile of a
// partitioned run (nil for a classic engine). Call after Run.
func (e *Engine) PartitionTimings() []PartitionTiming {
	if !e.windowed {
		return nil
	}
	out := make([]PartitionTiming, len(e.scheds))
	for i, s := range e.scheds {
		out[i] = PartitionTiming{
			ID:         s.id,
			Events:     s.stats.Events,
			BusyNs:     s.busyNs,
			SyncWaitNs: s.syncWaitNs,
			IdleNs:     s.idleNs,
		}
	}
	return out
}

// WindowStats reports how many synchronization windows a partitioned run
// executed and the total wall-clock time the coordinator spent in barriers
// (exchange service plus hooks). Zero for a classic engine.
func (e *Engine) WindowStats() (windows uint64, barrierNs int64) {
	return e.windows, e.barrierNs
}
