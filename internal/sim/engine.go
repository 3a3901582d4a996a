// Package sim provides a deterministic discrete-event simulation engine.
// Simulated processes run as coroutines: one dispatch loop resumes exactly
// one process at a time, in (virtual time, FIFO sequence) order, so a
// simulation is reproducible and free of data races by construction.
//
// The engine is the substrate for the Butterfly machine model: every higher
// layer (memory modules, the switching network, Chrysalis, the programming
// models, and the applications) charges virtual time through it. Virtual time
// is measured in integer nanoseconds.
//
// Time is charged through a two-tier API. Proc.Charge accumulates virtual
// time in a per-process local clock without suspending the process; the
// park-based Proc.Advance (and the implicit flushes at every synchronization
// point: Block, Unblock, Yield, spawn, exit, wait-queue and barrier
// operations) folds the local clock back into the shared event queue. A
// process's local clock is therefore invisible to other processes: at every
// point where cross-process effects can be observed, the clock has been
// flushed and event ordering is identical to charging eagerly.
package sim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"butterfly/internal/probe"
)

// procState tracks the lifecycle of a simulated process.
type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Proc is a simulated process (a coroutine under engine control). A Proc may
// only be manipulated from within the simulation: either by its own body
// function or by the body of another process that is currently running.
type Proc struct {
	// ID is a unique, small, dense identifier assigned at spawn time.
	ID int
	// Name identifies the process in traces and deadlock reports.
	Name string
	// Node is the machine node the process is bound to. The engine itself
	// does not interpret it; the machine layer does. It defaults to 0.
	Node int
	// Ctx is an arbitrary per-process context slot for higher layers.
	Ctx any

	eng   *Engine
	state procState
	// next resumes the process's coroutine until its next park (ok true) or
	// its end (ok false); yield, called by the process itself, suspends it
	// back to the dispatch loop. Both are dropped once the body finishes.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	blockedOn  string // reason string while blocked, for deadlock reports
	exited     bool   // set when terminated via Exit or Kill
	killed     bool   // terminated from outside via Engine.Kill (node failure)
	finishing  bool   // body has returned; the completion handler is running
	timedWait  bool   // parked on a timeout event while logically waiting on a queue
	fatal      any    // Terminator panic value that ended the process, if any
	spawnedAt  int64
	finishedAt int64

	// local is the lazily accumulated virtual time charged via Charge and
	// not yet flushed into the event queue.
	local int64

	// Probe bookkeeping, maintained only while a probe is attached:
	// dispatchedAt is when the current run slice began, parkedAt when the
	// process last suspended, parkedBlocked whether that suspension was a
	// Block (vs a scheduled park).
	dispatchedAt  int64
	parkedAt      int64
	parkedBlocked bool

	// Heap bookkeeping: at/seq order the pending resumption, heapIdx is the
	// process's slot in the engine's event heap (-1 when not queued). A
	// process has at most one pending event, so the heap needs no stale
	// entries and entries can be updated in place.
	at      int64
	seq     uint64
	heapIdx int
}

// DeadlockError is returned by Run when no process is runnable but at least
// one process is blocked. It carries a human-readable report of every blocked
// process and what it is waiting for — the same information the Moviola tool
// visualizes for Figure 6 of the paper.
type DeadlockError struct {
	Now     int64
	Blocked []BlockedProc
}

// BlockedProc describes one blocked process inside a DeadlockError.
type BlockedProc struct {
	ID     int
	Name   string
	Node   int
	Reason string
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	s := fmt.Sprintf("sim: deadlock at t=%dns; %d process(es) blocked:", e.Now, len(e.Blocked))
	for _, b := range e.Blocked {
		s += fmt.Sprintf("\n  proc %d %q (node %d) waiting on %s", b.ID, b.Name, b.Node, b.Reason)
	}
	return s
}

// Stats aggregates engine-level counters, useful for benchmarking the
// simulator itself and for sanity checks in tests.
type Stats struct {
	Events       uint64 // process resumptions executed
	Spawned      int    // processes ever created
	Completed    int    // processes that ran to completion
	Charges      uint64 // Charge calls (lazy, no park)
	Parks        uint64 // process suspensions (incl. same-proc fast path)
	LazyFlushes  uint64 // local-clock flushes (park at accumulated time)
	MaxHeapDepth int    // high-water mark of the pending-event heap
}

// Lookahead bounds how much virtual time a process may accumulate locally
// before Charge forces a flush. Sync points flush regardless, so the
// threshold only limits long runs of pure computation.
const Lookahead = 250 * Microsecond

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now     int64
	seq     uint64
	heap    []*Proc // indexed min-heap by (at, seq); one entry per ready proc
	running *Proc
	// handoff is the process a parking or finishing process names as its
	// successor, for the dispatch loop to resume next (nil: none).
	handoff *Proc
	live    int // processes spawned and not yet done
	stats   Stats
	procs   []*Proc
	started bool

	// probe, when non-nil, receives a typed event for every state
	// transition (see internal/probe). Probes are purely observational; a
	// nil probe costs the hot paths one pointer check.
	probe *probe.Probe

	// interrupted is the only piece of engine state that may be touched
	// from outside the simulation's dispatch loop: the end of a job's
	// context (timeout or cancellation) sets it, and the dispatcher checks
	// it at every dispatch point.
	interrupted atomic.Bool

	// trapPanics converts a real panic in a process body into a run error
	// (see TrapPanics); trapped holds that error until Run returns it.
	trapPanics bool
	trapped    error
}

// New creates an empty simulation engine at virtual time zero.
func New() *Engine { return &Engine{} }

// flushRunning flushes the running process's lazy clock, if any.
func (e *Engine) flushRunning() {
	if r := e.running; r != nil && r.local > 0 {
		r.sync()
	}
}

// SetProbe attaches an observability probe (nil detaches). Attach before
// Run: events for processes spawned earlier carry partial histories. The
// probe replaces the former string-callback trace hook with typed events.
func (e *Engine) SetProbe(p *probe.Probe) { e.probe = p }

// Probe returns the attached probe, or nil.
func (e *Engine) Probe() *probe.Probe { return e.probe }

// Now returns the current virtual time in nanoseconds. A process that has
// charged time lazily since its last synchronization point is logically ahead
// of this clock; see Proc.LocalNow.
func (e *Engine) Now() int64 { return e.now }

// Now returns the current virtual time; it equals Engine.Now.
func (p *Proc) Now() int64 { return p.eng.now }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Procs returns all processes ever spawned, in spawn order.
func (e *Engine) Procs() []*Proc { return e.procs }

// Running returns the currently executing process, or nil outside Run.
func (e *Engine) Running() *Proc { return e.running }

// Spawn creates a new simulated process bound to the given node and schedules
// it to start at the current virtual time. fn runs as the process body; when
// fn returns the process completes. Spawn may be called before Run or from
// inside a running process. A running caller's local clock is flushed first,
// so the child starts at the caller's true current time.
func (e *Engine) Spawn(name string, node int, fn func(p *Proc)) *Proc {
	e.flushRunning()
	p := &Proc{
		ID:        len(e.procs),
		Name:      name,
		Node:      node,
		eng:       e,
		state:     stateNew,
		spawnedAt: e.now,
		heapIdx:   -1,
	}
	e.procs = append(e.procs, p)
	e.live++
	e.stats.Spawned++
	p.coroutine(func() {
		// Completion is deferred so it also runs when the body ends by a
		// panic or runtime.Goexit. The coroutine re-raises either in the
		// dispatch loop's goroutine, which is Run's own: a panic reaches
		// Run's caller, and a Goexit (t.Fatal in a test body) ends the
		// goroutine that called Run, so Run never returns; release unwinds
		// the rest either way.
		defer func() {
			p.finishing = true
			if p.local > 0 {
				if p.killed {
					p.local = 0 // a killed process's unflushed time never happened
				} else {
					p.sync() // complete at the process's true local time
				}
			}
			p.state = stateDone
			p.finishedAt = e.now
			e.live--
			e.stats.Completed++
			if pr := e.probe; pr != nil {
				pr.ProcRun(p.dispatchedAt, e.now-p.dispatchedAt, p.ID)
				pr.ProcDone(e.now, p.ID)
			}
			// Name the successor; the coroutine ends here.
			e.handoff = e.popNext()
		}()
		defer func() {
			r := recover()
			if r == nil || r == errExit {
				return
			}
			if t, ok := r.(Terminator); ok && t.TerminatesProcess() {
				// An unhandled process-fatal condition (a Chrysalis throw
				// with no enclosing catch, an uncaught hardware fault):
				// only the raising process dies, not the simulation.
				p.exited = true
				p.fatal = r
				return
			}
			if e.trapPanics {
				// Trapped mode (a service hosting the simulation): the run
				// aborts with an error naming the panic instead of taking
				// the host process down with it.
				if e.trapped == nil {
					e.trapped = fmt.Errorf("sim: process %d (%s) on node %d panicked: %v", p.ID, p.Name, p.Node, r)
				}
				e.Interrupt()
				p.exited = true
				p.fatal = r
				return
			}
			panic(r) // real panic: propagate (crashes the test)
		}()
		if !p.killed {
			fn(p)
		}
	})
	e.schedule(p, e.now)
	if pr := e.probe; pr != nil {
		p.parkedAt = e.now
		pr.ProcSpawn(e.now, p.ID, node, p.Name)
	}
	return p
}

// errExit is the sentinel panic value used by Proc.Exit.
var errExit = new(int)

// IsExitPanic reports whether a recovered panic value is the engine's
// process-exit sentinel — a Proc.Exit or a kill unwinding the process.
// Coroutine schedulers that run process code on auxiliary goroutines
// (antfarm threads) use it to recognize the unwind and forward it to the
// process's root goroutine, where the engine's recovery handler runs.
func IsExitPanic(r any) bool { return r == errExit }

// Terminator is implemented by panic values that terminate only the raising
// process rather than the whole simulation — the software analogue of a
// hardware trap delivered to one processor. chrysalis.ThrowError and
// fault.RefError implement it; the spawn wrapper recovers such values and
// completes the process (recording the value, retrievable via Proc.Fatal)
// instead of crashing the run.
type Terminator interface {
	TerminatesProcess() bool
}

// schedule enqueues a resumption of p at time at and marks it ready.
func (e *Engine) schedule(p *Proc, at int64) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	p.at, p.seq = at, e.seq
	p.state = stateReady
	if p.heapIdx < 0 {
		p.heapIdx = len(e.heap)
		e.heap = append(e.heap, p)
		e.siftUp(p.heapIdx)
		if n := len(e.heap); n > e.stats.MaxHeapDepth {
			e.stats.MaxHeapDepth = n
		}
	} else if !e.siftUp(p.heapIdx) {
		e.siftDown(p.heapIdx)
	}
}

// eventLess orders pending resumptions by (time, FIFO sequence).
func eventLess(a, b *Proc) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property upward from slot i and reports whether
// the entry moved.
func (e *Engine) siftUp(i int) bool {
	h := e.heap
	p := h[i]
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		q := h[parent]
		if !eventLess(p, q) {
			break
		}
		h[i] = q
		q.heapIdx = i
		i = parent
		moved = true
	}
	h[i] = p
	p.heapIdx = i
	return moved
}

// siftDown restores the heap property downward from slot i.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	p := h[i]
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && eventLess(h[r], h[kid]) {
			kid = r
		}
		if !eventLess(h[kid], p) {
			break
		}
		h[i] = h[kid]
		h[i].heapIdx = i
		i = kid
	}
	h[i] = p
	p.heapIdx = i
}

// popNext removes the earliest pending event, advances the clock to it, and
// returns its process marked running. It returns nil if no event is pending.
func (e *Engine) popNext() *Proc {
	n := len(e.heap)
	if n == 0 {
		e.running = nil
		return nil
	}
	p := e.heap[0]
	n--
	last := e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if n > 0 {
		e.heap[0] = last
		last.heapIdx = 0
		e.siftDown(0)
	}
	p.heapIdx = -1
	if p.at > e.now {
		e.now = p.at
	}
	if e.interrupted.Load() {
		// The run is being torn down: every process dies at its dispatch
		// point (the same unwind path Kill uses), so the event queue drains
		// instead of executing further user code.
		p.killed = true
		p.exited = true
	}
	e.stats.Events++
	e.running = p
	p.state = stateRunning
	if pr := e.probe; pr != nil {
		pr.ProcDispatch(e.now, p.ID, e.now-p.parkedAt, p.parkedBlocked)
		p.dispatchedAt = e.now
		p.parkedBlocked = false
	}
	return p
}

// run is the dispatch loop. Starting from p, a process popNext has already
// dispatched, it resumes one process coroutine at a time; each names its
// successor in e.handoff when it parks or finishes. The loop returns once
// no event is pending.
func (e *Engine) run(p *Proc) {
	for p != nil {
		if _, ok := p.next(); !ok {
			p.next, p.yield = nil, nil // drop the finished body's closure
		}
		p, e.handoff = e.handoff, nil
	}
}

// Run executes the simulation until no events remain. It returns nil on a
// clean finish (all processes completed) and a *DeadlockError if processes
// remain blocked with nothing runnable. Either way no process goroutine
// outlives Run (see release). Run must be called exactly once; a second
// call panics.
func (e *Engine) Run() error {
	if e.started {
		panic("sim: Engine.Run called more than once")
	}
	e.started = true
	// Deferred, so the verdict below is taken before the unwind.
	defer e.release()
	// One dispatch loop on the caller's goroutine resumes the process
	// coroutines until the event queue is empty.
	e.run(e.popNext())
	if e.trapped != nil {
		return e.trapped
	}
	if e.interrupted.Load() {
		return &InterruptError{Now: e.now, Live: e.live}
	}
	if e.live > 0 {
		// Everything left alive is blocked: deadlock.
		de := &DeadlockError{Now: e.now}
		for _, p := range e.procs {
			if p.state == stateBlocked {
				de.Blocked = append(de.Blocked, BlockedProc{ID: p.ID, Name: p.Name, Node: p.Node, Reason: p.blockedOn})
			}
		}
		sort.Slice(de.Blocked, func(i, j int) bool { return de.Blocked[i].ID < de.Blocked[j].ID })
		return de
	}
	return nil
}

// release unwinds every process a finished run left alive — blocked in a
// deadlock or abandoned by an interrupt — through the Kill path, so no
// goroutine outlives Run and none pins the machine its process belongs to.
// The unwind runs the processes' deferred cleanup, which may charge time; it
// is invisible all the same: clocks, counters, and the probe stream are left
// as the run ended them.
func (e *Engine) release() {
	if e.live == 0 {
		return
	}
	pr := e.probe
	e.probe = nil
	now, stats := e.now, e.stats
	for _, p := range e.procs {
		if p.state != stateDone {
			e.kill(p)
		}
	}
	e.run(e.popNext())
	e.now, e.stats = now, stats
	e.probe = pr
}

// park suspends the calling process and names the next scheduled event's
// process as its successor for the dispatch loop. If that event is the
// caller's own (the common case on an uncontended timeline), the clock
// advances in place with no coroutine switch at all.
func (p *Proc) park() {
	e := p.eng
	e.stats.Parks++
	if pr := e.probe; pr != nil {
		pr.ProcRun(p.dispatchedAt, e.now-p.dispatchedAt, p.ID)
		p.parkedAt = e.now
		p.parkedBlocked = p.state == stateBlocked
	}
	next := e.popNext()
	if next == p {
		if p.killed && !p.finishing {
			panic(errExit) // killed while parked: die at the resumption point
		}
		return // own event is next: no context switch needed
	}
	e.handoff = next
	p.yield(struct{}{})
	if p.killed && !p.finishing {
		panic(errExit) // killed while parked: die at the resumption point
	}
}

// mustBeRunning panics unless p is the currently executing process. All
// time-consuming operations must be issued by the running process itself.
func (p *Proc) mustBeRunning(op string) {
	if p.eng.running != p {
		panic(fmt.Sprintf("sim: %s called on proc %d %q which is not the running process", op, p.ID, p.Name))
	}
}

// Charge lazily adds d nanoseconds of virtual time to the calling process's
// local clock without suspending it. The charge becomes visible to other
// processes at the next synchronization point (Advance, Sync, Block, queue
// and barrier operations, exit), or immediately once the accumulated slice
// reaches Lookahead. d must be >= 0.
func (p *Proc) Charge(d int64) {
	p.mustBeRunning("Charge")
	if d < 0 {
		panic("sim: Charge with negative duration")
	}
	p.local += d
	p.eng.stats.Charges++
	if p.local >= Lookahead {
		p.sync()
	}
}

// Sync flushes the calling process's local clock: if any lazily charged time
// is pending, the process reschedules at its true local time and parks until
// the shared clock catches up. It is a no-op when nothing is pending. Every
// operation that observes or mutates cross-process state must Sync first;
// the primitives in this package and the machine layer do so automatically.
func (p *Proc) Sync() {
	p.mustBeRunning("Sync")
	p.sync()
}

func (p *Proc) sync() {
	if p.local == 0 {
		return
	}
	e := p.eng
	d := p.local
	p.local = 0
	e.stats.LazyFlushes++
	if pr := e.probe; pr != nil {
		pr.ProcFlush(e.now, p.ID, d)
	}
	e.schedule(p, e.now+d)
	p.park()
}

// LocalNow returns the calling process's view of the current virtual time:
// the shared clock plus any lazily charged local time.
func (p *Proc) LocalNow() int64 { return p.eng.now + p.local }

// Advance charges d nanoseconds of virtual time to the calling process: the
// process is suspended and resumes once the clock has advanced past all other
// work scheduled in the interim. Any lazily charged local time is flushed
// first. d must be >= 0.
func (p *Proc) Advance(d int64) {
	p.mustBeRunning("Advance")
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	p.sync()
	p.eng.schedule(p, p.eng.now+d)
	p.park()
}

// Yield reschedules the process at the current time, letting any other
// process scheduled for the same instant run first.
func (p *Proc) Yield() { p.Advance(0) }

// Block suspends the calling process indefinitely; some other process must
// call Unblock to resume it. reason appears in deadlock reports. The local
// clock is flushed first, so the process blocks at its true local time.
func (p *Proc) Block(reason string) {
	p.mustBeRunning("Block")
	p.sync()
	p.state = stateBlocked
	p.blockedOn = reason
	if pr := p.eng.probe; pr != nil {
		pr.ProcBlock(p.eng.now, p.ID, reason)
	}
	p.park()
}

// Unblock makes a blocked process runnable again at the current virtual time
// (plus delay nanoseconds). waker is the caller: the running process, or nil
// from engine setup. Unblock is never called on a process that is not
// blocked. A running caller's local clock is flushed first, so the wake
// happens at the caller's true current time.
func (e *Engine) Unblock(waker, p *Proc, delay int64) {
	e.flushRunning()
	if p.timedWait {
		// The process is waiting with a timeout: it is stateReady with a
		// pending timeout event in the heap, not stateBlocked. Clearing
		// timedWait before the event fires is what signals "woken, not
		// timed out" to BlockTimeout; rescheduling moves the wake earlier.
		p.timedWait = false
		p.blockedOn = ""
		e.schedule(p, e.now+delay)
		if pr := e.probe; pr != nil {
			pr.ProcUnblock(e.now, p.ID)
		}
		return
	}
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: Unblock of proc %d %q in state %v", p.ID, p.Name, p.state))
	}
	p.blockedOn = ""
	e.schedule(p, e.now+delay)
	if pr := e.probe; pr != nil {
		pr.ProcUnblock(e.now, p.ID)
	}
}

// Exit terminates the calling process immediately, as if its body function
// had returned.
func (p *Proc) Exit() {
	p.mustBeRunning("Exit")
	p.exited = true
	panic(errExit)
}

// InterruptError is returned by Run when the simulation was stopped early via
// Interrupt (a job timeout or cancellation, not anything the simulated
// machine did). Live counts the processes that had not completed when the
// event queue drained; Run unwinds them before it returns, as it does the
// blocked processes of a deadlock, so an interrupted engine holds no
// goroutine and can simply be dropped.
type InterruptError struct {
	Now  int64
	Live int
}

// Error implements the error interface.
func (e *InterruptError) Error() string {
	return fmt.Sprintf("sim: run interrupted at t=%dns (%d process(es) abandoned)", e.Now, e.Live)
}

// Interrupt requests that the simulation stop at the next dispatch point.
// It is the one engine entry point that is safe to call from any goroutine
// at any time: the lab calls it when a job's context ends, to bound the
// job's wall-clock time or to cancel it. Every process subsequently dispatched dies
// immediately (via the Kill unwind path) so the pending-event queue drains
// quickly; Run then returns an *InterruptError. Interrupting an engine that
// has already finished is a no-op.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// TrapPanics switches the engine into trapped mode: a real panic in a
// process body (not a Terminator, not Exit) aborts the run and surfaces
// from Run as an error naming the process and panic value, instead of
// propagating and crashing the host. The lab's runner enables this for
// every engine it observes, so butterflyd and butterflybench (which runs
// every spec through the lab) both trap; only tests that run experiments
// directly keep the default crash-loud behaviour. Must be called before Run.
func (e *Engine) TrapPanics() { e.trapPanics = true }

// Kill terminates another process from outside, modelling a node failure: the
// victim never runs user code again. A blocked or waiting victim is
// rescheduled at the current time so its goroutine unwinds promptly (its park
// panics the exit sentinel at the resumption point); a ready victim dies at
// its next dispatch. Any lazily charged local time the victim has accumulated
// is discarded — a killed process's unflushed work never happened. Killing
// the running process is not allowed (use Exit); killing a completed or
// already killed process is a no-op.
func (e *Engine) Kill(p *Proc) {
	if p == nil || p.state == stateDone || p.killed {
		return
	}
	if p == e.running {
		panic(fmt.Sprintf("sim: Kill of running proc %d %q (use Exit)", p.ID, p.Name))
	}
	e.flushRunning()
	e.kill(p)
}

// kill marks p killed and schedules it now, so its goroutine unwinds at the
// resumption point. p is neither done nor running.
func (e *Engine) kill(p *Proc) {
	p.killed = true
	p.exited = true
	p.blockedOn = ""
	p.timedWait = false
	e.schedule(p, e.now)
}

// BlockTimeout suspends the calling process until either Unblock is called on
// it or d nanoseconds of virtual time elapse, whichever comes first. It
// returns true if the wait timed out. Unlike Block, the process stays in the
// event heap (with a pending timeout event), so a forgotten waiter can never
// deadlock the simulation. reason appears in probe traces. d must be >= 0.
func (p *Proc) BlockTimeout(reason string, d int64) (timedOut bool) {
	p.mustBeRunning("BlockTimeout")
	if d < 0 {
		panic("sim: BlockTimeout with negative duration")
	}
	e := p.eng
	p.sync()
	p.timedWait = true
	p.blockedOn = reason
	if pr := e.probe; pr != nil {
		pr.ProcBlock(e.now, p.ID, reason)
	}
	e.schedule(p, e.now+d)
	p.park()
	timedOut = p.timedWait
	p.timedWait = false
	p.blockedOn = ""
	return timedOut
}

// Blocked reports whether the process is currently blocked.
func (p *Proc) Blocked() bool { return p.state == stateBlocked }

// Done reports whether the process has completed.
func (p *Proc) Done() bool { return p.state == stateDone }

// Killed reports whether the process was terminated from outside via
// Engine.Kill (a node failure). Wait queues use this to skip dead waiters.
func (p *Proc) Killed() bool { return p.killed }

// Fatal returns the Terminator panic value that ended the process (an
// uncaught throw or hardware fault), or nil if it exited normally.
func (p *Proc) Fatal() any { return p.fatal }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Lifetime returns the spawn and finish times of the process; finish is -1
// if the process has not completed.
func (p *Proc) Lifetime() (spawned, finished int64) {
	if p.state != stateDone {
		return p.spawnedAt, -1
	}
	return p.spawnedAt, p.finishedAt
}

// String implements fmt.Stringer for debugging.
func (p *Proc) String() string {
	return fmt.Sprintf("proc %d %q node %d (%s)", p.ID, p.Name, p.Node, p.state)
}
