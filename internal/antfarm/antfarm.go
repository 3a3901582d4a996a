// Package antfarm implements the Ant Farm package (§3.2 of the paper): very
// large numbers of lightweight, blockable threads layered over Chrysalis.
// Invocation of a blocking operation by a thread causes an implicit context
// switch to another runnable thread in the same Chrysalis process; if no
// thread is runnable, the coroutine scheduler blocks the whole process until
// a Chrysalis event is received. Combined with a global name space and
// facilities for starting remote threads, lightweight threads communicate
// without regard to location.
//
// Ant Farm was created because parallel graph algorithms "often call for one
// process per node of the graph" and none of the earlier environments
// supported blockable lightweight processes (§4.2).
package antfarm

import (
	"fmt"
	"sync"

	"butterfly/internal/chrysalis"
	"butterfly/internal/sim"
)

// Config tunes a farm.
type Config struct {
	// SwitchNs is the coroutine context-switch cost.
	SwitchNs int64
	// SpawnNs is the cost of creating a thread (stack carving, descriptor).
	SpawnNs int64
}

// DefaultConfig returns the standard calibration: coroutine switches cost
// tens of microseconds, far below Chrysalis process operations.
func DefaultConfig() Config {
	return Config{
		SwitchNs: 30 * sim.Microsecond,
		SpawnNs:  150 * sim.Microsecond,
	}
}

// threadState tracks a thread's lifecycle.
type threadState int

const (
	threadReady threadState = iota
	threadRunning
	threadBlocked
	threadDone
)

// Thread is one lightweight Ant Farm thread. While a thread runs, it *is*
// the farm's Chrysalis process: it issues machine operations through
// Farm.P and charges that process's virtual time.
type Thread struct {
	ID   int
	Name string
	Farm *Farm

	resume    chan struct{}
	state     threadState
	blockedOn string
	body      func(t *Thread)
	joiners   []*Thread
	// timedSeq is a generation counter for timed blocks: each block bumps
	// it, so stale deadline entries from an earlier block never expire the
	// thread's current one. timedOut reports how the last timed block ended.
	timedSeq uint64
	timedOut bool
}

// Farm is the per-process coroutine scheduler plus thread table.
type Farm struct {
	Pr  *chrysalis.Process
	P   *sim.Proc
	OS  *chrysalis.OS
	Cfg Config

	threads  []*Thread
	runnable []*Thread
	current  *Thread
	live     int
	yield    chan struct{}
	wakeup   *chrysalis.Event
	// fatal holds a process-terminating panic value (the engine's kill/exit
	// sentinel or a hardware-fault Terminator) that unwound a *thread*
	// goroutine; the scheduler re-raises it on the farm's root goroutine,
	// where the engine's recovery handler runs.
	fatal any
	// dead is set once the farm's process has ended; a thread resumed
	// after that unwinds instead of running (see release).
	dead bool
	// pendingWake records that a wakeup post is owed because the farm may
	// be blocked in its scheduler.
	idle bool
	// timed holds the pending deadlines of threads blocked with a timeout;
	// the scheduler expires them and bounds its idle waits by the nearest.
	timed []timedWaiter

	stats Stats
}

// timedWaiter is one thread's pending timed-block deadline. seq snapshots
// the thread's generation counter so a wake-then-reblock cannot be expired
// by a stale entry.
type timedWaiter struct {
	t        *Thread
	seq      uint64
	deadline int64
}

// Stats counts farm activity.
type Stats struct {
	Spawned  int
	Switches uint64
	Idles    uint64 // times the whole process blocked awaiting an event
}

// Run turns the calling Chrysalis process into an Ant Farm: it creates the
// farm, starts main as the first thread, and schedules threads until none
// remain alive. It returns the farm (whose Stats are then final). Run must
// be called from within the process's body function.
func Run(self *chrysalis.Process, cfg Config, main func(t *Thread)) *Farm {
	if cfg.SwitchNs == 0 {
		cfg = DefaultConfig()
	}
	f := &Farm{
		Pr:    self,
		P:     self.P,
		OS:    self.OS,
		Cfg:   cfg,
		yield: make(chan struct{}),
	}
	f.wakeup = f.OS.NewEvent(self)
	farmsMu.Lock()
	farms[self] = f
	farmsMu.Unlock()
	// Deregister on the way out even when a kill or fault unwinds the
	// scheduler (a farm on a failed node must not leak its table entry or
	// its threads).
	defer func() {
		farmsMu.Lock()
		delete(farms, self)
		farmsMu.Unlock()
		f.release()
	}()
	f.Spawn("main", main)
	f.scheduleLoop()
	return f
}

// farms maps Chrysalis processes to their farms. One simulation is
// single-threaded, but the experiment lab runs independent simulations
// concurrently on separate goroutines, and this is the one package-level
// mutable table they share — hence the mutex. Keys never collide across
// simulations (each machine has its own processes), so the lock protects
// only the map structure, never logical state.
var (
	farmsMu sync.Mutex
	farms   = map[*chrysalis.Process]*Farm{}
)

// FarmOf returns the farm running inside a Chrysalis process, or nil.
func FarmOf(pr *chrysalis.Process) *Farm {
	farmsMu.Lock()
	defer farmsMu.Unlock()
	return farms[pr]
}

// Spawn creates a new thread in this farm. It may be called from any thread
// of any farm (remote spawn: "facilities for starting remote coroutines");
// the *caller's* process is charged the spawn cost, plus remote references
// when the farm lives on another node.
func (f *Farm) Spawn(name string, body func(t *Thread)) *Thread {
	t := &Thread{
		ID:     len(f.threads),
		Name:   name,
		Farm:   f,
		resume: make(chan struct{}),
		state:  threadReady,
		body:   body,
	}
	f.threads = append(f.threads, t)
	f.live++
	f.stats.Spawned++
	go func() {
		<-t.resume
		if f.dead { // released before it ever ran
			f.yield <- struct{}{}
			return
		}
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if r == errReleased {
				f.yield <- struct{}{}
				return
			}
			// While a thread runs it *is* the farm's process, so a node kill
			// (the engine's exit sentinel) or an unhandled hardware fault can
			// unwind this goroutine instead of the process's root. Forward
			// the value to the scheduler, which dies with it in the right
			// place; anything else is a real bug and propagates.
			if term, ok := r.(sim.Terminator); sim.IsExitPanic(r) || (ok && term.TerminatesProcess()) {
				t.state = threadDone
				f.fatal = r
				f.yield <- struct{}{}
				return
			}
			panic(r)
		}()
		t.body(t)
		t.state = threadDone
		f.live--
		for _, j := range t.joiners {
			j.Unblock(f.P)
		}
		t.joiners = nil
		f.yield <- struct{}{}
	}()
	f.runnable = append(f.runnable, t)
	// Charge the spawning process (which may be a thread of another farm).
	if cur := f.P.Engine().Running(); cur != nil {
		cur.Advance(f.Cfg.SpawnNs)
		if cur != f.P {
			// Remote spawn: touch the farm's node and wake it if idle. Flush
			// the lazy reference charge before inspecting the idle flag.
			f.OS.M.Atomic(cur, f.P.Node)
			cur.Sync()
			f.kick(cur)
		}
	}
	return t
}

// kick wakes the farm's scheduler if it is blocked awaiting work. waker is
// the process performing the wake.
func (f *Farm) kick(waker *sim.Proc) {
	if f.idle {
		f.idle = false
		f.wakeup.Post(waker, 0)
	}
}

// scheduleLoop runs threads until none are alive.
func (f *Farm) scheduleLoop() {
	for f.live > 0 {
		f.expireTimed()
		if len(f.runnable) == 0 {
			// Block the whole process until a Chrysalis event arrives — or,
			// when threads hold timed blocks, until the nearest deadline.
			f.idle = true
			f.stats.Idles++
			if dl, pending := f.nextDeadline(); pending {
				if wait := dl - f.P.LocalNow(); wait > 0 {
					f.wakeup.WaitTimeout(f.P, wait)
				}
			} else {
				f.wakeup.Wait(f.P)
			}
			f.idle = false
			continue
		}
		t := f.runnable[0]
		f.runnable = f.runnable[:copy(f.runnable, f.runnable[1:])]
		f.P.Advance(f.Cfg.SwitchNs)
		f.stats.Switches++
		f.current = t
		t.state = threadRunning
		t.resume <- struct{}{}
		<-f.yield
		if f.fatal != nil {
			panic(f.fatal) // re-raise a forwarded kill/fault on the root goroutine
		}
		f.current = nil
	}
}

// Current returns the running thread, or nil while the scheduler itself is
// active.
func (f *Farm) Current() *Thread { return f.current }

// Stats returns a copy of the farm counters.
func (f *Farm) Stats() Stats { return f.stats }

// Live returns the number of threads not yet finished.
func (f *Farm) Live() int { return f.live }

// park hands control from the running thread back to the scheduler.
func (t *Thread) park() {
	t.Farm.yield <- struct{}{}
	<-t.resume
	if t.Farm.dead {
		panic(errReleased)
	}
	t.state = threadRunning
}

// errReleased is the panic that unwinds a parked thread once its farm has
// died.
var errReleased = new(int)

// release unwinds, one at a time, every thread goroutine still parked when
// the farm's process ends — killed, interrupted, or torn down after a
// deadlock — so no thread outlives its farm. After a normal return every
// thread is done and there is nothing to release.
func (f *Farm) release() {
	f.dead = true
	for _, t := range f.threads {
		if t.state != threadDone {
			t.resume <- struct{}{}
			<-f.yield
		}
	}
}

// mustBeCurrent panics unless t is the farm's running thread.
func (t *Thread) mustBeCurrent(op string) {
	if t.Farm.current != t {
		panic(fmt.Sprintf("antfarm: %s called on thread %q which is not running", op, t.Name))
	}
}

// YieldThread voluntarily reschedules the thread behind its runnable peers.
func (t *Thread) YieldThread() {
	t.mustBeCurrent("YieldThread")
	t.state = threadReady
	t.Farm.runnable = append(t.Farm.runnable, t)
	t.park()
}

// expireTimed requeues every timed-blocked thread whose deadline has
// passed, marking it timed out. Stale entries (the thread was woken, or
// finished, or re-blocked since) are discarded.
func (f *Farm) expireTimed() {
	if len(f.timed) == 0 {
		return
	}
	now := f.P.LocalNow()
	kept := f.timed[:0]
	for _, e := range f.timed {
		if e.seq != e.t.timedSeq || e.t.state != threadBlocked {
			continue
		}
		if now >= e.deadline {
			e.t.timedOut = true
			e.t.state = threadReady
			f.runnable = append(f.runnable, e.t)
			continue
		}
		kept = append(kept, e)
	}
	f.timed = kept
}

// nextDeadline returns the earliest live timed-block deadline.
func (f *Farm) nextDeadline() (dl int64, pending bool) {
	for _, e := range f.timed {
		if e.seq != e.t.timedSeq || e.t.state != threadBlocked {
			continue
		}
		if !pending || e.deadline < dl {
			dl, pending = e.deadline, true
		}
	}
	return dl, pending
}

// BlockThread suspends the thread until another thread (possibly in another
// farm) calls Unblock.
func (t *Thread) BlockThread(reason string) {
	t.mustBeCurrent("BlockThread")
	t.timedSeq++ // invalidate any stale timed entry from an earlier block
	t.state = threadBlocked
	t.blockedOn = reason
	t.park()
}

// BlockThreadTimeout suspends the thread until Unblock or until d
// nanoseconds of virtual time elapse, whichever comes first. It reports
// whether the block timed out. A timed-out thread is requeued by its own
// scheduler, so a lost wake-up can never hang the farm.
func (t *Thread) BlockThreadTimeout(reason string, d int64) (timedOut bool) {
	t.mustBeCurrent("BlockThreadTimeout")
	t.timedSeq++
	t.timedOut = false
	t.state = threadBlocked
	t.blockedOn = reason
	t.Farm.timed = append(t.Farm.timed, timedWaiter{t: t, seq: t.timedSeq, deadline: t.Farm.P.LocalNow() + d})
	t.park()
	return t.timedOut
}

// Unblock makes a blocked thread runnable. waker is the process performing
// the wake (charged for the remote reference and event post if the thread's
// farm is idle on another node).
func (t *Thread) Unblock(waker *sim.Proc) {
	if t.state != threadBlocked {
		panic(fmt.Sprintf("antfarm: Unblock of thread %q in state %d", t.Name, t.state))
	}
	t.state = threadReady
	t.Farm.runnable = append(t.Farm.runnable, t)
	if waker != t.Farm.P {
		t.Farm.OS.M.Atomic(waker, t.Farm.P.Node)
		waker.Sync() // observe the farm's idle flag at the reference's completion time
	}
	t.Farm.kick(waker)
}

// Blocked reports whether the thread is blocked.
func (t *Thread) Blocked() bool { return t.state == threadBlocked }

// Done reports whether the thread has finished.
func (t *Thread) Done() bool { return t.state == threadDone }

// P returns the simulated process the thread executes on, for issuing
// machine operations (reads, flops) while the thread runs.
func (t *Thread) P() *sim.Proc { return t.Farm.P }

// Join blocks the calling thread until target finishes. It is implemented
// with a channel handshake so joins work across farms.
func (t *Thread) Join(target *Thread) {
	t.mustBeCurrent("Join")
	if target.state == threadDone {
		return
	}
	target.joiners = append(target.joiners, t)
	t.BlockThread("join " + target.Name)
}

// Sleep suspends the calling thread (and, because threads are coroutines,
// its whole farm's processor) for d nanoseconds of virtual time — the
// faithful cost of a compute-bound or delaying thread on the Butterfly.
func (t *Thread) Sleep(d int64) {
	t.mustBeCurrent("Sleep")
	t.Farm.P.Advance(d)
}
