// Package us implements the BBN Uniform System (§2.3 of the paper): a
// library that creates one manager process per processor and dispatches
// lightweight run-to-completion tasks from a global, microcoded work queue
// over a single globally shared memory. It is cheap and easy — the
// "programming environment of choice for most applications" — but tasks
// cannot block (spin locks only), the global queue and serial allocator are
// contention points, and nothing co-locates a task with its data, so careful
// programs copy blocks into local memory before computing (the caching idiom
// of §4.1).
//
// The package reproduces both the convenient interface (task generators over
// index ranges) and the documented pathologies: a serial first-fit memory
// allocator that dominated programs until a parallel allocator was introduced
// (Ellis & Olson), and a 16 MB limit on usable shared memory (256 segments ×
// 64 KB) regardless of the gigabyte of physical storage.
package us

import (
	"errors"
	"fmt"

	"butterfly/internal/chrysalis"
	"butterfly/internal/fault"
	"butterfly/internal/sim"
)

// Task is a Uniform System task: a procedure applied to shared data,
// identified here by the index it was generated for. Tasks run to completion
// on whichever worker dequeues them; they must not block (only spin locks
// are legal inside a task).
type Task func(w *Worker, index int)

// Config tunes the Uniform System instance.
type Config struct {
	// Workers is the number of processors used (one manager per node,
	// nodes 0..Workers-1).
	Workers int
	// ParallelAlloc selects the per-node parallel first-fit allocator
	// instead of the original serial one (experiment E9 "alloc").
	ParallelAlloc bool
	// AllocHoldNs is the time the allocator's critical section is held per
	// request.
	AllocHoldNs int64
	// TaskWrapNs is the fixed manager overhead around each task beyond the
	// dual-queue dequeue itself (argument unpacking, procedure dispatch).
	TaskWrapNs int64
}

// DefaultConfig returns a Config for the given worker count with the
// original (serial) allocator.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:     workers,
		AllocHoldNs: 150 * sim.Microsecond,
		TaskWrapNs:  20 * sim.Microsecond,
	}
}

// Worker is one Uniform System manager's execution context, handed to tasks.
type Worker struct {
	// ID is the worker index, 0..Workers-1; worker i runs on node i.
	ID int
	// P is the simulated process executing the task.
	P *sim.Proc
	// U is the owning Uniform System instance.
	U *US
	// TasksRun counts tasks this worker executed.
	TasksRun int
}

// US is an initialized Uniform System instance.
type US struct {
	OS  *chrysalis.OS
	Cfg Config

	taskQ   *chrysalis.DualQueue
	pending []pendingTask
	free    []int // free slots in pending
	// orphans holds tasks stranded on workers killed by a node failure; the
	// generator adopts and re-enqueues them on its next poll.
	orphans []pendingTask

	managers  []*chrysalis.Process
	workers   []*Worker
	genProc   *chrysalis.Process
	doneEvent *chrysalis.Event
	remaining int

	allocLocks []*chrysalis.SpinLock // 1 lock (serial) or Workers locks
	allocated  int64                 // bytes allocated through the US heap

	stats Stats
}

// Stats aggregates Uniform System counters.
type Stats struct {
	TasksExecuted uint64
	Generations   uint64
	AllocRequests uint64
	// Fault-tolerance counters (all zero without an injector).
	TasksRetried       uint64 // transient failures re-enqueued for another try
	TasksFailed        uint64 // tasks abandoned after MaxTaskTries (or permanent faults)
	TasksRedistributed uint64 // orphaned tasks of dead workers re-enqueued by the generator
}

type pendingTask struct {
	fn    Task
	index int
	tries int // failed attempts so far
}

// MaxTaskTries bounds how many times a task that failed with a transient
// fault (packet loss, parity) runs before it is abandoned.
const MaxTaskTries = 3

// poison is the queue datum that tells a manager to shut down.
const poison = ^uint32(0)

// ErrBadWorkers reports an unusable worker count.
var ErrBadWorkers = errors.New("us: worker count exceeds machine size or is not positive")

// Initialize starts the Uniform System on an OS: it creates a generator
// process on node 0 and one manager process on each of nodes 1..Workers-1,
// then calls program with the generator's worker context. Managers dispatch
// tasks until Shutdown. Initialize returns once the whole simulation has been
// set up; the caller still runs the engine.
func Initialize(os *chrysalis.OS, cfg Config, program func(w *Worker)) (*US, error) {
	if cfg.Workers <= 0 || cfg.Workers > os.M.N() {
		return nil, fmt.Errorf("%w: %d workers on %d nodes", ErrBadWorkers, cfg.Workers, os.M.N())
	}
	if cfg.AllocHoldNs == 0 {
		cfg.AllocHoldNs = DefaultConfig(cfg.Workers).AllocHoldNs
	}
	u := &US{OS: os, Cfg: cfg}
	// The global work queue lives on node 0, like the shared state of the
	// real implementation. It is a microcoded dual queue.
	u.taskQ = os.NewDualQueue(0, nil)
	if cfg.ParallelAlloc {
		for i := 0; i < cfg.Workers; i++ {
			u.allocLocks = append(u.allocLocks, os.NewSpinLock(i))
		}
	} else {
		u.allocLocks = []*chrysalis.SpinLock{os.NewSpinLock(0)}
	}
	// Managers on nodes 1..Workers-1.
	for i := 1; i < cfg.Workers; i++ {
		i := i
		w := &Worker{ID: i, U: u}
		u.workers = append(u.workers, w)
		pr, err := os.MakeProcess(nil, fmt.Sprintf("us-manager-%d", i), i, 16, func(self *chrysalis.Process) {
			w.P = self.P
			u.managerLoop(w)
		})
		if err != nil {
			return nil, err
		}
		u.managers = append(u.managers, pr)
	}
	// Generator on node 0; it doubles as worker 0 while a generation runs.
	gen := &Worker{ID: 0, U: u}
	u.workers = append([]*Worker{gen}, u.workers...)
	_, err := os.MakeProcess(nil, "us-generator", 0, 16, func(self *chrysalis.Process) {
		gen.P = self.P
		u.genProc = self
		u.doneEvent = os.NewEvent(self)
		program(gen)
		u.Shutdown(gen)
	})
	if err != nil {
		return nil, err
	}
	return u, nil
}

// managerLoop dequeues and executes tasks until poisoned. Under fault
// injection a transient fault on the dequeue reference is retried (the task
// queue lives on node 0, which never fails); a manager whose own node dies
// is killed by the injector and never returns here.
func (u *US) managerLoop(w *Worker) {
	faulty := u.OS.M.Faults() != nil
	for {
		var d uint32
		if faulty {
			if protect(func() { d = u.taskQ.Dequeue(w.P) }) != nil {
				continue
			}
		} else {
			d = u.taskQ.Dequeue(w.P)
		}
		if d == poison {
			return
		}
		u.execute(w, int(d))
	}
}

// execute runs one pending task and performs completion accounting.
func (u *US) execute(w *Worker, slot int) {
	pt := u.pending[slot]
	u.free = append(u.free, slot)
	if u.OS.M.Faults() != nil {
		u.executeFaulty(w, pt)
		return
	}
	// The wrap overhead is pure manager time: charge it lazily so it merges
	// into the task body's first sync point instead of costing an engine event.
	w.P.Charge(u.Cfg.TaskWrapNs)
	pt.fn(w, pt.index)
	w.TasksRun++
	u.stats.TasksExecuted++
	// Completion counter lives with the generator on node 0. Flush after the
	// atomic so the decrement is visible at the reference's completion time.
	u.OS.M.Atomic(w.P, 0)
	w.P.Sync()
	u.remaining--
	if u.remaining == 0 {
		u.doneEvent.Post(w.P, 0)
	}
}

// protect runs fn, converting a reference-fault panic into an error.
func protect(fn func()) (err error) {
	defer fault.CatchRef(&err)
	fn()
	return err
}

// runTask runs the task body with reference faults caught.
func (u *US) runTask(w *Worker, pt pendingTask) (err error) {
	defer fault.CatchRef(&err)
	pt.fn(w, pt.index)
	return nil
}

// executeFaulty is execute under fault injection: the task body's reference
// faults are caught (transient ones re-enqueue the task, up to
// MaxTaskTries), and a worker killed mid-task leaves its task in orphans
// for the generator to redistribute.
func (u *US) executeFaulty(w *Worker, pt pendingTask) {
	done := false    // the task's fate is settled (requeued, failed, or completed)
	counted := false // remaining has been decremented
	defer func() {
		// The worker's node died mid-task. Only pure-Go accounting is legal
		// here — a dead processor cannot charge time: strand the task for
		// the generator to adopt, or finish the count if only that was left.
		if w.P.Killed() {
			if !done {
				u.orphans = append(u.orphans, pt)
			} else if !counted {
				u.remaining--
			}
		}
	}()
	w.P.Charge(u.Cfg.TaskWrapNs)
	err := u.runTask(w, pt)
	w.TasksRun++
	u.stats.TasksExecuted++
	if err != nil {
		var re *fault.RefError
		if errors.As(err, &re) && re.Kind != fault.NodeDown && pt.tries+1 < MaxTaskTries {
			retry := pt
			retry.tries++
			if protect(func() { u.enqueue(w.P, retry) }) == nil {
				done = true
				u.stats.TasksRetried++
				return
			}
		}
		u.stats.TasksFailed++
	}
	done = true
	// Completion accounting must not strand the generation, so even the
	// bookkeeping references are protected: a fault there costs only the
	// time charge, the Go-state count still settles.
	_ = protect(func() {
		u.OS.M.Atomic(w.P, 0)
		w.P.Sync()
	})
	u.remaining--
	counted = true
	if u.remaining == 0 {
		_ = protect(func() { u.doneEvent.Post(w.P, 0) })
	}
}

// enqueueTask registers fn(index) and enqueues its descriptor.
func (u *US) enqueueTask(p *sim.Proc, fn Task, index int) {
	u.enqueue(p, pendingTask{fn: fn, index: index})
}

// enqueue registers a pending task (preserving its retry count) and
// enqueues its descriptor.
func (u *US) enqueue(p *sim.Proc, pt pendingTask) {
	var slot int
	if n := len(u.free); n > 0 {
		slot = u.free[n-1]
		u.free = u.free[:n-1]
		u.pending[slot] = pt
	} else {
		slot = len(u.pending)
		u.pending = append(u.pending, pt)
	}
	u.taskQ.Enqueue(p, uint32(slot))
}

// GenOnIndex is the Uniform System's canonical generator: it creates one
// task per index in [0, n) and returns when all have completed. The calling
// worker participates in execution (its processor is not wasted), exactly as
// the real library's generator-becomes-worker behaviour. It must be called
// from the program function's worker (or a task must never call it — tasks
// run to completion).
func (u *US) GenOnIndex(w *Worker, n int, fn Task) {
	if n == 0 {
		return
	}
	u.stats.Generations++
	u.remaining += n
	for i := 0; i < n; i++ {
		u.enqueueTask(w.P, fn, i)
	}
	if u.OS.M.Faults() != nil {
		u.genOnIndexFaulty(w)
		return
	}
	// Work alongside the managers until the queue drains.
	for {
		d, ok := u.taskQ.TryDequeue(w.P)
		if !ok {
			break
		}
		if d == poison { // cannot happen mid-generation, but be safe
			u.taskQ.Enqueue(w.P, d)
			break
		}
		u.execute(w, int(d))
	}
	// Wait for stragglers on other workers. If the generator itself executed
	// the final task, the completion post is already pending; consume it so
	// it cannot leak into the next generation.
	if u.remaining > 0 || u.doneEvent.Posted() {
		u.doneEvent.Wait(w.P)
	}
}

// genPollNs is the generator's poll period while waiting out a generation
// under fault injection: each tick it re-checks for tasks orphaned by dead
// workers and redistributes them. A completion post still wakes it early.
const genPollNs = 2 * sim.Millisecond

// genOnIndexFaulty is GenOnIndex's wait phase when an injector is attached.
// The straggler wait cannot be a bare event wait: the worker holding the
// final task may be killed, so the generator polls, adopting orphaned tasks
// and re-enqueueing them until the count settles.
func (u *US) genOnIndexFaulty(w *Worker) {
	for {
		// Work alongside the managers.
		for {
			d, ok := u.taskQ.TryDequeue(w.P)
			if !ok {
				break
			}
			if d == poison {
				u.taskQ.Enqueue(w.P, d)
				break
			}
			u.execute(w, int(d))
		}
		// Adopt tasks stranded on dead workers.
		if len(u.orphans) > 0 {
			orphans := u.orphans
			u.orphans = nil
			for _, pt := range orphans {
				u.stats.TasksRedistributed++
				if protect(func() { u.enqueue(w.P, pt) }) != nil {
					// The re-enqueue reference itself failed: give up on
					// this task rather than strand the generation.
					u.stats.TasksFailed++
					u.remaining--
				}
			}
			continue
		}
		if u.remaining <= 0 {
			if u.doneEvent.Posted() {
				u.doneEvent.Wait(w.P) // consume the pending post
			}
			return
		}
		// Stragglers remain on other workers: sleep until the completion
		// post or the next orphan-check tick, whichever comes first.
		u.doneEvent.WaitTimeout(w.P, genPollNs)
	}
}

// Submit enqueues a single task outside any generation — the open-loop
// injection path the workload subsystem uses to run the Uniform System as
// a service: one task per request arrival, paced by the generator's clock,
// with no closed-loop barrier. The caller tracks its own completions (for
// example with a counter inside fn) and drains before returning from the
// program function; remaining is still maintained so the queue-drained
// notification stays coherent (a spurious post is harmless — nothing waits
// on it in service mode).
func (u *US) Submit(w *Worker, fn Task, index int) {
	u.remaining++
	u.enqueueTask(w.P, fn, index)
}

// Shutdown poisons every manager. It is called automatically when the
// program function returns.
func (u *US) Shutdown(w *Worker) {
	for range u.managers {
		u.taskQ.Enqueue(w.P, poison)
	}
}

// Stats returns a copy of the instance counters.
func (u *US) Stats() Stats { return u.stats }

// Workers returns the worker contexts (index 0 is the generator).
func (u *US) Workers() []*Worker { return u.workers }

// MaxSharedBytes is the ceiling on globally shared memory under the Uniform
// System on the Butterfly-I: all managers share one memory map of at most
// 256 segments of 64 KB — 16 MB, out of a possible gigabyte (§2.3).
const MaxSharedBytes = 256 * 64 * 1024

// ErrSharedLimit reports exhaustion of the 16 MB shared address space.
var ErrSharedLimit = errors.New("us: shared memory limit (16 MB) exceeded")

// Alloc charges for a shared-memory allocation of size bytes homed on the
// given node and returns an opaque region id. With the serial allocator all
// requests from all workers funnel through one lock on node 0; with the
// parallel allocator each worker uses its node-local lock (Ellis & Olson).
func (u *US) Alloc(w *Worker, node, size int) (int, error) {
	w.P.Sync() // observe the shared heap at the caller's true time
	if u.allocated+int64(size) > MaxSharedBytes {
		return 0, ErrSharedLimit
	}
	u.stats.AllocRequests++
	lock := u.allocLocks[0]
	if u.Cfg.ParallelAlloc {
		lock = u.allocLocks[w.ID]
	}
	lock.Lock(w.P)
	w.P.Advance(u.Cfg.AllocHoldNs)
	u.allocated += int64(size)
	lock.Unlock(w.P)
	return int(u.allocated), nil
}

// Scatter describes data spread round-robin across the first Limit node
// memories — "scatter data throughout the shared memory". Row i of a
// scattered structure lives on node Nodes[i].
type Scatter struct {
	Nodes []int
	Limit int
}

// ScatterRows allocates n rows of rowBytes each, spread round-robin over the
// first limit memories (limit <= 0 means all workers' nodes). Spreading over
// more memories reduces contention — experiment E4 measures the >30%
// improvement the paper reports for Gaussian elimination.
func (u *US) ScatterRows(w *Worker, n, rowBytes, limit int) (*Scatter, error) {
	if limit <= 0 || limit > u.OS.M.N() {
		limit = u.Cfg.Workers
	}
	s := &Scatter{Nodes: make([]int, n), Limit: limit}
	for i := 0; i < n; i++ {
		node := i % limit
		if _, err := u.Alloc(w, node, rowBytes); err != nil {
			return nil, err
		}
		s.Nodes[i] = node
	}
	return s, nil
}

// NodeOf returns the home node of row i.
func (s *Scatter) NodeOf(i int) int { return s.Nodes[i] }
