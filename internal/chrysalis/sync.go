package chrysalis

import (
	"fmt"

	"butterfly/internal/sim"
)

// Event resembles a binary semaphore on which only one process — the owner —
// can wait. The posting process supplies a 32-bit datum returned to the
// owner by Wait. Events are microcoded in the PNC and complete in tens of
// microseconds.
type Event struct {
	os     *OS
	obj    *Object
	owner  *Process
	posted bool
	datum  uint32
	wq     *sim.WaitQueue
}

// NewEvent creates an event owned by pr.
func (os *OS) NewEvent(pr *Process) *Event {
	e := &Event{
		os:    os,
		owner: pr,
		wq:    sim.NewWaitQueue("event"),
	}
	e.obj = os.newObject(KindEvent, pr.P.Node, 0, pr.Root)
	e.obj.payload = e
	e.wq = sim.NewWaitQueue(fmt.Sprintf("event %d", e.obj.ID))
	return e
}

// ID returns the event's global object name.
func (e *Event) ID() ObjID { return e.obj.ID }

// Post makes the event available, delivering datum to the owner. A second
// post before the owner waits overwrites the datum (binary semantics). The
// poster is charged the microcode cost plus a reference to the event's home
// node.
func (e *Event) Post(p *sim.Proc, datum uint32) {
	e.os.M.Microcode(p, e.obj.Node, e.os.Costs.EventPost)
	// The microcode charge is lazy; flush it before touching the event's
	// shared state so the post lands at the operation's completion time.
	p.Sync()
	if pr := e.os.M.Probe(); pr != nil {
		pr.Prim(p.LocalNow(), p.ID, e.obj.Node, "event.post", e.os.Costs.EventPost)
	}
	e.datum = datum
	if e.wq.Len() > 0 {
		e.posted = false
		e.wq.WakeOne(p, 0)
		return
	}
	e.posted = true
}

// Wait blocks the owner until the event is posted and returns the datum.
// Only the owner may wait; Chrysalis treats anything else as an error.
func (e *Event) Wait(p *sim.Proc) uint32 {
	if Self(p) != e.owner {
		panic(fmt.Sprintf("chrysalis: process %q waits on event %d it does not own", p.Name, e.obj.ID))
	}
	e.os.M.Microcode(p, e.obj.Node, e.os.Costs.EventWait)
	p.Sync()
	if pr := e.os.M.Probe(); pr != nil {
		pr.Prim(p.LocalNow(), p.ID, e.obj.Node, "event.wait", e.os.Costs.EventWait)
	}
	if e.posted {
		e.posted = false
		return e.datum
	}
	e.wq.Wait(p)
	return e.datum
}

// WaitTimeout is Wait bounded by d nanoseconds of virtual time: ok is false
// if the timeout expired before a post arrived. Only the owner may wait.
func (e *Event) WaitTimeout(p *sim.Proc, d int64) (datum uint32, ok bool) {
	if Self(p) != e.owner {
		panic(fmt.Sprintf("chrysalis: process %q waits on event %d it does not own", p.Name, e.obj.ID))
	}
	e.os.M.Microcode(p, e.obj.Node, e.os.Costs.EventWait)
	p.Sync()
	if pr := e.os.M.Probe(); pr != nil {
		pr.Prim(p.LocalNow(), p.ID, e.obj.Node, "event.wait", e.os.Costs.EventWait)
	}
	if e.posted {
		e.posted = false
		return e.datum, true
	}
	if e.wq.WaitTimeout(p, d) {
		return 0, false
	}
	return e.datum, true
}

// Posted reports whether a post is pending.
func (e *Event) Posted() bool { return e.posted }

// DualQueue generalizes events: it can hold the data from multiple posts and
// supply that data to multiple waiters. When data outnumbers waiters the
// queue buffers data; when waiters outnumber data the queue buffers waiting
// processes — hence "dual". Microcoded; tens of microseconds per operation.
//
// The PNC microcode lets any process that can name a dual queue enqueue or
// dequeue on it regardless of any OS precautions (the protection loophole of
// §2.2), so no access checks are performed here either.
type DualQueue struct {
	os      *OS
	obj     *Object
	data    []uint32
	waiters *sim.WaitQueue
	// order mirrors waiters so Enqueue can address the head process.
	order []*sim.Proc
	// handoff carries the datum to a woken waiter.
	handoff map[*sim.Proc]uint32
}

// NewDualQueue creates a dual queue homed on the given node, owned by owner
// (may be nil for system-owned queues, which are leaked by definition).
func (os *OS) NewDualQueue(node int, owner *Object) *DualQueue {
	q := &DualQueue{
		os:      os,
		handoff: make(map[*sim.Proc]uint32),
	}
	q.obj = os.newObject(KindDualQueue, node, 0, owner)
	q.obj.payload = q
	q.waiters = sim.NewWaitQueue(fmt.Sprintf("dual queue %d", q.obj.ID))
	return q
}

// ID returns the queue's global object name.
func (q *DualQueue) ID() ObjID { return q.obj.ID }

// Enqueue appends a datum, waking the longest-waiting dequeuer if any.
func (q *DualQueue) Enqueue(p *sim.Proc, datum uint32) {
	q.os.M.Microcode(p, q.obj.Node, q.os.Costs.DualEnqueue)
	p.Sync()
	if pr := q.os.M.Probe(); pr != nil {
		pr.QueueOp(p.LocalNow(), p.ID, q.obj.Node, true, fmt.Sprintf("dq%d", q.obj.ID))
	}
	if q.waiters.Len() > 0 && q.wakeFirstWith(p, datum) {
		// The datum was handed directly to a live waiter.
		return
	}
	q.data = append(q.data, datum)
}

// wakeFirstWith hands datum to the longest-waiting live dequeuer and wakes
// it, discarding waiters killed by a node failure. It reports whether a
// waiter took the datum (false means every queued waiter was dead and the
// caller should buffer it instead). order and waiters stay consistent:
// both are FIFO with killed entries interleaved identically, so the skip
// loops pop the same live process.
func (q *DualQueue) wakeFirstWith(waker *sim.Proc, datum uint32) bool {
	for len(q.order) > 0 {
		p := q.order[0]
		q.order = q.order[1:]
		if p.Killed() {
			q.waiters.Remove(p)
			continue
		}
		q.handoff[p] = datum
		q.waiters.WakeOne(waker, 0)
		return true
	}
	return false
}

// Dequeue removes the oldest datum, blocking if the queue is empty.
func (q *DualQueue) Dequeue(p *sim.Proc) uint32 {
	q.os.M.Microcode(p, q.obj.Node, q.os.Costs.DualDequeue)
	p.Sync()
	if pr := q.os.M.Probe(); pr != nil {
		pr.QueueOp(p.LocalNow(), p.ID, q.obj.Node, false, fmt.Sprintf("dq%d", q.obj.ID))
	}
	if len(q.data) > 0 {
		d := q.data[0]
		q.data = q.data[1:]
		return d
	}
	q.order = append(q.order, p)
	q.waiters.Wait(p)
	d := q.handoff[p]
	delete(q.handoff, p)
	return d
}

// DequeueTimeout is Dequeue bounded by d nanoseconds of virtual time: ok is
// false if the timeout expired with the queue still empty. It is the
// survival primitive for processes whose peers may die mid-protocol.
func (q *DualQueue) DequeueTimeout(p *sim.Proc, d int64) (datum uint32, ok bool) {
	q.os.M.Microcode(p, q.obj.Node, q.os.Costs.DualDequeue)
	p.Sync()
	if pr := q.os.M.Probe(); pr != nil {
		pr.QueueOp(p.LocalNow(), p.ID, q.obj.Node, false, fmt.Sprintf("dq%d", q.obj.ID))
	}
	if len(q.data) > 0 {
		v := q.data[0]
		q.data = q.data[1:]
		return v, true
	}
	q.order = append(q.order, p)
	if q.waiters.WaitTimeout(p, d) {
		// Timed out: withdraw from the waiter order too.
		for i, w := range q.order {
			if w == p {
				q.order = append(q.order[:i], q.order[i+1:]...)
				break
			}
		}
		return 0, false
	}
	v := q.handoff[p]
	delete(q.handoff, p)
	return v, true
}

// TryDequeue removes the oldest datum without blocking; ok is false if the
// queue was empty.
func (q *DualQueue) TryDequeue(p *sim.Proc) (datum uint32, ok bool) {
	q.os.M.Microcode(p, q.obj.Node, q.os.Costs.DualDequeue)
	p.Sync()
	if pr := q.os.M.Probe(); pr != nil {
		pr.QueueOp(p.LocalNow(), p.ID, q.obj.Node, false, fmt.Sprintf("dq%d", q.obj.ID))
	}
	if len(q.data) == 0 {
		return 0, false
	}
	d := q.data[0]
	q.data = q.data[1:]
	return d, true
}

// Len reports the number of buffered data (0 when waiters are queued).
func (q *DualQueue) Len() int { return len(q.data) }

// Waiters reports the number of blocked dequeuers.
func (q *DualQueue) Waiters() int { return q.waiters.Len() }

// SpinLock is a test-and-set lock over an atomic memory word. Waiting
// processors accomplish no useful work and their polling steals memory
// cycles from the lock's home node — both §2.3 complaints about Uniform
// System synchronization. PollNs controls the delay between attempts;
// programs "can be highly sensitive to the amount of time spent between
// attempts to set a lock" (Thomas, BBN WGN 4).
type SpinLock struct {
	os     *OS
	node   int
	held   bool
	holder *sim.Proc
	// PollNs is the back-off between failed test-and-set attempts.
	PollNs int64
	// Spins counts failed acquisition attempts (for contention reporting).
	Spins uint64
}

// NewSpinLock creates a spin lock whose word lives on the given node.
func (os *OS) NewSpinLock(node int) *SpinLock {
	return &SpinLock{os: os, node: node, PollNs: 2 * sim.Microsecond}
}

// Lock busy-waits until the lock is acquired.
func (l *SpinLock) Lock(p *sim.Proc) {
	for {
		l.os.M.Atomic(p, l.node) // test-and-set reference
		p.Sync()                 // observe the word at the reference's completion time
		if !l.held {
			l.held = true
			l.holder = p
			return
		}
		l.Spins++
		p.Advance(l.PollNs)
	}
}

// TryLock attempts a single test-and-set.
func (l *SpinLock) TryLock(p *sim.Proc) bool {
	l.os.M.Atomic(p, l.node)
	p.Sync()
	if l.held {
		l.Spins++
		return false
	}
	l.held = true
	l.holder = p
	return true
}

// Unlock releases the lock; only the holder may unlock.
func (l *SpinLock) Unlock(p *sim.Proc) {
	if !l.held || l.holder != p {
		panic("chrysalis: unlock of lock not held by caller")
	}
	l.os.M.Atomic(p, l.node) // clear reference
	p.Sync()                 // the release is visible at the reference's completion time
	l.held = false
	l.holder = nil
}
