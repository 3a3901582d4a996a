package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// WaitQueue is a FIFO queue of blocked processes. It is the building block
// for every scheduler-based synchronization primitive in the Chrysalis layer
// (events, dual queues) and for the higher-level packages.
type WaitQueue struct {
	name  string
	procs []*Proc
}

// NewWaitQueue creates a named wait queue; the name appears in deadlock
// reports as the reason string for processes blocked on it.
func NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{name: name}
}

// Name returns the queue's name.
func (q *WaitQueue) Name() string { return q.name }

// Len returns the number of processes currently waiting.
func (q *WaitQueue) Len() int { return len(q.procs) }

// Wait blocks the calling process on the queue until some other process
// wakes it with WakeOne or WakeAll. The caller's local clock is flushed
// before it joins the queue, so FIFO order reflects true arrival times.
func (q *WaitQueue) Wait(p *Proc) {
	p.mustBeRunning("WaitQueue.Wait")
	p.sync()
	q.procs = append(q.procs, p)
	p.Block(q.name)
}

// WaitTimeout blocks the calling process on the queue for at most d
// nanoseconds of virtual time. It reports whether the wait timed out (true)
// rather than being woken (false). On timeout the process has already been
// removed from the queue.
func (q *WaitQueue) WaitTimeout(p *Proc, d int64) (timedOut bool) {
	p.mustBeRunning("WaitQueue.WaitTimeout")
	p.sync()
	q.procs = append(q.procs, p)
	if p.BlockTimeout(q.name, d) {
		q.Remove(p)
		return true
	}
	return false
}

// WakeOne unblocks the longest-waiting live process, if any, after delay
// nanoseconds of virtual time. Processes killed while waiting (their node
// failed) are discarded silently. It reports whether a process was woken.
// waker is the running process performing the wake (see Engine.Unblock);
// its local clock is flushed before the queue is examined.
func (q *WaitQueue) WakeOne(waker *Proc, delay int64) bool {
	waker.eng.flushRunning()
	for len(q.procs) > 0 {
		p := q.procs[0]
		copy(q.procs, q.procs[1:])
		q.procs = q.procs[:len(q.procs)-1]
		if p.killed {
			continue
		}
		waker.eng.Unblock(waker, p, delay)
		return true
	}
	return false
}

// WakeAll unblocks every live waiting process (in FIFO order, all at the same
// virtual instant plus delay), discarding killed waiters. It returns the
// number of processes woken. waker is the running process performing the
// wake; its local clock is flushed before the queue is examined.
func (q *WaitQueue) WakeAll(waker *Proc, delay int64) int {
	waker.eng.flushRunning()
	n := 0
	for _, p := range q.procs {
		if p.killed {
			continue
		}
		waker.eng.Unblock(waker, p, delay)
		n++
	}
	q.procs = q.procs[:0]
	return n
}

// Remove deletes a specific process from the queue without waking it
// (used by primitives with cancellation semantics). It reports whether the
// process was present.
func (q *WaitQueue) Remove(p *Proc) bool {
	for i, w := range q.procs {
		if w == p {
			q.procs = append(q.procs[:i], q.procs[i+1:]...)
			return true
		}
	}
	return false
}

// Time unit helpers. Virtual time is int64 nanoseconds; these constants make
// calibration tables readable.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1_000
	Millisecond int64 = 1_000_000
	Second      int64 = 1_000_000_000
)

// Seconds converts a virtual-time duration in nanoseconds to float seconds.
func Seconds(ns int64) float64 { return float64(ns) / 1e9 }

// Micros converts a virtual-time duration in nanoseconds to float microseconds.
func Micros(ns int64) float64 { return float64(ns) / 1e3 }

// Millis converts a virtual-time duration in nanoseconds to float milliseconds.
func Millis(ns int64) float64 { return float64(ns) / 1e6 }

// ParseDuration parses a virtual-time duration: a non-negative number with
// an optional ns/us/ms/s suffix (no suffix means nanoseconds).
func ParseDuration(s string) (int64, error) {
	mult, num := Nanosecond, s
	switch {
	case strings.HasSuffix(s, "ns"):
		num = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		mult, num = Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		mult, num = Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		mult, num = Second, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return int64(v * float64(mult)), nil
}
