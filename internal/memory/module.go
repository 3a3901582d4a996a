// Package memory models Butterfly-I per-node memory: a single-ported memory
// module shared between the local processor and remote references arriving
// through the switch (the source of the paper's cycle-stealing contention), a
// first-fit storage allocator per module, and the PNC's segmented virtual
// memory: SARs (Segment Attribute Registers) allocated in buddy-system blocks
// and address spaces of at most 256 segments of at most 64 Kbytes each.
package memory

import (
	"errors"
	"fmt"
	"sort"

	"butterfly/internal/calendar"
	"butterfly/internal/probe"
)

// Module is one node's memory: a single server with a fixed per-word cycle
// time. Local and remote references contend for the same port, so heavy
// remote traffic inflates the owning processor's local access times — the
// effect §4.1 of the paper calls "stealing memory cycles".
type Module struct {
	// Node is the owning node's index.
	Node int
	// CycleNs is the service time for one 32-bit word, in nanoseconds.
	CycleNs int64
	// Size is the module capacity in bytes (1 MB standard, 4 MB expanded).
	Size int

	cal   calendar.BatchCalendar
	alloc *FirstFit
	stats ModuleStats
	// failed marks the module dead (its node was failed by the fault
	// injector): allocation requests are rejected. Reference-level rejection
	// is handled above, in the machine layer, which knows the issuer.
	failed bool
	// probe, when non-nil, observes every reference served (occupancy,
	// queueing delay, local/remote origin). Purely observational.
	probe *probe.Probe
}

// SetProbe attaches an observability probe (nil detaches).
func (m *Module) SetProbe(p *probe.Probe) { m.probe = p }

// ModuleStats counts traffic through one memory module.
type ModuleStats struct {
	LocalWords   uint64
	RemoteWords  uint64
	WaitNs       int64 // total queueing delay inflicted on references
	LocalWaitNs  int64 // portion of WaitNs suffered by local references
	RemoteWaitNs int64
}

// NewModule creates a memory module of the given capacity.
func NewModule(node int, size int, cycleNs int64) *Module {
	return &NewModules(node, 1, size, cycleNs)[0]
}

// NewModules creates n modules of the given capacity for nodes first..first+n-1.
// The modules, their allocators, and the allocators' initial free spans are
// one slice each, so a call costs three allocations whatever n is. A machine
// calls it once per chunk of nodes, when the chunk is first touched.
func NewModules(first, n, size int, cycleNs int64) []Module {
	mods := make([]Module, n)
	allocs := make([]FirstFit, n)
	spans := make([]span, n)
	for i := range mods {
		spans[i] = span{0, size}
		// Each free list is capped at its own span, so a list that grows
		// reallocates instead of writing into a neighbour's.
		allocs[i] = FirstFit{size: size, free: spans[i : i+1 : i+1]}
		mods[i] = Module{Node: first + i, CycleNs: cycleNs, Size: size, alloc: &allocs[i]}
	}
	return mods
}

// Service performs a reference of the given number of words arriving at
// virtual time now. It returns the time service starts (after any queueing
// behind earlier references) and the time it completes. local marks whether
// the reference came from the owning processor (for the stats split only —
// the port makes no distinction, which is exactly the Butterfly's problem).
//
// Higher layers may pre-book references into the virtual future; the module
// therefore keeps a reservation calendar rather than a scalar busy-until, so
// a reference arriving at an earlier virtual time backfills idle gaps
// instead of queueing behind the whole booked schedule.
func (m *Module) Service(now int64, words int, local bool) (start, done int64) {
	if words <= 0 {
		words = 1
	}
	dur := int64(words) * m.CycleNs
	start = m.cal.Reserve(now, dur)
	if wait := start - now; wait > 0 {
		m.stats.WaitNs += wait
		if local {
			m.stats.LocalWaitNs += wait
		} else {
			m.stats.RemoteWaitNs += wait
		}
	}
	done = start + dur
	if local {
		m.stats.LocalWords += uint64(words)
	} else {
		m.stats.RemoteWords += uint64(words)
	}
	if pr := m.probe; pr != nil {
		pr.MemRef(start, dur, start-now, m.Node, words, local)
	}
	return start, done
}

// ServiceRun performs words independent one-word references issued
// back-to-back with a fixed gap between them: reference i+1 arrives gap
// nanoseconds after reference i completes (the PNC's word-at-a-time remote
// pattern, where the gap is the network round trip plus request overhead).
// It is an exact, single-pass fold of words sequential Service(_, 1, _)
// calls and returns the completion time of the last word.
func (m *Module) ServiceRun(now int64, words int, gap int64, local bool) (done int64) {
	if words <= 0 {
		words = 1
	}
	lastStart, wait := m.cal.ReserveRun(now, m.CycleNs, gap, words)
	if wait > 0 {
		m.stats.WaitNs += wait
		if local {
			m.stats.LocalWaitNs += wait
		} else {
			m.stats.RemoteWaitNs += wait
		}
	}
	if local {
		m.stats.LocalWords += uint64(words)
	} else {
		m.stats.RemoteWords += uint64(words)
	}
	if pr := m.probe; pr != nil {
		// One aggregate event for the whole run: the span starts at arrival
		// and Dur is the true occupancy (the per-word gaps are elided).
		pr.MemRef(now, int64(words)*m.CycleNs, wait, m.Node, words, local)
	}
	return lastStart + m.CycleNs
}

// BeginBatch opens a placement batch on the module's calendar: subsequent
// ServiceBatch/ServiceRunBatch calls place reservations without mutating
// the schedule, and CommitBatchScratch splices them in with one merge
// pass. The caller must issue a monotone flow (each reference arriving at
// or after the previous one's completion) and commit before any other
// process can touch the module — e.g. within a single engine event.
func (m *Module) BeginBatch() { m.cal.BeginBatch() }

// InBatch reports whether a placement batch is open.
func (m *Module) InBatch() bool { return m.cal.InBatch() }

// CommitBatchScratch splices the open batch into the schedule, using the
// shared merge scratch s.
func (m *Module) CommitBatchScratch(s *calendar.Scratch) { m.cal.CommitBatchScratch(s) }

// ServiceBatch is Service within the open placement batch.
func (m *Module) ServiceBatch(now int64, words int, local bool) (start, done int64) {
	if words <= 0 {
		words = 1
	}
	dur := int64(words) * m.CycleNs
	start = m.cal.BatchReserve(now, dur)
	if wait := start - now; wait > 0 {
		m.stats.WaitNs += wait
		if local {
			m.stats.LocalWaitNs += wait
		} else {
			m.stats.RemoteWaitNs += wait
		}
	}
	done = start + dur
	if local {
		m.stats.LocalWords += uint64(words)
	} else {
		m.stats.RemoteWords += uint64(words)
	}
	if pr := m.probe; pr != nil {
		pr.MemRef(start, dur, start-now, m.Node, words, local)
	}
	return start, done
}

// ServiceRunBatch is ServiceRun within the open placement batch.
func (m *Module) ServiceRunBatch(now int64, words int, gap int64, local bool) (done int64) {
	if words <= 0 {
		words = 1
	}
	lastStart, wait := m.cal.BatchReserveRun(now, m.CycleNs, gap, words)
	if wait > 0 {
		m.stats.WaitNs += wait
		if local {
			m.stats.LocalWaitNs += wait
		} else {
			m.stats.RemoteWaitNs += wait
		}
	}
	if local {
		m.stats.LocalWords += uint64(words)
	} else {
		m.stats.RemoteWords += uint64(words)
	}
	if pr := m.probe; pr != nil {
		pr.MemRef(now, int64(words)*m.CycleNs, wait, m.Node, words, local)
	}
	return lastStart + m.CycleNs
}

// Prune discards reservations that ended before now (no future reference
// can arrive earlier); the machine calls it periodically to bound calendar
// size.
func (m *Module) Prune(now int64) { m.cal.PruneBefore(now) }

// Stats returns a copy of the module's counters.
func (m *Module) Stats() ModuleStats { return m.stats }

// ResetStats zeroes the counters (occupancy is retained).
func (m *Module) ResetStats() { m.stats = ModuleStats{} }

// SetFailed marks the module dead or alive. A dead module rejects storage
// allocation; the machine layer additionally fails every reference to it.
func (m *Module) SetFailed(failed bool) { m.failed = failed }

// Failed reports whether the module has been marked dead.
func (m *Module) Failed() bool { return m.failed }

// ErrModuleFailed is returned by Alloc on a dead module.
var ErrModuleFailed = errors.New("memory: module failed")

// Alloc reserves size bytes in the module and returns the byte offset.
func (m *Module) Alloc(size int) (int, error) {
	if m.failed {
		return 0, ErrModuleFailed
	}
	return m.alloc.Alloc(size)
}

// Free releases a previously allocated range.
func (m *Module) Free(off, size int) error { return m.alloc.Free(off, size) }

// BytesFree reports the remaining unallocated capacity.
func (m *Module) BytesFree() int { return m.alloc.BytesFree() }

// FirstFit is a simple address-ordered first-fit free-list allocator, after
// the serial allocator whose contention Ellis and Olson's parallel first-fit
// work (cited in §3.3) set out to fix. The time cost of allocation is charged
// by the layer above; this type provides only the placement machinery.
type FirstFit struct {
	size int
	free []span // address-ordered, coalesced
}

type span struct{ off, len int }

// NewFirstFit creates an allocator managing [0, size).
func NewFirstFit(size int) *FirstFit {
	return &FirstFit{size: size, free: []span{{0, size}}}
}

// ErrNoMemory is returned when no free span can satisfy a request.
var ErrNoMemory = errors.New("memory: out of storage")

// Alloc finds the first free span large enough and carves the request from
// its front.
func (f *FirstFit) Alloc(size int) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("memory: bad allocation size %d", size)
	}
	for i := range f.free {
		if f.free[i].len >= size {
			off := f.free[i].off
			f.free[i].off += size
			f.free[i].len -= size
			if f.free[i].len == 0 {
				f.free = append(f.free[:i], f.free[i+1:]...)
			}
			return off, nil
		}
	}
	return 0, ErrNoMemory
}

// Free returns a range to the free list, coalescing with neighbours. It
// rejects ranges that overlap existing free space (double free).
func (f *FirstFit) Free(off, size int) error {
	if size <= 0 || off < 0 || off+size > f.size {
		return fmt.Errorf("memory: bad free [%d,%d)", off, off+size)
	}
	i := sort.Search(len(f.free), func(i int) bool { return f.free[i].off >= off })
	if i < len(f.free) && off+size > f.free[i].off {
		return fmt.Errorf("memory: double free at %d", off)
	}
	if i > 0 && f.free[i-1].off+f.free[i-1].len > off {
		return fmt.Errorf("memory: double free at %d", off)
	}
	f.free = append(f.free, span{})
	copy(f.free[i+1:], f.free[i:])
	f.free[i] = span{off, size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(f.free) && f.free[i].off+f.free[i].len == f.free[i+1].off {
		f.free[i].len += f.free[i+1].len
		f.free = append(f.free[:i+1], f.free[i+2:]...)
	}
	if i > 0 && f.free[i-1].off+f.free[i-1].len == f.free[i].off {
		f.free[i-1].len += f.free[i].len
		f.free = append(f.free[:i], f.free[i+1:]...)
	}
	return nil
}

// BytesFree reports total free capacity.
func (f *FirstFit) BytesFree() int {
	n := 0
	for _, s := range f.free {
		n += s.len
	}
	return n
}

// Fragments reports the number of disjoint free spans (for fragmentation
// experiments and tests).
func (f *FirstFit) Fragments() int { return len(f.free) }
