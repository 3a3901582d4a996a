// Package replay implements Instant Replay (LeBlanc & Mellor-Crummey, IEEE
// ToC 1987; §3.3 of the paper): deterministic record/replay for parallel
// programs. During recording, each access to a shared object logs the
// object's version (writers also log how many readers saw the version they
// overwrite); during replay, accesses wait until the object reaches the
// recorded version, forcing the original relative order of significant
// events without saving any of the data actually communicated.
//
// The technique assumes "a communication model based on shared objects,
// which are used to implement both shared memory and message passing", so
// one mechanism covers every Rochester package. No central bottleneck is
// introduced: each object carries its own version state, and there is no
// need for synchronized clocks or a globally-consistent logical time.
package replay

import (
	"fmt"

	"butterfly/internal/chrysalis"
	"butterfly/internal/sim"
)

// Mode selects the monitor's behaviour.
type Mode int

// Monitor modes.
const (
	// ModeOff disables monitoring (no overhead).
	ModeOff Mode = iota
	// ModeRecord logs the partial order of accesses as they occur.
	ModeRecord
	// ModeReplay forces accesses to follow a previously recorded order.
	ModeReplay
)

// Entry is one recorded access.
type Entry struct {
	// Proc is the accessing process's name (names must be stable across
	// record and replay runs).
	Proc string
	// Obj is the shared object's ID.
	Obj int
	// Version is the object version observed (readers) or overwritten
	// (writers).
	Version uint64
	// Readers is, for writes, the number of readers of the overwritten
	// version.
	Readers uint64
	// Write distinguishes writer entries.
	Write bool
	// Time is the virtual time of the access in the recording run.
	Time int64
}

// String renders an entry compactly.
func (e Entry) String() string {
	k := "R"
	if e.Write {
		k = "W"
	}
	return fmt.Sprintf("%s %s obj%d v%d", e.Proc, k, e.Obj, e.Version)
}

// Monitor coordinates a set of instrumented shared objects.
type Monitor struct {
	mode Mode
	os   *chrysalis.OS

	objects []*Object
	log     []Entry
	// cursor[name] is the replay position within entriesFor(name).
	perProc map[string][]Entry
	cursor  map[string]int
}

// NewMonitor creates a monitor in ModeOff or ModeRecord.
func NewMonitor(os *chrysalis.OS, mode Mode) *Monitor {
	if mode == ModeReplay {
		panic("replay: use NewReplayMonitor for replay mode")
	}
	return &Monitor{mode: mode, os: os}
}

// NewReplayMonitor creates a monitor that will force the given recorded
// order. Objects must be re-created in the same order as in the recording
// run (IDs must line up).
func NewReplayMonitor(os *chrysalis.OS, log []Entry) *Monitor {
	m := &Monitor{mode: ModeReplay, os: os, perProc: map[string][]Entry{}, cursor: map[string]int{}}
	for _, e := range log {
		m.perProc[e.Proc] = append(m.perProc[e.Proc], e)
	}
	return m
}

// Mode returns the monitor's mode.
func (m *Monitor) Mode() Mode { return m.mode }

// Log returns the recorded access log (meaningful after a record run). The
// slice is shared; callers must not modify it.
func (m *Monitor) Log() []Entry { return m.log }

// Object is an instrumented shared object. Protocol: concurrent readers,
// exclusive writers (CREW), with the version/reader-count bookkeeping of the
// Instant Replay paper.
type Object struct {
	ID   int
	Name string
	// Node is where the object (and its version word) lives.
	Node int

	mon              *Monitor
	version          uint64
	readersOfVersion uint64
	waiters          *sim.WaitQueue
}

// NewObject registers a shared object homed on a node. Creation order
// defines IDs and must match between record and replay runs.
func (m *Monitor) NewObject(name string, node int) *Object {
	o := &Object{
		ID:      len(m.objects),
		Name:    name,
		Node:    node,
		mon:     m,
		waiters: sim.NewWaitQueue(fmt.Sprintf("replay object %s", name)),
	}
	m.objects = append(m.objects, o)
	return o
}

// next pops the next recorded entry for proc p, validating it targets o.
func (m *Monitor) next(p *sim.Proc, o *Object, write bool) Entry {
	es := m.perProc[p.Name]
	c := m.cursor[p.Name]
	if c >= len(es) {
		panic(fmt.Sprintf("replay: process %q performs more accesses than recorded", p.Name))
	}
	e := es[c]
	if e.Obj != o.ID || e.Write != write {
		panic(fmt.Sprintf("replay: divergence at %q access %d: recorded %v, attempted %s on obj%d",
			p.Name, c, e, map[bool]string{true: "W", false: "R"}[write], o.ID))
	}
	m.cursor[p.Name] = c + 1
	return e
}

// stateChanged wakes every process waiting for this object to advance.
func (o *Object) stateChanged(p *sim.Proc) {
	o.waiters.WakeAll(p, 0)
}

// chargeMonitor accounts for the version-word maintenance: one atomic
// reference to the object's home node. "The overhead of monitoring can be
// kept to within a few percent of execution time for typical programs."
func (o *Object) chargeMonitor(p *sim.Proc) {
	o.mon.os.M.Atomic(p, o.Node)
	// Flush the lazy reference charge: the monitor observes (and stamps)
	// object versions at the reference's completion time.
	p.Sync()
}

// Read performs body as a monitored read of the object.
func (o *Object) Read(p *sim.Proc, body func()) {
	switch o.mon.mode {
	case ModeOff:
		body()
	case ModeRecord:
		o.chargeMonitor(p)
		o.mon.log = append(o.mon.log, Entry{
			Proc: p.Name, Obj: o.ID, Version: o.version, Time: o.mon.os.M.E.Now(),
		})
		o.readersOfVersion++
		body()
	case ModeReplay:
		e := o.mon.next(p, o, false)
		o.chargeMonitor(p)
		for o.version != e.Version {
			o.waiters.Wait(p)
		}
		o.readersOfVersion++
		o.stateChanged(p) // a writer may be waiting for this reader count
		body()
	}
}

// Write performs body as a monitored exclusive write of the object.
func (o *Object) Write(p *sim.Proc, body func()) {
	switch o.mon.mode {
	case ModeOff:
		body()
	case ModeRecord:
		o.chargeMonitor(p)
		o.mon.log = append(o.mon.log, Entry{
			Proc: p.Name, Obj: o.ID, Version: o.version, Readers: o.readersOfVersion,
			Write: true, Time: o.mon.os.M.E.Now(),
		})
		body()
		o.version++
		o.readersOfVersion = 0
	case ModeReplay:
		e := o.mon.next(p, o, true)
		o.chargeMonitor(p)
		for o.version != e.Version || o.readersOfVersion != e.Readers {
			o.waiters.Wait(p)
		}
		body()
		o.version++
		o.readersOfVersion = 0
		o.stateChanged(p)
	}
}

// Version returns the object's current version (tests and tools).
func (o *Object) Version() uint64 { return o.version }
