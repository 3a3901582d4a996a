// Package chrysalis models BBN's Chrysalis operating system (§2.2 of the
// paper): heavyweight processes that do not migrate, memory objects mapped
// into segmented address spaces at ~1 ms per map/unmap, microcoded events and
// dual queues that complete in tens of microseconds, spin locks over atomic
// memory operations, MacLISP-style catch/throw exception handling at ~70 µs
// per protected block, and a uniform object model with ownership hierarchies
// and reference counts — including the infamous "transfer ownership to the
// system" facility that makes Chrysalis leak storage.
//
// The package charges the published costs (Dibble's BPR 18 benchmarks, cited
// throughout §2 and §3.3) against the simulated machine, so higher layers
// (Uniform System, SMP, Lynx, Ant Farm) inherit realistic primitive costs.
package chrysalis

import (
	"errors"
	"fmt"

	"butterfly/internal/machine"
	"butterfly/internal/memory"
	"butterfly/internal/sim"
)

// Costs is the calibration table for Chrysalis primitives, in nanoseconds.
// Defaults follow the paper: events and dual queues "complete in only tens of
// microseconds"; mapping or unmapping a segment costs "over 1 ms"; entering
// and leaving a protected (catch) block costs "about 70 µs"; process creation
// is orders of magnitude more expensive and partly serialized on shared
// system resources such as process templates (§4.1, Crowd Control).
type Costs struct {
	EventPost   int64
	EventWait   int64 // charged when the event is already posted; blocking waits charge on wake
	DualEnqueue int64
	DualDequeue int64
	MakeObj     int64
	MapObj      int64
	UnmapObj    int64
	CatchEnter  int64
	CatchExit   int64
	Throw       int64
	// ProcCreateLocal is the parallelizable part of process creation
	// (building the address space, loading state) charged to the creator.
	ProcCreateLocal int64
	// ProcCreateSerial is the serial section: every creation in the machine
	// holds the global process-template resource for this long. This is the
	// Amdahl bottleneck the Crowd Control package runs into.
	ProcCreateSerial int64
	ProcDestroy      int64
}

// DefaultCosts returns the Butterfly-I calibration.
func DefaultCosts() Costs {
	return Costs{
		EventPost:        20 * sim.Microsecond,
		EventWait:        25 * sim.Microsecond,
		DualEnqueue:      30 * sim.Microsecond,
		DualDequeue:      35 * sim.Microsecond,
		MakeObj:          500 * sim.Microsecond,
		MapObj:           1100 * sim.Microsecond,
		UnmapObj:         1000 * sim.Microsecond,
		CatchEnter:       35 * sim.Microsecond,
		CatchExit:        35 * sim.Microsecond,
		Throw:            150 * sim.Microsecond,
		ProcCreateLocal:  21 * sim.Millisecond,
		ProcCreateSerial: 4 * sim.Millisecond,
		ProcDestroy:      5 * sim.Millisecond,
	}
}

// OS is one Chrysalis instance managing a machine.
type OS struct {
	M     *machine.Machine
	Costs Costs

	objects  map[ObjID]*Object
	nextID   ObjID
	leaked   int // bytes owned by "the system", never reclaimed
	template serialServer
	perNode  []int // process count per node
}

// serialServer models a serially accessed system resource (the process
// template). Requests queue in virtual time.
type serialServer struct {
	busyUntil int64
}

// acquireFor returns the extra waiting time a request arriving at now incurs
// and marks the server busy for holdNs beyond the start of service.
func (s *serialServer) acquireFor(now, holdNs int64) (wait int64) {
	start := now
	if s.busyUntil > start {
		wait = s.busyUntil - start
		start = s.busyUntil
	}
	s.busyUntil = start + holdNs
	return wait
}

// New boots Chrysalis on a machine.
func New(m *machine.Machine) *OS {
	return &OS{
		M:       m,
		Costs:   DefaultCosts(),
		objects: make(map[ObjID]*Object),
		perNode: make([]int, m.N()),
	}
}

// Process is a Chrysalis heavyweight process: a simulated process plus a
// segmented address space and an ownership root for the objects it creates.
type Process struct {
	P    *sim.Proc
	OS   *OS
	AS   *memory.AddressSpace
	Root *Object // ownership root; deleting it reclaims the process's objects

	sarCacheHits int64
}

// ErrTooManyProcesses is returned when a node's SAR pool cannot host another
// process's address space.
var ErrTooManyProcesses = errors.New("chrysalis: node out of SARs for new process")

// MakeProcess creates a process on the given node with an address space of
// at least nSegs segments. creator, if non-nil, is charged the creation cost
// including queueing on the serial template resource; a nil creator models
// initial-boot creation and charges nothing. body runs as the new process.
func (os *OS) MakeProcess(creator *sim.Proc, name string, node, nSegs int, body func(self *Process)) (*Process, error) {
	if creator != nil {
		// Flush the creator's local clock so the serial template resource is
		// acquired at the creator's true time.
		creator.Sync()
		wait := os.template.acquireFor(os.M.E.Now(), os.Costs.ProcCreateSerial)
		creator.Advance(wait + os.Costs.ProcCreateSerial + os.Costs.ProcCreateLocal)
		if pr := os.M.Probe(); pr != nil {
			pr.Prim(creator.LocalNow(), creator.ID, node, "make_process",
				wait+os.Costs.ProcCreateSerial+os.Costs.ProcCreateLocal)
		}
	}
	as, err := memory.NewAddressSpace(os.M.Node(node).SARs, nSegs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTooManyProcesses, err)
	}
	proc := &Process{OS: os}
	proc.Root = os.newObject(KindProcess, node, 0, nil)
	proc.AS = as
	proc.P = os.M.Spawn(name, node, func(p *sim.Proc) {
		body(proc)
	})
	proc.P.Ctx = proc
	os.perNode[node]++
	return proc, nil
}

// Self returns the Chrysalis process owning a simulated process, or nil for
// raw engine processes.
func Self(p *sim.Proc) *Process {
	if pr, ok := p.Ctx.(*Process); ok {
		return pr
	}
	return nil
}

// DestroyProcess tears down a process's address space and reclaims every
// object it still owns (the ownership hierarchy of §2.2). The process itself
// must have finished or be about to exit; caller is charged the destroy cost.
func (os *OS) DestroyProcess(caller *sim.Proc, pr *Process) {
	if caller != nil {
		caller.Advance(os.Costs.ProcDestroy)
		if p := os.M.Probe(); p != nil {
			p.Prim(caller.LocalNow(), caller.ID, pr.P.Node, "destroy_process", os.Costs.ProcDestroy)
		}
	}
	os.DeleteObj(nil, pr.Root)
	if pr.AS != nil {
		_ = pr.AS.Release()
		pr.AS = nil
	}
	os.perNode[pr.P.Node]--
}

// ProcsOnNode reports how many live processes a node hosts.
func (os *OS) ProcsOnNode(node int) int { return os.perNode[node] }

// LeakedBytes reports storage owned by "the system" that will never be
// reclaimed — the leak the paper complains about.
func (os *OS) LeakedBytes() int { return os.leaked }
