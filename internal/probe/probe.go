// Package probe is the simulator-wide observability layer: a typed event
// stream and aggregated contention metrics threaded through every layer of
// the Butterfly model (engine, memory modules, switch network, machine,
// Chrysalis, programming models).
//
// Probes are purely observational. Attaching one never changes dispatch
// order, reservation calendars, or virtual time — the golden determinism
// fingerprints are byte-identical with probes on or off — and a detached
// probe (the nil pointer) costs every hot path exactly one nil check. This
// is the measurement substrate the paper argues for: end-to-end timings show
// *that* remote references steal memory cycles (E5) and that the switch is
// almost idle (E6); the probe shows *where* the virtual time goes.
//
// The package is a leaf: it imports only the standard library, so every
// simulator layer can hold a *Probe without import cycles.
package probe

// Kind classifies a probe event.
type Kind uint8

// Event kinds, one per instrumented interaction.
const (
	// KindSpawn: a process was created (Proc, Node, Name).
	KindSpawn Kind = iota
	// KindDispatch: the engine resumed a process (Proc; Wait is the virtual
	// time since it parked, Words is 1 if it had been blocked, 0 if it was
	// merely scheduled).
	KindDispatch
	// KindRun: a process suspended; the event is the run slice just ended
	// (Proc, Time = dispatch time, Dur = slice length).
	KindRun
	// KindFlush: a lazily accumulated local clock was folded into the event
	// queue (Proc, Dur = flushed nanoseconds).
	KindFlush
	// KindBlock: a process blocked indefinitely (Proc, Name = reason).
	KindBlock
	// KindUnblock: a blocked process was made runnable (Proc).
	KindUnblock
	// KindProcDone: a process ran to completion (Proc).
	KindProcDone
	// KindMemRef: a memory module served a reference (Node = module,
	// Time = service start, Dur = occupancy, Wait = queueing delay,
	// Words, Local = issued by the owning processor).
	KindMemRef
	// KindSwitchHop: a packet traversed one switch output port
	// (Node = stage, Port, Time = service start, Dur = occupancy,
	// Wait = port queueing delay).
	KindSwitchHop
	// KindEnqueue: a dual-queue enqueue completed (Proc, Node = home node,
	// Name = queue label).
	KindEnqueue
	// KindDequeue: a dual-queue dequeue completed (Proc, Node, Name).
	KindDequeue
	// KindPrim: a Chrysalis primitive invocation completed (Proc, Node,
	// Name = primitive, Dur = nominal cost).
	KindPrim
	// KindMsgSend: a model-level message was sent (Proc, Node = destination
	// node, Words, Name = model label).
	KindMsgSend
	// KindMsgRecv: a model-level message was received (Proc, Node, Words,
	// Name).
	KindMsgRecv
	// KindFault: the fault injector acted (Node = affected node, Proc = the
	// process issuing the failed reference or -1, Name = fault label like
	// "node-down", "packet-loss", "parity").
	KindFault
	// KindReqStart: a workload request was injected into a service
	// (Time = scheduled arrival, Proc = injecting process, Name = service).
	KindReqStart
	// KindReqDone: a workload request completed (Time = completion,
	// Dur = latency from scheduled arrival, Proc = completing process,
	// Name = service, Words = 1 on success, 0 on error).
	KindReqDone

	numKinds
)

// String names the kind for reports and trace exports.
func (k Kind) String() string {
	switch k {
	case KindSpawn:
		return "spawn"
	case KindDispatch:
		return "dispatch"
	case KindRun:
		return "run"
	case KindFlush:
		return "flush"
	case KindBlock:
		return "block"
	case KindUnblock:
		return "unblock"
	case KindProcDone:
		return "done"
	case KindMemRef:
		return "memref"
	case KindSwitchHop:
		return "switchhop"
	case KindEnqueue:
		return "enqueue"
	case KindDequeue:
		return "dequeue"
	case KindPrim:
		return "prim"
	case KindMsgSend:
		return "send"
	case KindMsgRecv:
		return "recv"
	case KindFault:
		return "fault"
	case KindReqStart:
		return "reqstart"
	case KindReqDone:
		return "reqdone"
	}
	return "invalid"
}

// Event is one typed observation. Field meaning varies by Kind (see the Kind
// constants); unused fields are zero. Time is virtual nanoseconds.
type Event struct {
	Kind  Kind
	Time  int64  // start of the span, or the instant for point events
	Dur   int64  // span length (0 for point events)
	Wait  int64  // queueing delay suffered before Time
	Proc  int    // engine process ID, -1 when no process is in context
	Node  int    // node / module index, or switch stage for KindSwitchHop
	Port  int    // switch output port (KindSwitchHop only)
	Words int    // words transferred (memory refs, messages)
	Local bool   // memory reference issued by the owning processor
	Name  string // label: process name, block reason, primitive, queue, model
}

// Sink receives the raw event stream of a Probe. Sinks must not call back
// into the simulation; they observe only.
type Sink interface {
	Emit(Event)
}

// Recorder is a Sink that retains every event, for trace export.
type Recorder struct {
	Events []Event
}

// Emit implements Sink.
func (r *Recorder) Emit(ev Event) { r.Events = append(r.Events, ev) }

// Counter is a Sink that only counts events per kind — the cheapest possible
// observer, used by the determinism suite to prove observation does not
// perturb the simulation.
type Counter struct {
	ByKind [numKinds]uint64
}

// Emit implements Sink.
func (c *Counter) Emit(ev Event) { c.ByKind[ev.Kind]++ }

// Total sums the per-kind counts.
func (c *Counter) Total() uint64 {
	var n uint64
	for _, v := range c.ByKind {
		n += v
	}
	return n
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// Probe aggregates metrics from the instrumented layers and optionally
// forwards the raw event stream to a Sink. A nil *Probe is the disabled
// state; every emit helper is called only behind a nil check in the
// instrumented code.
type Probe struct {
	sink Sink
	met  Metrics
}

// New creates a probe. sink may be nil to aggregate metrics only.
func New(sink Sink) *Probe { return &Probe{sink: sink} }

// SetSink points the probe's raw event stream at sink (nil stops
// forwarding). Call it before the simulation runs; metrics are aggregated
// either way.
func (p *Probe) SetSink(sink Sink) { p.sink = sink }

// Metrics exposes the aggregated counters. The pointer stays valid for the
// probe's lifetime; read it after the simulation finishes.
func (p *Probe) Metrics() *Metrics { return &p.met }

func (p *Probe) emit(ev Event) {
	if p.sink != nil {
		p.sink.Emit(ev)
	}
}

// ProcSpawn records a process creation.
func (p *Probe) ProcSpawn(t int64, proc, node int, name string) {
	p.met.procGrow(proc)
	p.met.Spawns++
	p.emit(Event{Kind: KindSpawn, Time: t, Proc: proc, Node: node, Name: name})
}

// ProcDispatch records the engine resuming a process. sincePark is the
// virtual time the process spent off-CPU; blocked distinguishes time spent
// blocked on a queue from time merely scheduled ahead.
func (p *Probe) ProcDispatch(t int64, proc int, sincePark int64, blocked bool) {
	p.met.procGrow(proc)
	p.met.Dispatches++
	w := 0
	if blocked {
		p.met.ProcBlockedNs[proc] += sincePark
		w = 1
	} else {
		p.met.ProcWaitNs[proc] += sincePark
	}
	p.emit(Event{Kind: KindDispatch, Time: t, Proc: proc, Wait: sincePark, Words: w})
}

// ProcRun records the run slice that just ended (the process is parking).
func (p *Probe) ProcRun(start, dur int64, proc int) {
	p.met.procGrow(proc)
	p.met.Parks++
	p.met.ProcRunNs[proc] += dur
	p.emit(Event{Kind: KindRun, Time: start, Dur: dur, Proc: proc})
}

// ProcFlush records a lazy local-clock flush: the process lazily charged dur
// nanoseconds of compute spanning [t, t+dur] of virtual time.
func (p *Probe) ProcFlush(t int64, proc int, dur int64) {
	p.met.procGrow(proc)
	p.met.Flushes++
	p.met.ProcComputeNs[proc] += dur
	p.emit(Event{Kind: KindFlush, Time: t, Dur: dur, Proc: proc})
}

// ProcBlock records a process blocking; reason matches the deadlock report.
func (p *Probe) ProcBlock(t int64, proc int, reason string) {
	p.met.Blocks++
	p.emit(Event{Kind: KindBlock, Time: t, Proc: proc, Name: reason})
}

// ProcUnblock records a blocked process being made runnable.
func (p *Probe) ProcUnblock(t int64, proc int) {
	p.emit(Event{Kind: KindUnblock, Time: t, Proc: proc})
}

// ProcDone records a process completing.
func (p *Probe) ProcDone(t int64, proc int) {
	p.emit(Event{Kind: KindProcDone, Time: t, Proc: proc})
}

// MemRef records a memory module serving words 32-bit words: service starts
// at start after wait nanoseconds of queueing and occupies the module for
// dur. local marks references issued by the owning processor — the
// local/remote occupancy split is the cycle-steal measurement of E5.
func (p *Probe) MemRef(start, dur, wait int64, node, words int, local bool) {
	p.met.memGrow(node)
	mm := &p.met.Mem[node]
	if local {
		mm.LocalBusyNs += dur
		mm.LocalWaitNs += wait
		mm.LocalWords += uint64(words)
	} else {
		mm.RemoteBusyNs += dur
		mm.RemoteWaitNs += wait
		mm.RemoteWords += uint64(words)
	}
	p.met.WaitHist.add(wait)
	p.emit(Event{Kind: KindMemRef, Time: start, Dur: dur, Wait: wait, Proc: -1, Node: node, Words: words, Local: local})
}

// SwitchHop records a packet occupying one switch output port.
func (p *Probe) SwitchHop(start, dur, wait int64, stage, port int) {
	p.met.portGrow(stage, port)
	pm := &p.met.Ports[stage][port]
	pm.BusyNs += dur
	pm.WaitNs += wait
	pm.Packets++
	p.met.WaitHist.add(wait)
	p.emit(Event{Kind: KindSwitchHop, Time: start, Dur: dur, Wait: wait, Proc: -1, Node: stage, Port: port})
}

// QueueOp records a dual-queue enqueue or dequeue completing.
func (p *Probe) QueueOp(t int64, proc, node int, enqueue bool, name string) {
	k := KindDequeue
	if enqueue {
		k = KindEnqueue
		p.met.Enqueues++
	} else {
		p.met.Dequeues++
	}
	p.emit(Event{Kind: k, Time: t, Proc: proc, Node: node, Name: name})
}

// Prim records a Chrysalis primitive invocation completing at t with the
// given nominal cost.
func (p *Probe) Prim(t int64, proc, node int, name string, costNs int64) {
	p.met.Prims++
	p.emit(Event{Kind: KindPrim, Time: t, Dur: costNs, Proc: proc, Node: node, Name: name})
}

// MsgSend records a model-level message send to dstNode.
func (p *Probe) MsgSend(t int64, proc, dstNode, words int, model string) {
	p.met.MsgSends++
	p.emit(Event{Kind: KindMsgSend, Time: t, Proc: proc, Node: dstNode, Words: words, Name: model})
}

// MsgRecv records a model-level message receive.
func (p *Probe) MsgRecv(t int64, proc, srcNode, words int, model string) {
	p.met.MsgRecvs++
	p.emit(Event{Kind: KindMsgRecv, Time: t, Proc: proc, Node: srcNode, Words: words, Name: model})
}

// ReqStart records a workload request injected into a service at its
// scheduled arrival time.
func (p *Probe) ReqStart(t int64, proc int, service string) {
	p.met.Requests++
	p.emit(Event{Kind: KindReqStart, Time: t, Proc: proc, Name: service})
}

// ReqDone records a workload request completing at t with the given
// end-to-end latency (measured from the scheduled arrival). ok is false
// for timeouts, dead-node errors, and remote exceptions.
func (p *Probe) ReqDone(t, latencyNs int64, proc int, service string, ok bool) {
	p.met.ReqDone++
	w := 1
	if !ok {
		p.met.ReqErrors++
		w = 0
	}
	p.met.ReqLatHist.add(latencyNs)
	p.emit(Event{Kind: KindReqDone, Time: t, Dur: latencyNs, Proc: proc, Words: w, Name: service})
}

// Fault records an injected fault hitting the simulation: a node death, an
// exhausted packet-retry sequence, or a parity error. proc is the process
// that issued the failing reference, or -1 for machine-level events.
func (p *Probe) Fault(t int64, proc, node int, what string) {
	p.met.Faults++
	p.met.FaultLog = append(p.met.FaultLog, FaultRecord{Time: t, Proc: proc, Node: node, What: what})
	p.emit(Event{Kind: KindFault, Time: t, Proc: proc, Node: node, Name: what})
}
