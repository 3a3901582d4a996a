// Package machine assembles the Butterfly Parallel Processor model: N
// processing nodes (8 MHz MC68000 plus PNC co-processor and local memory)
// connected by the multistage switching network. It provides the typed,
// time-charging access API every higher layer uses: local and remote word
// references, block transfers, atomic read-modify-write operations, and
// integer/floating-point compute charges.
//
// Calibration follows §2.1 of the paper: a remote read takes about 4 µs,
// roughly five times a local reference; remote references steal memory cycles
// from the local processor; block transfers stream through the switch at the
// 32 Mbit/s port rate.
package machine

import (
	"fmt"

	"butterfly/internal/fault"
	"butterfly/internal/memory"
	"butterfly/internal/probe"
	"butterfly/internal/sim"
	"butterfly/internal/switchnet"
)

// Config holds the machine's calibration parameters.
type Config struct {
	// Nodes is the number of processing nodes (up to 256 on the Butterfly).
	Nodes int
	// MemBytes is the per-node memory size (1 MB standard, 4 MB expanded).
	MemBytes int
	// MemCycleNs is the memory module service time per 32-bit word.
	MemCycleNs int64
	// LocalOverheadNs is the processor-side cost of a local reference in
	// addition to the memory cycle.
	LocalOverheadNs int64
	// PNCOverheadNs is the processor-node-controller cost added to every
	// remote reference (request formatting, microcode dispatch).
	PNCOverheadNs int64
	// IntOpNs is the cost of one integer operation (register arithmetic,
	// address computation) on the 8 MHz MC68000.
	IntOpNs int64
	// FlopNs is the cost of one floating-point operation. 25 µs (~40
	// kflops) models the Butterfly-I's software floating point; 4 µs models
	// the MC68881 daughter-board upgrade of 1986.
	FlopNs int64
	// Net configures the switching network; if zero-valued it is derived
	// from Nodes with switchnet.DefaultConfig. HopLatency and
	// BytesPerSecond describe the link technology; the selected Topology
	// derives its own geometry and per-hop timing from them.
	Net switchnet.Config
	// Topology selects the interconnect family (butterfly, fattree,
	// dragonfly, mesh). The zero value is the Butterfly's own multistage
	// network, so existing configurations are bit-for-bit unchanged.
	Topology switchnet.Topology
	// Combining equips the interconnect with combining fetch-and-add
	// switches (the NYU Ultracomputer design): concurrent Atomic
	// operations on the same word merge at shared switch links instead of
	// convoying into the destination memory module. Atomic traffic is
	// then always routed through the full link-reservation model — even
	// under NoSwitchContention, which keeps its shortcut for ordinary
	// references — because the combine decision lives in the switches.
	Combining bool
	// NoSwitchContention replaces per-packet switch-port reservation with
	// the fixed uncontended path latency. Experiment E6 (and Rettberg &
	// Thomas) established that switch contention is almost negligible, so
	// reference-heavy workloads (Figure 5's 10^8-word sweeps) can use this
	// much cheaper path; memory-module contention is always modelled.
	NoSwitchContention bool
	// Partitions, when > 0, builds the machine on a partitioned conservative
	// parallel-DES engine: the nodes are split into that many contiguous
	// groups, each simulated by its own event queue, with every off-node
	// reference routed through a window-boundary exchange (see
	// sim.EnablePartitions). Results are bit-identical for every partition
	// count, including 1 — the sequential reference. Partitioned machines
	// require partition-safe experiment code (all processes spawned before
	// Run, no cross-node wait-queue wakes, no shared Go state between
	// processes on different nodes) and do not support fault injection.
	// 0 keeps the classic strictly-sequential engine.
	Partitions int
}

// DefaultConfig returns the Butterfly-I calibration for n nodes (software
// floating point, 1 MB memories).
func DefaultConfig(n int) Config {
	return Config{
		Nodes:    n,
		MemBytes: 1 << 20,
		// The MC68000 has a 16-bit data bus: a 32-bit word costs two memory
		// cycles of ~500 ns.
		MemCycleNs:      1000,
		LocalOverheadNs: 100,
		PNCOverheadNs:   400,
		IntOpNs:         500,
		FlopNs:          25_000,
		Net:             switchnet.DefaultConfig(n),
	}
}

// HardwareFloatConfig returns the calibration for nodes upgraded with the
// MC68020/MC68881 daughter board (the department's 16-node floating-point
// machine in §2.1).
func HardwareFloatConfig(n int) Config {
	c := DefaultConfig(n)
	c.FlopNs = 4_000
	return c
}

// Node is one processing node: processor, PNC state, memory module, SAR pool.
type Node struct {
	ID   int
	Mem  *memory.Module
	SARs *memory.SARPool
}

// nodeChunk is how many nodes' state is built together: the first reference
// to a node builds its whole chunk.
const nodeChunk = 32

// Machine is the assembled Butterfly.
type Machine struct {
	E   *sim.Engine
	Net switchnet.Interconnect
	Cfg Config

	// chunks holds node state nodeChunk nodes at a time; a nil chunk has
	// never been touched. Node state is built on first reference, so a run
	// that reads two nodes of a 1,039-node machine builds two chunks.
	// Partitioned machines build every chunk in New (concurrent windows
	// must not race on chunk creation).
	chunks [][]Node

	// comb, when non-nil, is the combining fetch-and-add layer over Net's
	// link calendars; Atomic traffic routes through it (Config.Combining).
	comb *switchnet.Combining

	stats     Stats
	lastPrune int64
	// parts is the partition count (0 = classic sequential engine). On a
	// partitioned machine pstats shards the in-window reference counters by
	// partition (barrier-time exchange work accounts into stats, which only
	// the coordinator touches).
	parts  int
	pstats []Stats
	// wordTransit caches the uncontended end-to-end network time for a
	// one-word packet — the constant added twice per word on the
	// NoSwitchContention remote path.
	wordTransit int64
	// scr holds Sweep's placement-batch scratch: the modules with an open
	// batch, the per-ref module resolution, and the merge buffer the batch
	// commits share. Classic machines use scr[0]; partitioned machines keep
	// one per partition (sweeps on different partitions run concurrently)
	// plus xscr for the coordinator's barrier-time exchange sweeps.
	scr  []sweepScratch
	xscr sweepScratch

	// probe, when non-nil, is the machine-wide observability probe, shared
	// with the engine, the network, and every memory module.
	probe *probe.Probe
	// faults, when non-nil, is the machine's fault injector: every reference
	// consults it for node deaths, packet drops, and parity errors. Like the
	// probe, absence costs each hot path one nil check.
	faults *fault.Injector
}

// AttachProbe threads an observability probe through every layer of the
// machine: the engine (dispatch/park/flush events), the switch network
// (port traversals), and each node's memory module (reference occupancy and
// queueing), including modules built after the call. Pass nil to detach. Probes are purely observational — virtual
// time, dispatch order, and all statistics are unaffected — and a detached
// probe costs each hot path one nil check.
func (m *Machine) AttachProbe(p *probe.Probe) {
	m.probe = p
	m.E.SetProbe(p)
	m.Net.SetProbe(p)
	m.EachBuiltNode(func(n *Node) { n.Mem.SetProbe(p) })
}

// Probe returns the attached probe, or nil. Layers above the machine
// (Chrysalis, the programming models) emit their events through it.
func (m *Machine) Probe() *probe.Probe { return m.probe }

// AttachFaults arms a fault injector on the machine: its schedule of node
// deaths is bound to the engine (a daemon process executes each one,
// marking the node's memory module failed and killing the node's
// processes), and every subsequent memory reference consults the injector
// for drop and parity fates. Attach at most once, before Run. A machine
// without an injector pays one nil check per reference and behaves exactly
// as before. Fault injection requires the classic sequential engine
// (node-death kills cut across partitions), so attaching to a partitioned
// machine panics.
func (m *Machine) AttachFaults(f *fault.Injector) {
	if m.faults != nil {
		panic("machine: AttachFaults called twice")
	}
	if m.parts > 0 && f != nil {
		panic("machine: fault injection requires an unpartitioned machine (Config.Partitions = 0)")
	}
	if f == nil {
		return
	}
	m.faults = f
	f.Bind(m.E, m.Cfg.Nodes, func(node int) {
		m.Node(node).Mem.SetFailed(true)
	})
}

// Faults returns the attached fault injector, or nil.
func (m *Machine) Faults() *fault.Injector { return m.faults }

// NodeFailed reports whether node is dead at the current virtual time.
// Runtime layers use it to route work away from failed nodes.
func (m *Machine) NodeFailed(node int) bool {
	return m.faults != nil && m.faults.NodeDead(node, m.E.Now())
}

// preFault guards a reference from p to node: a process whose own node has
// died exits immediately (its processor no longer runs), and a reference to
// a dead node raises NodeDown. Called only when an injector is attached.
func (m *Machine) preFault(p *sim.Proc, node int) {
	now := m.E.Now()
	if m.faults.NodeDead(p.Node, now) {
		p.Exit()
	}
	if m.faults.NodeDead(node, now) {
		m.raiseFault(p, node, fault.NodeDown)
	}
}

// raiseFault records the fault on the probe and panics the corresponding
// *fault.RefError — the simulated hardware trap. chrysalis.Catch converts it
// into a catchable ThrowError; an unhandled one terminates only p.
func (m *Machine) raiseFault(p *sim.Proc, node int, kind fault.Kind) {
	if pr := m.probe; pr != nil {
		pr.Fault(m.E.Now(), p.ID, node, kind.String())
	}
	panic(&fault.RefError{Kind: kind, Node: node, Time: m.E.Now()})
}

// refFault draws the fate of one reference burst against node: extraNs is
// retransmission backoff latency to charge, and failed reports that the
// burst ultimately failed with kind. remote bursts risk packet drops; all
// bursts risk parity errors. One drop draw covers the whole burst — drop
// recovery is per switch transaction, and modelling it per word would break
// the folded single-pass calendar paths for no observable gain.
func (m *Machine) refFault(node int, remote bool) (extraNs int64, kind fault.Kind, failed bool) {
	f := m.faults
	if remote && f.DropsEnabled() {
		extra, attempts, ok := f.PacketAttempts()
		extraNs += extra
		if attempts > 1 {
			m.Net.NoteDrops(attempts - 1)
		}
		if !ok {
			return extraNs, fault.PacketLoss, true
		}
	}
	if f.ParityEnabled() && f.ParityHit() {
		return extraNs, fault.Parity, true
	}
	return extraNs, 0, false
}

// chargeFaulty charges p for a reference of duration d to node, adding any
// injected retransmission latency and raising the drawn fault after the
// charge. Called only when an injector is attached.
func (m *Machine) chargeFaulty(p *sim.Proc, node int, remote bool, d int64) {
	extra, kind, failed := m.refFault(node, remote)
	p.Charge(d + extra)
	if failed {
		m.raiseFault(p, node, kind)
	}
}

// Stats aggregates machine-level reference counters.
type Stats struct {
	LocalRefs   uint64
	RemoteRefs  uint64
	BlockCopies uint64
	AtomicOps   uint64
}

// New builds a machine with the given configuration and a fresh simulation
// engine.
func New(cfg Config) *Machine {
	scope := currentScope()
	if scope != nil && scope.config != nil {
		cfg = scope.config(cfg)
	}
	if cfg.Nodes <= 0 {
		panic("machine: node count must be positive")
	}
	if cfg.Net.Nodes == 0 {
		cfg.Net = switchnet.DefaultConfig(cfg.Nodes)
	}
	if cfg.Partitions > cfg.Nodes {
		cfg.Partitions = cfg.Nodes
	}
	if _, err := switchnet.ParseTopology(string(cfg.Topology)); err != nil {
		panic("machine: " + err.Error())
	}
	m := &Machine{
		E:   sim.New(),
		Net: switchnet.Build(cfg.Topology, cfg.Net),
		Cfg: cfg,
	}
	if cfg.Combining {
		m.comb = switchnet.NewCombining(m.Net, switchnet.DefaultCombiningConfig())
	}
	if p := cfg.Partitions; p > 0 {
		// Contiguous node blocks: node n belongs to partition n*p/Nodes.
		// The mapping only affects wall-clock balance, never results —
		// off-node references go through the exchange path regardless of
		// whether they land in the caller's own partition.
		nodes := cfg.Nodes
		m.parts = p
		m.pstats = make([]Stats, p)
		m.scr = make([]sweepScratch, p)
		m.E.EnablePartitions(p, func(node int) int { return node * p / nodes })
		m.E.SetBarrierHook(m.pruneAtBarrier)
	} else {
		m.scr = make([]sweepScratch, 1)
	}
	m.chunks = make([][]Node, (cfg.Nodes+nodeChunk-1)/nodeChunk)
	if m.parts > 0 {
		for c := range m.chunks {
			m.buildChunk(c)
		}
	}
	m.wordTransit = m.fixedTransitNs(wordBytes)
	if scope != nil && scope.onNew != nil {
		scope.onNew(m)
	}
	return m
}

// Stats returns a copy of the machine counters (summed across partition
// shards on a partitioned machine).
func (m *Machine) Stats() Stats {
	s := m.stats
	for i := range m.pstats {
		ps := &m.pstats[i]
		s.LocalRefs += ps.LocalRefs
		s.RemoteRefs += ps.RemoteRefs
		s.BlockCopies += ps.BlockCopies
		s.AtomicOps += ps.AtomicOps
	}
	return s
}

// Partitions returns the machine's partition count (0 = classic engine).
func (m *Machine) Partitions() int { return m.parts }

// pid maps a node index to its partition.
func (m *Machine) pid(node int) int { return node * m.parts / m.Cfg.Nodes }

// statsFor returns the counter shard a reference issued by p during a window
// must account into: the partition's shard on a partitioned machine (windows
// execute concurrently), the machine-wide counters otherwise.
func (m *Machine) statsFor(p *sim.Proc) *Stats {
	if m.parts > 0 {
		return &m.pstats[m.pid(p.Node)]
	}
	return &m.stats
}

// N returns the number of nodes.
func (m *Machine) N() int { return m.Cfg.Nodes }

// Node validates a node index and returns its descriptor, building the
// node's chunk when nothing has touched it yet.
func (m *Machine) Node(i int) *Node {
	if i < 0 || i >= m.Cfg.Nodes {
		panic(fmt.Sprintf("machine: node %d out of range 0..%d", i, m.Cfg.Nodes-1))
	}
	nodes := m.chunks[i/nodeChunk]
	if nodes == nil {
		nodes = m.buildChunk(i / nodeChunk)
	}
	return &nodes[i%nodeChunk]
}

// buildChunk builds the state of chunk c's nodes, attaching the machine's
// probe if one is attached.
func (m *Machine) buildChunk(c int) []Node {
	first := c * nodeChunk
	n := min(nodeChunk, m.Cfg.Nodes-first)
	mods := memory.NewModules(first, n, m.Cfg.MemBytes, m.Cfg.MemCycleNs)
	sars := memory.NewSARPools(n)
	nodes := make([]Node, n)
	for i := range nodes {
		mods[i].SetProbe(m.probe)
		nodes[i] = Node{ID: first + i, Mem: &mods[i], SARs: &sars[i]}
	}
	m.chunks[c] = nodes
	return nodes
}

// EachBuiltNode calls f on every node whose state has been built, in index
// order. A node never touched has an idle, empty module, so walks that
// prune calendars or sum module statistics may skip it.
func (m *Machine) EachBuiltNode(f func(*Node)) {
	for _, c := range m.chunks {
		for i := range c {
			f(&c[i])
		}
	}
}

// wordBytes is the transfer unit of the reference API.
const wordBytes = 4

// transit routes a packet, honouring the NoSwitchContention shortcut.
func (m *Machine) transit(t int64, src, dst, bytes int) int64 {
	if m.Cfg.NoSwitchContention {
		if bytes == wordBytes {
			return t + m.wordTransit
		}
		return t + m.fixedTransitNs(bytes)
	}
	return m.Net.Transit(t, src, dst, bytes)
}

// fixedTransitNs is the uncontended end-to-end network time for a packet
// (the topology's idle diameter path).
func (m *Machine) fixedTransitNs(bytes int) int64 {
	return m.Net.UncontendedNs(bytes)
}

// maybePrune periodically discards stale server reservations (calendar
// entries ending before the current virtual time can never matter again).
func (m *Machine) maybePrune() {
	// Pruning discards only intervals entirely in the past (no request can
	// arrive before the current virtual time), so the period is purely a
	// wall-clock trade-off: short enough to keep calendars compact for the
	// insertion memmoves, long enough to amortize the sweep over all nodes.
	const every = 20 * 1_000_000 // 20 ms of virtual time
	if m.parts > 0 {
		// Partitioned machines prune at window barriers (pruneAtBarrier),
		// where all partitions are quiescent; pruning from inside a window
		// would race with concurrent calendar use.
		return
	}
	if m.E.Now()-m.lastPrune < every {
		return
	}
	m.lastPrune = m.E.Now()
	m.Net.Prune(m.lastPrune)
	if m.comb != nil {
		m.comb.Prune(m.lastPrune)
	}
	m.EachBuiltNode(func(n *Node) { n.Mem.Prune(m.lastPrune) })
}

// pruneAtBarrier is the partitioned machine's calendar pruning, installed as
// the engine's barrier hook: it runs on the coordinator between windows. No
// reservation can be requested before the window's start time, so intervals
// ending earlier can never matter again.
func (m *Machine) pruneAtBarrier(windowStart int64) {
	const every = 20 * 1_000_000 // 20 ms of virtual time
	if windowStart-m.lastPrune < every {
		return
	}
	m.lastPrune = windowStart
	m.Net.Prune(windowStart)
	if m.comb != nil {
		m.comb.Prune(windowStart)
	}
	m.EachBuiltNode(func(n *Node) { n.Mem.Prune(windowStart) })
}

// Read charges p for reading words 32-bit words from the memory of the given
// node. Single-word remote reads model the PNC's word-at-a-time references:
// each word is a separate network round trip. Multi-word local reads occupy
// the module back to back.
func (m *Machine) Read(p *sim.Proc, node, words int) {
	m.access(p, node, words)
}

// Write charges p for writing words 32-bit words to the memory of the given
// node. The Butterfly's write path costs the same as the read path at this
// model's granularity.
func (m *Machine) Write(p *sim.Proc, node, words int) {
	m.access(p, node, words)
}

func (m *Machine) access(p *sim.Proc, node, words int) {
	// Reservations must issue at the process's true time: flush the local
	// clock first, then charge the reference lazily.
	p.Sync()
	m.maybePrune()
	if words <= 0 {
		words = 1
	}
	faulty := m.faults != nil
	if faulty {
		m.preFault(p, node)
	}
	n := m.Node(node)
	if node == p.Node {
		// Local: processor overhead once, then the module streams the words.
		m.statsFor(p).LocalRefs++
		now := p.Now()
		_, done := n.Mem.Service(now+m.Cfg.LocalOverheadNs, words, true)
		if faulty {
			m.chargeFaulty(p, node, false, done-now)
			return
		}
		p.Charge(done - now)
		return
	}
	if m.parts > 0 {
		// Partitioned: every off-node reference is serviced at the window
		// barrier, whether or not the target happens to share the caller's
		// partition — so the timeline never depends on the node-to-partition
		// mapping.
		m.exchangeAccess(p, n, words)
		return
	}
	// Remote: each word is an independent reference through the switch
	// (request out, memory cycle, reply back). The PNC overlaps nothing, so
	// the references serialize; they are charged as one batch (a single
	// local-clock charge) with full per-word cost and module/port occupancy.
	m.stats.RemoteRefs += uint64(words)
	now := m.E.Now()
	if m.Cfg.NoSwitchContention {
		// Fixed network latency makes the request chain deterministic, so
		// the per-word loop folds into a single calendar pass.
		gap := m.Cfg.PNCOverheadNs + 2*m.wordTransit
		done := n.Mem.ServiceRun(now+m.Cfg.PNCOverheadNs+m.wordTransit, words, gap, false)
		if faulty {
			m.chargeFaulty(p, node, true, done+m.wordTransit-now)
			return
		}
		p.Charge(done + m.wordTransit - now)
		return
	}
	t := now
	for w := 0; w < words; w++ {
		t += m.Cfg.PNCOverheadNs
		t = m.transit(t, p.Node, node, wordBytes)
		_, t = n.Mem.Service(t, 1, false)
		t = m.transit(t, node, p.Node, wordBytes)
	}
	if faulty {
		m.chargeFaulty(p, node, true, t-now)
		return
	}
	p.Charge(t - now)
}

// BlockCopy charges p for streaming words 32-bit words from the memory of
// node src to the memory of node dst. This is the Uniform System "copy into
// local memory" idiom (§4.1): the block streams through the switch in one
// transfer, amortizing the per-reference overhead that makes word-at-a-time
// remote access five times slower.
func (m *Machine) BlockCopy(p *sim.Proc, src, dst, words int) {
	p.Sync()
	m.maybePrune()
	if words <= 0 {
		return
	}
	faulty := m.faults != nil
	if faulty {
		m.preFault(p, src)
		if dst != src {
			m.preFault(p, dst)
		}
	}
	sn, dn := m.Node(src), m.Node(dst)
	if m.parts > 0 && (src != p.Node || dst != p.Node) {
		m.exchangeBlockCopy(p, sn, dn, words)
		return
	}
	m.statsFor(p).BlockCopies++
	now := p.Now()
	t := now + m.Cfg.PNCOverheadNs
	if src == dst {
		// Local copy: read + write through the one module.
		_, t = sn.Mem.Service(t, 2*words, src == p.Node)
		if faulty {
			m.chargeFaulty(p, src, src != p.Node, t-now)
			return
		}
		p.Charge(t - now)
		return
	}
	// Source module streams the block, the network carries it, the
	// destination module absorbs it; the phases pipeline, so total time is
	// dominated by the slowest stage plus fixed latency.
	sStart, sDone := sn.Mem.Service(t, words, src == p.Node)
	nDone := m.transit(sStart, src, dst, words*wordBytes)
	if nDone < sDone {
		nDone = sDone
	}
	// The destination module overlaps the tail of the transfer: its pipeline
	// is offset by its own per-word cycle time (not the machine-wide default,
	// which diverges from it in mixed-memory configurations).
	_, dDone := dn.Mem.Service(nDone-int64(words)*dn.Mem.CycleNs, words, dst == p.Node)
	if dDone < nDone {
		dDone = nDone
	}
	if faulty {
		// Blame the remote end of the transfer for any drawn fault.
		rnode := dst
		if rnode == p.Node {
			rnode = src
		}
		m.chargeFaulty(p, rnode, true, dDone-now)
		return
	}
	p.Charge(dDone - now)
}

// Atomic charges p for one atomic read-modify-write (test-and-set,
// fetch-and-add, atomic-ior...) on a word in the given node's memory, and
// returns nothing: the caller performs the actual operation on its own data,
// which is safe because the engine runs one process at a time. An atomic op
// occupies the module for two cycles (read + write). On a combining machine
// the word identity matters (only operations on the same word merge), so
// callers that distinguish words use AtomicWord; Atomic is word 0.
func (m *Machine) Atomic(p *sim.Proc, node int) {
	m.AtomicWord(p, node, 0)
}

// AtomicWord is Atomic on an identified word of the node's memory. The word
// index only influences the combining layer's merge decision; without
// Config.Combining it is ignored and the charge is identical to Atomic's.
func (m *Machine) AtomicWord(p *sim.Proc, node, word int) {
	p.Sync()
	m.maybePrune()
	faulty := m.faults != nil
	if faulty {
		m.preFault(p, node)
	}
	n := m.Node(node)
	if node == p.Node {
		m.statsFor(p).AtomicOps++
		now := p.Now()
		_, done := n.Mem.Service(now+m.Cfg.LocalOverheadNs, 2, true)
		if faulty {
			m.chargeFaulty(p, node, false, done-now)
			return
		}
		p.Charge(done - now)
		return
	}
	if m.parts > 0 {
		m.exchangeAtomic(p, n, word)
		return
	}
	m.stats.AtomicOps++
	now := m.E.Now()
	if m.comb != nil {
		done := m.comb.FetchAdd(now+m.Cfg.PNCOverheadNs, p.Node, node, word, func(arrive int64) int64 {
			_, d := n.Mem.Service(arrive, 2, false)
			return d
		})
		if faulty {
			m.chargeFaulty(p, node, true, done-now)
			return
		}
		p.Charge(done - now)
		return
	}
	t := now + m.Cfg.PNCOverheadNs
	t = m.transit(t, p.Node, node, wordBytes)
	_, t = n.Mem.Service(t, 2, false)
	t = m.transit(t, node, p.Node, wordBytes)
	if faulty {
		m.chargeFaulty(p, node, true, t-now)
		return
	}
	p.Charge(t - now)
}

// CombineStats returns the combining layer's counters (zero without
// Config.Combining).
func (m *Machine) CombineStats() switchnet.CombineStats {
	if m.comb == nil {
		return switchnet.CombineStats{}
	}
	return m.comb.Stats()
}

// Topology reports the interconnect family the machine was built with.
func (m *Machine) Topology() switchnet.Topology { return m.Net.Name() }

// Ref describes one shared-memory reference stream of a Sweep element.
type Ref struct {
	// Node is the home memory of the referenced data.
	Node int
	// Words is how many 32-bit words each element references there.
	Words int
}

// Sweep charges p for `items` loop iterations, each consisting of computeNs
// of processor time interleaved with one reference group per entry of refs
// (local or remote as appropriate). The whole sweep is charged as a single
// engine event, but module and switch-port occupancy is booked per word at
// the realistic issue times, so contention with other processors is modelled
// without the artificial convoys that batching all references back to back
// would create. This is the workhorse for inner loops such as the Gaussian
// elimination row update, where two flops and a handful of shared-memory
// references alternate millions of times.
func (m *Machine) Sweep(p *sim.Proc, items int, computeNs int64, refs []Ref) {
	p.Sync()
	m.maybePrune()
	if items <= 0 {
		return
	}
	if m.parts > 0 {
		m.partitionedSweep(p, items, computeNs, refs)
		return
	}
	faulty := m.faults != nil
	if faulty {
		m.preFault(p, p.Node)
		for _, r := range refs {
			if r.Node != p.Node {
				m.preFault(p, r.Node)
			}
		}
	}
	now := p.Now()
	t := now
	scr := &m.scr[0]
	fixedNet := m.Cfg.NoSwitchContention
	gap := m.Cfg.PNCOverheadNs + 2*m.wordTransit
	lead := m.Cfg.PNCOverheadNs + m.wordTransit
	// The whole sweep runs inside one engine event, so no other process can
	// observe a module's calendar before the sweep charges, and the sweep's
	// own references reach each module in arrival-time order. Both conditions
	// of the calendar batch contract hold, so each touched module's bookings
	// are placed in a batch and spliced in once at the end — one merge pass
	// instead of items*len(refs) mid-schedule inserts. Resolve each ref's
	// module and open its batch once, outside the item loop.
	mods := scr.refMods[:0]
	for _, r := range refs {
		mod := m.Node(r.Node).Mem
		mods = append(mods, mod)
		if r.Words > 0 && !mod.InBatch() {
			mod.BeginBatch()
			scr.mods = append(scr.mods, mod)
		}
	}
	scr.refMods = mods
	var failNode int
	var failKind fault.Kind
	failed := false
outer:
	for it := 0; it < items; it++ {
		t += computeNs
		for j, r := range refs {
			words := r.Words
			if words <= 0 {
				continue
			}
			mod := mods[j]
			switch {
			case r.Node == p.Node:
				m.stats.LocalRefs++
				_, t = mod.ServiceBatch(t+m.Cfg.LocalOverheadNs, words, true)
			case fixedNet:
				m.stats.RemoteRefs += uint64(words)
				t = mod.ServiceRunBatch(t+lead, words, gap, false) + m.wordTransit
			default:
				m.stats.RemoteRefs += uint64(words)
				for w := 0; w < words; w++ {
					t += m.Cfg.PNCOverheadNs
					t = m.transit(t, p.Node, r.Node, wordBytes)
					_, t = mod.ServiceBatch(t, 1, false)
					t = m.transit(t, r.Node, p.Node, wordBytes)
				}
			}
			if faulty {
				// One fate draw per reference group. On failure the sweep
				// stops here: the work already booked happened, the rest of
				// the sweep never does.
				extra, kind, bad := m.refFault(r.Node, r.Node != p.Node)
				t += extra
				if bad {
					failNode, failKind, failed = r.Node, kind, true
					break outer
				}
			}
		}
	}
	// Commit before Charge: Charge may flush and park, handing the token to
	// another process that must see the completed schedule. A drawn fault is
	// raised only after both, so batches are never left open.
	for _, mod := range scr.mods {
		mod.CommitBatchScratch(&scr.commit)
	}
	scr.mods = scr.mods[:0]
	p.Charge(t - now)
	if failed {
		m.raiseFault(p, failNode, failKind)
	}
}

// Microcode charges p for a PNC-microcoded operation (event post, dual
// queue enqueue/dequeue) executed at the object's home node. The microcode
// runs in the home node's PNC and occupies that node's memory for busyNs,
// so concurrent microcoded operations on objects sharing a home node
// serialize there — the reason heavily shared queues become bottlenecks.
func (m *Machine) Microcode(p *sim.Proc, node int, busyNs int64) {
	p.Sync()
	m.maybePrune()
	faulty := m.faults != nil
	if faulty {
		m.preFault(p, node)
	}
	n := m.Node(node)
	words := int(busyNs / m.Cfg.MemCycleNs)
	if words < 1 {
		words = 1
	}
	if m.parts > 0 && node != p.Node {
		m.exchangeMicrocode(p, n, words)
		return
	}
	now := p.Now()
	t := now
	if node != p.Node {
		t += m.Cfg.PNCOverheadNs
		t = m.transit(t, p.Node, node, wordBytes)
	} else {
		t += m.Cfg.LocalOverheadNs
	}
	_, t = n.Mem.Service(t, words, node == p.Node)
	if node != p.Node {
		t = m.transit(t, node, p.Node, wordBytes)
	}
	if faulty {
		m.chargeFaulty(p, node, node != p.Node, t-now)
		return
	}
	p.Charge(t - now)
}

// IntOps charges p for n integer operations of pure processor time. The
// charge is purely local — no shared server is reserved — so it never
// forces a flush of the caller's local clock.
func (m *Machine) IntOps(p *sim.Proc, n int) {
	if n > 0 {
		p.Charge(int64(n) * m.Cfg.IntOpNs)
	}
}

// Flops charges p for n floating-point operations (purely local, like IntOps).
func (m *Machine) Flops(p *sim.Proc, n int) {
	if n > 0 {
		p.Charge(int64(n) * m.Cfg.FlopNs)
	}
}

// Spawn creates a simulated process bound to a node. It is a thin wrapper
// over the engine that validates the node index.
func (m *Machine) Spawn(name string, node int, fn func(p *sim.Proc)) *sim.Proc {
	m.Node(node)
	return m.E.Spawn(name, node, fn)
}

// LocalReadNs returns the uncontended cost of a one-word local read — the
// denominator of the paper's "roughly five times" NUMA ratio.
func (m *Machine) LocalReadNs() int64 {
	return m.Cfg.LocalOverheadNs + m.Cfg.MemCycleNs
}

// RemoteReadNs returns the uncontended cost of a one-word remote read
// between two maximally distant nodes (on the butterfly, every distinct
// pair; on direct networks, a diameter pair).
func (m *Machine) RemoteReadNs() int64 {
	return m.Cfg.PNCOverheadNs + 2*m.Net.UncontendedNs(wordBytes) + m.Cfg.MemCycleNs
}
