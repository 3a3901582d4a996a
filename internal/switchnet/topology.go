package switchnet

import (
	"fmt"

	"butterfly/internal/probe"
)

// Topology names one of the interconnect families the machine can be wired
// with. The zero value selects the Butterfly's own multistage network, so
// configurations that predate the topology axis keep their exact behaviour.
type Topology string

const (
	// Butterfly is the paper's machine: a radix-4 multistage
	// digit-exchange network (the default).
	Butterfly Topology = "butterfly"
	// FatTree is a k-ary full-bisection folded tree (Clos): packets climb
	// to the least common ancestor and descend, choosing among the
	// parallel links by destination (up) and source (down) digits.
	FatTree Topology = "fattree"
	// Dragonfly is a two-level hierarchy: groups of routers joined by an
	// all-to-all web of long global links, minimal local-global-local
	// routing.
	Dragonfly Topology = "dragonfly"
	// Mesh is a 2D mesh with dimension-order (X then Y) routing and one
	// calendar per directed neighbour link.
	Mesh Topology = "mesh"
)

// Topologies lists the supported topology names in presentation order.
func Topologies() []Topology {
	return []Topology{Butterfly, FatTree, Dragonfly, Mesh}
}

// ParseTopology validates a topology name; "" means Butterfly.
func ParseTopology(s string) (Topology, error) {
	switch t := Topology(s); t {
	case "", Butterfly:
		return Butterfly, nil
	case FatTree, Dragonfly, Mesh:
		return t, nil
	}
	return "", fmt.Errorf("switchnet: unknown topology %q (have butterfly, fattree, dragonfly, mesh)", s)
}

// Interconnect is the interface the machine layer programs against: any
// network that can route a packet between two nodes with deterministic
// per-link contention. All implementations in this package model contention
// with calendar.Calendar reservations, so packets may be booked into the
// virtual future without falsely serializing later-issued, earlier-timed
// traffic — the property the two-tier time-charging layers depend on.
type Interconnect interface {
	// Name identifies the topology family.
	Name() Topology
	// Nodes is the number of processing nodes attached.
	Nodes() int
	// Transit routes a packet of the given size from src to dst starting
	// at virtual time now and returns the delivery time, booking link
	// occupancy along the path. src == dst is a zero-cost local transfer.
	Transit(now int64, src, dst, bytes int) int64
	// Stages returns the worst-case number of link hops a packet
	// traverses end to end (the network diameter in hops).
	Stages() int
	// UncontendedNs is the fixed end-to-end latency of a packet on an
	// idle network along a worst-case (diameter) path — the constant the
	// NoSwitchContention shortcut charges instead of reserving links.
	UncontendedNs(bytes int) int64
	// Stats returns a copy of the accumulated counters.
	Stats() Stats
	// ResetStats zeroes the counters (link occupancy is retained).
	ResetStats()
	// SetProbe attaches an observability probe (nil detaches).
	SetProbe(p *probe.Probe)
	// NoteDrops records packet drops injected by the fault layer.
	NoteDrops(drops int)
	// Prune discards link reservations that ended before now.
	Prune(now int64)
	// PathPorts reports the (stage, link) pairs a src->dst packet
	// occupies, in traversal order. Stage identifiers are
	// topology-specific but stable, and (stage, link) names exactly the
	// calendar Transit reserves at that hop.
	PathPorts(src, dst int) [][2]int
}

// linkReserver is the internal capability the Combining wrapper builds on:
// alloc-free path enumeration plus direct per-hop reservation with the same
// stats and probe accounting Transit performs. Every topology in this
// package implements it.
type linkReserver interface {
	Interconnect
	// pathAppend appends the (stage, link) hops of src->dst to buf.
	pathAppend(src, dst int, buf [][2]int) [][2]int
	// reserveHop books one packet of service time svc onto the hop's
	// calendar no earlier than t, returning the reservation start. It
	// accounts contention, hop counters, and the probe exactly as a
	// Transit through that hop would.
	reserveHop(stage, link int, t, svc int64) int64
	// hopLatencyNs is the propagation delay of one hop at the given stage.
	hopLatencyNs(stage int) int64
	// serviceNs is how long a packet of the given size occupies one link.
	serviceNs(bytes int) int64
	// notePacket counts one routed packet (Transit does this implicitly).
	notePacket()
}

// Every topology supports combining (linkReserver is the capability
// NewCombining requires).
var (
	_ linkReserver = (*Network)(nil)
	_ linkReserver = (*FatTreeNet)(nil)
	_ linkReserver = (*DragonflyNet)(nil)
	_ linkReserver = (*MeshNet)(nil)
)

// Build constructs the named topology over the shared link calibration.
// Config.HopLatency and Config.BytesPerSecond describe the link technology
// (a Butterfly-I switch stage); each topology derives its own geometry and
// per-hop timing from them, so one calibration is meaningful across all
// families. An empty topology name builds the Butterfly.
func Build(t Topology, cfg Config) Interconnect {
	switch t {
	case "", Butterfly:
		return New(cfg)
	case FatTree:
		return NewFatTree(cfg)
	case Dragonfly:
		return NewDragonfly(cfg)
	case Mesh:
		return NewMesh(cfg)
	}
	panic(fmt.Sprintf("switchnet: unknown topology %q", t))
}

// netBase carries the state and accounting every topology shares.
type netBase struct {
	cfg   Config
	stats Stats
	// links holds every link calendar; each topology maps its (stage,
	// link) pairs to flat ids.
	links links
	// probe, when non-nil, observes every link traversal (occupancy and
	// queueing per stage/link). Purely observational.
	probe *probe.Probe
}

// Config returns the network configuration.
func (b *netBase) Config() Config { return b.cfg }

// Nodes returns the number of attached processing nodes.
func (b *netBase) Nodes() int { return b.cfg.Nodes }

// Stats returns a copy of the accumulated counters.
func (b *netBase) Stats() Stats { return b.stats }

// ResetStats zeroes the accumulated counters (link occupancy is retained).
func (b *netBase) ResetStats() { b.stats = Stats{} }

// SetProbe attaches an observability probe (nil detaches).
func (b *netBase) SetProbe(p *probe.Probe) { b.probe = p }

// NoteDrops records n packet drops injected by the fault layer. The machine
// charges the retransmission latency itself (the retried packets never
// re-reserve links — a modelling simplification that keeps drop recovery out
// of the link calendars); the network only keeps the count so switch
// statistics reflect the loss.
func (b *netBase) NoteDrops(drops int) {
	if drops > 0 {
		b.stats.Dropped += uint64(drops)
	}
}

func (b *netBase) notePacket() { b.stats.Packets++ }

// reserve books one packet of service time svc onto link id no earlier than
// t and returns the reservation start, accounting contention, the hop, and
// the probe's (stage, link) view exactly as a Transit through that hop.
func (b *netBase) reserve(id, stage, link int, t, svc int64) int64 {
	start := b.links.at(id).Reserve(t, svc)
	b.stats.ContentionNs += start - t
	if pr := b.probe; pr != nil {
		pr.SwitchHop(start, svc, start-t, stage, link)
	}
	b.stats.TotalHops++
	return start
}

// Prune discards link reservations that ended before now; callers invoke it
// periodically (no future packet can be issued earlier than the engine's
// current time).
func (b *netBase) Prune(now int64) { b.links.prune(now) }

// serviceNs returns how long a packet of the given size occupies one link.
func (b *netBase) serviceNs(bytes int) int64 {
	if bytes <= 0 {
		bytes = 1
	}
	return int64(bytes) * 1_000_000_000 / b.cfg.BytesPerSecond
}

// checkRoute validates a src->dst pair against the node range.
func (b *netBase) checkRoute(src, dst int) {
	if src < 0 || src >= b.cfg.Nodes || dst < 0 || dst >= b.cfg.Nodes {
		panic(fmt.Sprintf("switchnet: route %d->%d outside 0..%d", src, dst, b.cfg.Nodes-1))
	}
}
