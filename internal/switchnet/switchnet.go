// Package switchnet models the interconnection network of a shared-memory
// multiprocessor. The default — and the machine the package is named for —
// is the Butterfly switching network: a multistage interconnection network
// built from 4-input, 4-output switch elements with a per-port bandwidth of
// 32 Mbit/s. A remote memory reference traverses ceil(log4 N) switch stages
// from the source processor node controller (PNC) to the destination memory,
// and the reply traverses the mirror path. Alternative topologies (fat-tree,
// dragonfly, 2D mesh) implement the same Interconnect interface; see
// topology.go.
//
// Contention is modelled per switch output port: each port is a server with a
// service time proportional to the packet size; a packet arriving while the
// port is busy waits. The Butterfly hardware made switch contention "almost
// negligible" (Rettberg & Thomas, CACM 1986); with realistic parameters this
// model reproduces that result (experiment E6).
package switchnet

import "fmt"

// Radix is the fan-in/fan-out of each switch element (4 on the Butterfly).
const Radix = 4

// maxNodes bounds the node count of any topology in this package. 4^10 is
// far beyond the 512–4096-node sweeps the experiments run and keeps the
// routing digit buffers fixed-size on the stack.
const maxNodes = 1 << 20

// maxStages is the deepest butterfly maxNodes allows: log4(4^10) = 10.
const maxStages = 10

// Config holds the tunable parameters of the network model.
type Config struct {
	// Nodes is the number of processing nodes connected to the network.
	Nodes int
	// HopLatency is the fixed propagation plus switching delay through one
	// switch stage, in nanoseconds. Non-butterfly topologies derive their
	// per-hop timing from it (see each constructor), so one calibration
	// describes the link technology across all families.
	HopLatency int64
	// BytesPerSecond is the bandwidth of one switch port. The Butterfly-I
	// ports carried 32 Mbit/s = 4e6 bytes/s.
	BytesPerSecond int64
}

// DefaultConfig returns the calibration used for the Butterfly-I: chosen so
// that an uncontended one-word remote reference on a 128-node (4-stage)
// machine completes in just under 4 µs, the paper's figure. The byte rate is
// twice the nominal 32 Mbit/s port bandwidth because the Butterfly switch
// provides separate forward and reverse paths per connection.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:          nodes,
		HopLatency:     250, // ns per stage
		BytesPerSecond: 8_000_000,
	}
}

// Stats aggregates network-level counters.
type Stats struct {
	Packets      uint64 // packets routed
	TotalHops    uint64 // switch stages traversed
	ContentionNs int64  // total time spent waiting for busy ports
	Dropped      uint64 // packets dropped in flight and retransmitted (fault injection)
}

// Geometry reports the butterfly a node count maps onto: the number of
// switch stages (ceil(log4 nodes), minimum 1) and the number of wire
// positions per stage (Radix^stages). Node counts that are not a power of
// the radix are rounded up to the next power — the real machine was
// configured the same way, with unused switch ports — so ports may exceed
// nodes. Exported so tests and topologies never re-derive the rounding.
func Geometry(nodes int) (stages, ports int) {
	if nodes <= 0 {
		panic("switchnet: node count must be positive")
	}
	if nodes > maxNodes {
		panic(fmt.Sprintf("switchnet: node count %d exceeds the supported maximum %d", nodes, maxNodes))
	}
	stages = 0
	for span := 1; span < nodes; span *= Radix {
		stages++
	}
	if stages == 0 {
		stages = 1 // degenerate 1-node machine still has a stage to itself
	}
	ports = 1
	for i := 0; i < stages; i++ {
		ports *= Radix
	}
	return stages, ports
}

// Network is the Butterfly multistage interconnection network. It tracks
// per-port occupancy so concurrent transfers through a common port queue up.
type Network struct {
	netBase
	stages int
	// nports is the wire-position count per stage: Radix^stages, which is
	// the node count rounded up to a power of the radix (see Geometry).
	nports int
	// pow[i] is Radix^i, precomputed so routing replaces one digit per
	// stage in O(1) instead of re-deriving every digit.
	pow [maxStages + 1]int
}

// New builds a Butterfly network for the given configuration. The node
// count may be any positive number up to 4^10; counts that are not a power
// of the radix are rounded up internally for routing purposes — Geometry
// documents the exact mapping and Ports exposes the result.
func New(cfg Config) *Network {
	stages, nports := Geometry(cfg.Nodes)
	n := &Network{netBase: netBase{cfg: cfg, links: newLinks(stages * nports)}, stages: stages, nports: nports}
	n.pow[0] = 1
	for i := 1; i <= maxStages; i++ {
		n.pow[i] = n.pow[i-1] * Radix
	}
	return n
}

// Name identifies the topology family.
func (n *Network) Name() Topology { return Butterfly }

// Stages returns the number of switch stages a packet traverses end to end.
func (n *Network) Stages() int { return n.stages }

// Ports returns the number of wire positions per stage (the node count
// rounded up to a power of the radix).
func (n *Network) Ports() int { return n.nports }

// UncontendedNs is the fixed end-to-end latency of a packet crossing an idle
// network: one hop delay per stage plus the port service time of the packet.
func (n *Network) UncontendedNs(bytes int) int64 {
	return int64(n.stages)*n.cfg.HopLatency + int64(bytes)*1_000_000_000/n.cfg.BytesPerSecond
}

// portAtRef is the reference routing model: the port a src->dst packet
// occupies at the given stage, derived digit by digit. The routing is the
// standard butterfly digit-exchange: after stage s, the s+1 most significant
// radix-4 digits of the position have been replaced by digits of the
// destination. Transit uses the incremental equivalent (one digit swap per
// stage); the fuzz target in switchnet_test.go holds the two equal.
func (n *Network) portAtRef(src, dst, stage int) int {
	digits := n.stages
	pos := 0
	for d := 0; d < digits; d++ {
		var dig int
		if d <= stage {
			dig = digit(dst, digits-1-d)
		} else {
			dig = digit(src, digits-1-d)
		}
		pos = pos*Radix + dig
	}
	return pos
}

// digit extracts radix-4 digit i (0 = least significant) of v.
func digit(v, i int) int {
	for ; i > 0; i-- {
		v /= Radix
	}
	return v % Radix
}

// route writes the per-stage port of a src->dst packet into out[:stages].
// Stage s's position is src with its s+1 most significant digits replaced by
// dst's, so each stage swaps exactly one digit of the previous position:
// O(stages) digit work per packet instead of O(stages²).
func (n *Network) route(src, dst int, out *[maxStages]int) {
	pos := src
	for s := 0; s < n.stages; s++ {
		k := n.stages - 1 - s
		pw := n.pow[k]
		pos += ((dst/pw)%Radix - (src/pw)%Radix) * pw
		out[s] = pos
	}
}

// Transit routes a packet of the given size from node src to node dst
// starting at virtual time now, and returns the time at which the packet is
// fully delivered. Port occupancy along the path is updated, so later packets
// sharing a port are delayed (switch contention). src == dst is a zero-cost
// local transfer.
func (n *Network) Transit(now int64, src, dst, bytes int) int64 {
	if src == dst {
		return now
	}
	n.checkRoute(src, dst)
	n.stats.Packets++
	t := now
	svc := n.serviceNs(bytes)
	var path [maxStages]int
	n.route(src, dst, &path)
	// The hop accounting of reserveHop, inlined: this loop is the
	// simulator's hottest network path.
	for s := 0; s < n.stages; s++ {
		port := path[s]
		start := n.links.at(s*n.nports+port).Reserve(t, svc)
		n.stats.ContentionNs += start - t
		if pr := n.probe; pr != nil {
			pr.SwitchHop(start, svc, start-t, s, port)
		}
		// The port is occupied while the packet streams through it;
		// cut-through routing lets the head proceed after HopLatency.
		t = start + n.cfg.HopLatency
		n.stats.TotalHops++
	}
	// Delivery completes when the tail clears the last stage.
	return t + svc
}

// PathPorts reports the (stage, port) pairs a src->dst packet occupies; it is
// exported for tests and for the contention experiment's instrumentation.
func (n *Network) PathPorts(src, dst int) [][2]int {
	return n.pathAppend(src, dst, nil)
}

// pathAppend appends the (stage, port) hops of src->dst to buf.
func (n *Network) pathAppend(src, dst int, buf [][2]int) [][2]int {
	if src == dst {
		return buf
	}
	n.checkRoute(src, dst)
	var path [maxStages]int
	n.route(src, dst, &path)
	for s := 0; s < n.stages; s++ {
		buf = append(buf, [2]int{s, path[s]})
	}
	return buf
}

// reserveHop books one packet onto a stage port with full Transit
// accounting. Link id stage*nports + port is the reservation calendar of one
// switch output port. Ports are identified by the switch-element output they
// leave through; with radix-4 elements and N nodes there are Radix^stages
// ports per stage (one "wire" position per node address). Calendars allow
// the time-charging layers above to pre-book packets into the virtual future
// without falsely serializing later-issued, earlier-timed traffic.
func (n *Network) reserveHop(stage, port int, t, svc int64) int64 {
	return n.reserve(stage*n.nports+port, stage, port, t, svc)
}

// hopLatencyNs is the per-stage propagation delay.
func (n *Network) hopLatencyNs(int) int64 { return n.cfg.HopLatency }
