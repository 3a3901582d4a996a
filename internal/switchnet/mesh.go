package switchnet

// MeshNet is a 2D mesh: nodes occupy a near-square W x H grid (node id i at
// column i mod W, row i / W) joined by directed links between neighbours.
// Routing is dimension-order — the packet first walks the X dimension to the
// destination column, then the Y dimension to the destination row — which is
// deadlock-free and makes every route a pure function of the endpoints, so
// link contention is deterministic.
//
// Calibration: a mesh router is far simpler than a 4x4 butterfly element, so
// each hop costs half a HopLatency; what the mesh loses is hop count — the
// diameter grows as 2*sqrt(N) instead of log4(N), which is exactly the NUMA
// cliff the streamnuma experiment charts.
type MeshNet struct {
	netBase
	w, h  int
	hopNs int64
}

// Link directions. The link id alone names a physical link (direction and
// cell are both encoded in it), so PathPorts uses a single stage identifier
// of 0 for every hop — two paths share a calendar exactly when they share a
// (stage, link) pair, the contract the routing-invariant tests rely on.
const (
	meshEast = iota
	meshWest
	meshNorth
	meshSouth
)

// NewMesh builds the smallest near-square mesh holding cfg.Nodes nodes.
func NewMesh(cfg Config) *MeshNet {
	if cfg.Nodes <= 0 {
		panic("switchnet: node count must be positive")
	}
	if cfg.Nodes > maxNodes {
		panic("switchnet: node count exceeds the supported maximum")
	}
	w := 1
	for w*w < cfg.Nodes {
		w++
	}
	h := (cfg.Nodes + w - 1) / w
	m := &MeshNet{
		netBase: netBase{cfg: cfg, links: newLinks(4 * w * h)},
		w:       w,
		h:       h,
		hopNs:   cfg.HopLatency / 2,
	}
	if m.hopNs < 1 {
		m.hopNs = 1
	}
	return m
}

// Name identifies the topology family.
func (m *MeshNet) Name() Topology { return Mesh }

// Stages returns the diameter in hops: corner to corner.
func (m *MeshNet) Stages() int { return (m.w - 1) + (m.h - 1) }

// UncontendedNs is the idle-network latency of a diameter path.
func (m *MeshNet) UncontendedNs(bytes int) int64 {
	return int64(m.Stages())*m.hopNs + m.serviceNs(bytes)
}

// linkFrom is the id of the directed link leaving cell (y*w + x) in
// direction d.
func (m *MeshNet) linkFrom(cell, d int) int { return d*m.w*m.h + cell }

// pathAppend walks the dimension-order route, appending one
// (hop-index, link) pair per hop.
func (m *MeshNet) pathAppend(src, dst int, buf [][2]int) [][2]int {
	if src == dst {
		return buf
	}
	m.checkRoute(src, dst)
	x, y := src%m.w, src/m.w
	dx, dy := dst%m.w, dst/m.w
	for x != dx {
		d := meshEast
		if dx < x {
			d = meshWest
		}
		buf = append(buf, [2]int{0, m.linkFrom(y*m.w+x, d)})
		if dx < x {
			x--
		} else {
			x++
		}
	}
	for y != dy {
		d := meshNorth
		if dy < y {
			d = meshSouth
		}
		buf = append(buf, [2]int{0, m.linkFrom(y*m.w+x, d)})
		if dy < y {
			y--
		} else {
			y++
		}
	}
	return buf
}

// PathPorts reports the (stage, link) pairs a src->dst packet occupies;
// the mesh's stage is always 0 (see the direction constants above).
func (m *MeshNet) PathPorts(src, dst int) [][2]int {
	return m.pathAppend(src, dst, nil)
}

// reserveHop books one hop; the mesh's stage is always 0, so the link id
// alone names the calendar.
func (m *MeshNet) reserveHop(stage, link int, t, svc int64) int64 {
	return m.reserve(link, stage, link, t, svc)
}

func (m *MeshNet) hopLatencyNs(int) int64 { return m.hopNs }

// Transit routes a packet in dimension order, reserving each link. The
// per-hop scratch is stack-allocated up to the diameter of a 4096-node mesh.
func (m *MeshNet) Transit(now int64, src, dst, bytes int) int64 {
	if src == dst {
		return now
	}
	var hops [126][2]int
	var path [][2]int
	if m.Stages() <= len(hops) {
		path = m.pathAppend(src, dst, hops[:0])
	} else {
		path = m.pathAppend(src, dst, nil)
	}
	m.stats.Packets++
	svc := m.serviceNs(bytes)
	t := now
	for _, hp := range path {
		start := m.reserveHop(hp[0], hp[1], t, svc)
		t = start + m.hopNs
	}
	return t + svc
}
