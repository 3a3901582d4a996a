package switchnet

// Dragonfly geometry: groups of dfRouters routers, each concentrating
// dfNodesPerRouter processing nodes, with an all-to-all web of global links
// between groups. The 4x4 group mirrors the radix-4 switch elements of the
// rest of the package.
const (
	dfRouters        = 4 // routers per group ("a" in the dragonfly papers)
	dfNodesPerRouter = 4 // nodes per router ("p")
	dfGroupSize      = dfRouters * dfNodesPerRouter
)

// dfGlobalHopFactor scales HopLatency for the long inter-group links.
const dfGlobalHopFactor = 4

// Stage identifiers for PathPorts:
const (
	dfStageTermOut = 0 // terminal link out of the source node
	dfStageLocal1  = 1 // source router -> gateway router
	dfStageGlobal  = 2 // global link between groups
	dfStageLocal2  = 3 // gateway router -> destination router
	dfStageTermIn  = 4 // terminal link into the destination node
)

// DragonflyNet is a two-level direct network: short local links form a
// complete graph inside each group, and long global links form a complete
// graph between groups. Minimal routing takes at most five hops — terminal
// out, local to the gateway router, global, local to the destination router,
// terminal in — with the gateway for group pair (i, j) pinned to router
// j mod a in group i (and i mod a in group j), so routes are a pure function
// of the endpoints and contention is deterministic.
//
// Calibration: terminal and local hops cost one HopLatency; the long global
// links cost dfGlobalHopFactor times that, reflecting their physical length.
type DragonflyNet struct {
	netBase
	groups int
	// Link ids are laid out in three blocks. Id n < Nodes is node n's
	// terminal link (shared by injection and delivery; all hot-spot
	// traffic to one node converges here). Id localBase + g*a*a + from*a +
	// to is the directed local link between two routers of group g. Id
	// globalBase + i*groups + j is the directed global link from group i
	// to j.
	localBase, globalBase int
	hopNs                 int64
	globalNs              int64
}

// NewDragonfly builds a dragonfly over the shared link calibration. Any
// positive node count is supported; the last group may be partially
// populated (real machines ship the same way).
func NewDragonfly(cfg Config) *DragonflyNet {
	if cfg.Nodes <= 0 {
		panic("switchnet: node count must be positive")
	}
	if cfg.Nodes > maxNodes {
		panic("switchnet: node count exceeds the supported maximum")
	}
	groups := (cfg.Nodes + dfGroupSize - 1) / dfGroupSize
	localBase := cfg.Nodes
	globalBase := localBase + groups*dfRouters*dfRouters
	return &DragonflyNet{
		netBase:    netBase{cfg: cfg, links: newLinks(globalBase + groups*groups)},
		groups:     groups,
		localBase:  localBase,
		globalBase: globalBase,
		hopNs:      cfg.HopLatency,
		globalNs:   cfg.HopLatency * dfGlobalHopFactor,
	}
}

// Name identifies the topology family.
func (d *DragonflyNet) Name() Topology { return Dragonfly }

// Stages returns the diameter in hops of the minimal route.
func (d *DragonflyNet) Stages() int { return 5 }

// UncontendedNs is the idle-network latency of a diameter path: two terminal
// hops, two local hops, and one global hop.
func (d *DragonflyNet) UncontendedNs(bytes int) int64 {
	return 4*d.hopNs + d.globalNs + d.serviceNs(bytes)
}

// router returns a node's (group, router-within-group) coordinates.
func router(node int) (g, r int) {
	return node / dfGroupSize, (node % dfGroupSize) / dfNodesPerRouter
}

// gateway returns the router in group g that owns the global link to group h.
func gateway(_, h int) int { return h % dfRouters }

// localWire is the directed local link from router fr to router to in group g.
func (d *DragonflyNet) localWire(g, fr, to int) int {
	return g*dfRouters*dfRouters + fr*dfRouters + to
}

// pathAppend enumerates the minimal route's hops, skipping the ones a route
// does not need (same router: terminal hops only; same group: no global
// link; a source or destination router that is itself the gateway: no local
// hop on that side).
func (d *DragonflyNet) pathAppend(src, dst int, buf [][2]int) [][2]int {
	if src == dst {
		return buf
	}
	d.checkRoute(src, dst)
	sg, sr := router(src)
	dg, dr := router(dst)
	buf = append(buf, [2]int{dfStageTermOut, src})
	if sg == dg {
		if sr != dr {
			buf = append(buf, [2]int{dfStageLocal1, d.localWire(sg, sr, dr)})
		}
	} else {
		gw := gateway(sg, dg)
		if sr != gw {
			buf = append(buf, [2]int{dfStageLocal1, d.localWire(sg, sr, gw)})
		}
		buf = append(buf, [2]int{dfStageGlobal, sg*d.groups + dg})
		gw2 := gateway(dg, sg)
		if gw2 != dr {
			buf = append(buf, [2]int{dfStageLocal2, d.localWire(dg, gw2, dr)})
		}
	}
	return append(buf, [2]int{dfStageTermIn, dst})
}

// PathPorts reports the (stage, link) pairs a src->dst packet occupies.
func (d *DragonflyNet) PathPorts(src, dst int) [][2]int {
	return d.pathAppend(src, dst, nil)
}

// linkID resolves a (stage, link) pair to its flat link id.
func (d *DragonflyNet) linkID(stage, link int) int {
	switch stage {
	case dfStageTermOut, dfStageTermIn:
		return link
	case dfStageGlobal:
		return d.globalBase + link
	}
	return d.localBase + link
}

func (d *DragonflyNet) reserveHop(stage, link int, t, svc int64) int64 {
	return d.reserve(d.linkID(stage, link), stage, link, t, svc)
}

func (d *DragonflyNet) hopLatencyNs(stage int) int64 {
	if stage == dfStageGlobal {
		return d.globalNs
	}
	return d.hopNs
}

// Transit routes a packet along the minimal route, reserving each link.
func (d *DragonflyNet) Transit(now int64, src, dst, bytes int) int64 {
	if src == dst {
		return now
	}
	var hops [5][2]int
	path := d.pathAppend(src, dst, hops[:0])
	d.stats.Packets++
	svc := d.serviceNs(bytes)
	t := now
	for _, hp := range path {
		start := d.reserveHop(hp[0], hp[1], t, svc)
		t = start + d.hopLatencyNs(hp[0])
	}
	return t + svc
}
