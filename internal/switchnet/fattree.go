package switchnet

// FatTreeNet is a k-ary full-bisection folded tree (a Clos network of the
// kind modern datacenter fabrics build): nodes are the leaves of a radix-4
// tree, a packet climbs to the least common ancestor of source and
// destination and descends. Full bisection means a level-l subtree has one
// parallel up-link (and one down-link) per node it contains; a packet picks
// among the parallel up-links by the destination's low digits and among the
// down-links by the source's — destination-based ("d-mod-k") routing, which
// spreads any shift permutation with zero internal contention while all
// traffic to one node still converges on that node's unique terminal link.
//
// Calibration: each hop costs half a butterfly stage (HopLatency/2), so the
// worst-case climb-plus-descend (2·levels hops) matches the latency of a
// butterfly traversal built from the same link technology.
type FatTreeNet struct {
	netBase
	// levels is the tree height: ceil(log4 nodes), minimum 1.
	levels int
	// size is the rounded leaf space, Radix^levels; link ids live in
	// [0, size) at every level.
	size  int
	pow   [maxStages + 1]int
	hopNs int64
}

// NewFatTree builds a fat-tree over the shared link calibration. The node
// count is rounded up to a power of 4 exactly like the butterfly (Geometry).
func NewFatTree(cfg Config) *FatTreeNet {
	levels, size := Geometry(cfg.Nodes)
	f := &FatTreeNet{
		netBase: netBase{cfg: cfg, links: newLinks(2 * levels * size)},
		levels:  levels,
		size:    size,
		hopNs:   cfg.HopLatency / 2,
	}
	if f.hopNs < 1 {
		f.hopNs = 1
	}
	f.pow[0] = 1
	for i := 1; i <= maxStages; i++ {
		f.pow[i] = f.pow[i-1] * Radix
	}
	return f
}

// Name identifies the topology family.
func (f *FatTreeNet) Name() Topology { return FatTree }

// Stages returns the diameter in hops: a full climb and descent.
func (f *FatTreeNet) Stages() int { return 2 * f.levels }

// UncontendedNs is the idle-network latency of a diameter path.
func (f *FatTreeNet) UncontendedNs(bytes int) int64 {
	return int64(2*f.levels)*f.hopNs + f.serviceNs(bytes)
}

// lcaHeight is the climb height of a src->dst packet: the smallest h with
// src and dst in the same level-h subtree (1..levels for src != dst).
func (f *FatTreeNet) lcaHeight(src, dst int) int {
	h := 1
	for src/f.pow[h] != dst/f.pow[h] {
		h++
	}
	return h
}

// upWire is the up-link a src->dst packet takes from level l to l+1: the
// packet's level-l subtree owns pow[l] parallel up-links and the
// destination's low digits pick one, so traffic fanning out of a subtree
// spreads across its full bisection.
func (f *FatTreeNet) upWire(src, dst, l int) int {
	b := f.pow[l]
	return src - src%b + dst%b
}

// downWire is the down-link from level l+1 into dst's level-l subtree; the
// source's low digits pick among the pow[l] parallel links. At l = 0 this is
// dst itself — the node's unique terminal link, where hot-spot traffic
// converges.
func (f *FatTreeNet) downWire(src, dst, l int) int {
	b := f.pow[l]
	return dst - dst%b + src%b
}

// Stage identifiers: stage l in [0, levels) is the up-link at level l;
// stage levels+l is the down-link at level l.

// Transit routes a packet up to the LCA and down, reserving each link.
func (f *FatTreeNet) Transit(now int64, src, dst, bytes int) int64 {
	if src == dst {
		return now
	}
	f.checkRoute(src, dst)
	f.stats.Packets++
	svc := f.serviceNs(bytes)
	t := now
	h := f.lcaHeight(src, dst)
	for l := 0; l < h; l++ {
		start := f.reserveHop(l, f.upWire(src, dst, l), t, svc)
		t = start + f.hopNs
	}
	for l := h - 1; l >= 0; l-- {
		start := f.reserveHop(f.levels+l, f.downWire(src, dst, l), t, svc)
		t = start + f.hopNs
	}
	return t + svc
}

// PathPorts reports the (stage, link) pairs a src->dst packet occupies.
func (f *FatTreeNet) PathPorts(src, dst int) [][2]int {
	return f.pathAppend(src, dst, nil)
}

func (f *FatTreeNet) pathAppend(src, dst int, buf [][2]int) [][2]int {
	if src == dst {
		return buf
	}
	f.checkRoute(src, dst)
	h := f.lcaHeight(src, dst)
	for l := 0; l < h; l++ {
		buf = append(buf, [2]int{l, f.upWire(src, dst, l)})
	}
	for l := h - 1; l >= 0; l-- {
		buf = append(buf, [2]int{f.levels + l, f.downWire(src, dst, l)})
	}
	return buf
}

// reserveHop books one hop. Link id stage*size + w is the reservation
// calendar of one of the parallel links between level l and level l+1
// (stage l going up, stage levels+l coming down), indexed by wire position
// w: the link's subtree base plus the digit-selected parallel offset.
func (f *FatTreeNet) reserveHop(stage, link int, t, svc int64) int64 {
	return f.reserve(stage*f.size+link, stage, link, t, svc)
}

func (f *FatTreeNet) hopLatencyNs(int) int64 { return f.hopNs }
