package memory

import (
	"errors"
	"fmt"
)

// Butterfly-I segmented virtual memory constants (§2.1 of the paper).
const (
	// SARsPerNode is the number of Segment Attribute Registers per processor.
	SARsPerNode = 512
	// MinSARBlock is the smallest allocatable block of SARs; blocks come in
	// sizes 8, 16, 32, 64, 128, 256 arranged in a buddy system.
	MinSARBlock = 8
	// MaxSARBlock is the largest SAR block (and the maximum number of
	// segments in one process's address space).
	MaxSARBlock = 256
	// MaxSegmentBytes is the largest segment a SAR can describe (16-bit
	// offsets).
	MaxSegmentBytes = 64 * 1024
)

// StandardSizes are the 16 standard memory-object sizes of Chrysalis
// (footnote 3 of the paper: "segments can only be allocated in 16 standard
// sizes", odd sizes round up, leaving an inaccessible fragment). The exact
// table is not published; this is a plausible reconstruction spanning 256 B
// to 64 KB.
var StandardSizes = []int{
	256, 512, 1024, 2048, 4096, 8192, 12288, 16384,
	20480, 24576, 32768, 40960, 49152, 57344, 61440, 65536,
}

// RoundSize rounds a requested object size up to the next standard size.
// It returns an error for sizes above 64 KB (a single Chrysalis memory
// object cannot exceed one segment).
func RoundSize(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("memory: negative size %d", n)
	}
	if n == 0 {
		return 0, nil // zero-length objects are legal in Chrysalis
	}
	for _, s := range StandardSizes {
		if n <= s {
			return s, nil
		}
	}
	return 0, fmt.Errorf("memory: object size %d exceeds the %d-byte segment limit", n, MaxSegmentBytes)
}

// ErrNoSARs is returned when the buddy pool cannot satisfy a block request.
var ErrNoSARs = errors.New("memory: out of SARs")

// SARPool is the per-node pool of 512 SARs, handed out in power-of-two buddy
// blocks of 8..256 registers. Chrysalis allocates each process a static block
// at creation; the block size (one of 8, 16, 32, 64, 128, 256) is encoded in
// the process's ASAR.
type SARPool struct {
	// freeByOrder[k] holds the start indices of free blocks of size
	// MinSARBlock<<k, for k in 0..5.
	freeByOrder [6][]int
	// allocated maps start -> order, for validation; made on the first
	// allocation, since most nodes of a large machine never allocate one.
	allocated map[int]int
}

// NewSARPool creates a full pool of SARsPerNode registers.
func NewSARPool() *SARPool { return &NewSARPools(1)[0] }

// NewSARPools creates n full pools with a constant number of allocations:
// the pools and their initial free lists are one slice each. A machine calls
// it once per chunk of nodes, when the chunk is first touched.
func NewSARPools(n int) []SARPool {
	const perPool = SARsPerNode / MaxSARBlock // 512 = 2 blocks of 256
	pools := make([]SARPool, n)
	starts := make([]int, n*perPool)
	top := len(pools[0].freeByOrder) - 1
	for i := range pools {
		// Each free list is capped at its own window of starts, so a list
		// that outgrows it reallocates instead of writing into a neighbour's.
		free := starts[i*perPool : i*perPool : (i+1)*perPool]
		for start := 0; start < SARsPerNode; start += MaxSARBlock {
			free = append(free, start)
		}
		pools[i].freeByOrder[top] = free
	}
	return pools
}

// orderFor returns the buddy order for a block of at least n SARs.
func orderFor(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("memory: bad SAR block size %d", n)
	}
	size := MinSARBlock
	for k := 0; k < 6; k++ {
		if n <= size {
			return k, nil
		}
		size <<= 1
	}
	return 0, fmt.Errorf("memory: SAR block size %d exceeds %d", n, MaxSARBlock)
}

// BlockSizeFor reports the actual block size allocated for a request of n
// segments (the next power-of-two multiple of 8, at least 8, at most 256).
func BlockSizeFor(n int) (int, error) {
	k, err := orderFor(n)
	if err != nil {
		return 0, err
	}
	return MinSARBlock << k, nil
}

// Alloc reserves a buddy block with room for at least n SARs and returns its
// starting register index and actual size.
func (p *SARPool) Alloc(n int) (start, size int, err error) {
	k, err := orderFor(n)
	if err != nil {
		return 0, 0, err
	}
	// Find the smallest free order >= k, splitting down as needed.
	j := k
	for j < len(p.freeByOrder) && len(p.freeByOrder[j]) == 0 {
		j++
	}
	if j == len(p.freeByOrder) {
		return 0, 0, ErrNoSARs
	}
	// Pop the lowest-addressed block at order j for determinism.
	idx := minIndex(p.freeByOrder[j])
	start = p.freeByOrder[j][idx]
	p.freeByOrder[j] = append(p.freeByOrder[j][:idx], p.freeByOrder[j][idx+1:]...)
	for j > k {
		j--
		// Split: keep the low half, free the high half.
		buddy := start + MinSARBlock<<j
		p.freeByOrder[j] = append(p.freeByOrder[j], buddy)
	}
	if p.allocated == nil {
		p.allocated = make(map[int]int)
	}
	p.allocated[start] = k
	return start, MinSARBlock << k, nil
}

// Free returns a block to the pool, coalescing buddies.
func (p *SARPool) Free(start int) error {
	k, ok := p.allocated[start]
	if !ok {
		return fmt.Errorf("memory: SAR free of unallocated block at %d", start)
	}
	delete(p.allocated, start)
	for k < len(p.freeByOrder)-1 {
		size := MinSARBlock << k
		buddy := start ^ size
		found := -1
		for i, b := range p.freeByOrder[k] {
			if b == buddy {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		p.freeByOrder[k] = append(p.freeByOrder[k][:found], p.freeByOrder[k][found+1:]...)
		if buddy < start {
			start = buddy
		}
		k++
	}
	p.freeByOrder[k] = append(p.freeByOrder[k], start)
	return nil
}

// FreeSARs reports how many registers remain unallocated.
func (p *SARPool) FreeSARs() int {
	n := 0
	for k, blocks := range p.freeByOrder {
		n += len(blocks) * (MinSARBlock << k)
	}
	return n
}

func minIndex(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// AddressSpace models one process's segment map: a SAR block plus the set of
// currently mapped memory objects. Mapping and unmapping are the operations
// whose ~1 ms cost (§2.1) forced Butterfly programmers to manage address
// spaces explicitly; the time is charged by the Chrysalis layer.
type AddressSpace struct {
	pool     *SARPool
	start    int // SAR block start
	capacity int // SAR block size
	segments map[int]*Segment
	nextSlot int
}

// Segment is one mapped memory object view.
type Segment struct {
	Slot   int // SAR index within the process's block
	Node   int // node whose module holds the object
	Offset int // byte offset within the module
	Bytes  int // rounded (standard) size
}

// NewAddressSpace allocates a SAR block of at least nSegs segments from the
// pool. The paper notes a process can have at most 256 segments.
func NewAddressSpace(pool *SARPool, nSegs int) (*AddressSpace, error) {
	start, size, err := pool.Alloc(nSegs)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{
		pool:     pool,
		start:    start,
		capacity: size,
		segments: make(map[int]*Segment),
	}, nil
}

// Capacity returns the number of SARs in the process's block.
func (a *AddressSpace) Capacity() int { return a.capacity }

// Mapped returns the number of currently mapped segments.
func (a *AddressSpace) Mapped() int { return len(a.segments) }

// ErrAddressSpaceFull is returned when every SAR in the block is in use.
var ErrAddressSpaceFull = errors.New("memory: address space full (no free SAR)")

// Map installs a view of an object into the first free SAR slot and returns
// the slot index.
func (a *AddressSpace) Map(node, offset, bytes int) (int, error) {
	if len(a.segments) >= a.capacity {
		return 0, ErrAddressSpaceFull
	}
	// First free slot, scanning from nextSlot for O(1) amortized behaviour.
	for i := 0; i < a.capacity; i++ {
		slot := (a.nextSlot + i) % a.capacity
		if _, used := a.segments[slot]; !used {
			a.segments[slot] = &Segment{Slot: slot, Node: node, Offset: offset, Bytes: bytes}
			a.nextSlot = (slot + 1) % a.capacity
			return slot, nil
		}
	}
	return 0, ErrAddressSpaceFull
}

// Unmap removes the segment in the given slot.
func (a *AddressSpace) Unmap(slot int) error {
	if _, ok := a.segments[slot]; !ok {
		return fmt.Errorf("memory: unmap of empty slot %d", slot)
	}
	delete(a.segments, slot)
	return nil
}

// Segment returns the mapping in a slot, or nil.
func (a *AddressSpace) Segment(slot int) *Segment { return a.segments[slot] }

// Release returns the SAR block to the pool. The address space must not be
// used afterwards.
func (a *AddressSpace) Release() error {
	return a.pool.Free(a.start)
}
