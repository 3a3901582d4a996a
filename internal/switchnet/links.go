package switchnet

import "butterfly/internal/calendar"

// linkChunk is how many link calendars are allocated together.
const linkChunk = 64

// links holds the reservation calendars of a network's links, indexed by a
// flat link id each topology derives from its (stage, link) pairs. Calendars
// live in fixed-size chunks, and a chunk is allocated on its first
// reservation: building a large network costs one small table of chunk
// pointers, and a run pays only for the links it touches.
//
// No locking is needed: on a partitioned machine link calendars are touched
// only by the engine's coordinator at the window barrier (see
// machine/partition.go), never from inside a window.
type links struct {
	chunks []*[linkChunk]calendar.Calendar
}

// newLinks returns an empty set of n link calendars.
func newLinks(n int) links {
	return links{chunks: make([]*[linkChunk]calendar.Calendar, (n+linkChunk-1)/linkChunk)}
}

// at returns link id's calendar, allocating its chunk on first use. Ids are
// non-negative, so unsigned arithmetic keeps the chunk split to a shift and
// a mask on the per-hop path.
func (l *links) at(id int) *calendar.Calendar {
	i := uint(id)
	c := l.chunks[i/linkChunk]
	if c == nil {
		c = new([linkChunk]calendar.Calendar)
		l.chunks[i/linkChunk] = c
	}
	return &c[i%linkChunk]
}

// prune discards reservations that ended before now, skipping chunks no
// packet has touched.
func (l *links) prune(now int64) {
	for _, c := range l.chunks {
		if c == nil {
			continue
		}
		for i := range c {
			c[i].PruneBefore(now)
		}
	}
}
