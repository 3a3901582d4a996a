// Package calendar provides a time-reservation calendar for single-capacity
// servers (memory modules, switch ports) in the discrete-event model.
//
// Higher layers charge whole inner loops in one engine event, booking server
// occupancy into the virtual future. A scalar busy-until would then starve
// any request that arrives later in wall-clock order but earlier in virtual
// time; the calendar instead keeps the set of reserved intervals and lets a
// request backfill the earliest gap at or after its arrival time, conserving
// capacity without false serialization.
package calendar

// interval is a half-open busy span [start, end).
type interval struct{ start, end int64 }

// Calendar tracks the reserved time of one unit-capacity server. The zero
// value is an empty calendar.
type Calendar struct {
	iv []interval // disjoint, sorted by start
	// hint remembers where the last reservation landed. Requests are close
	// to monotone per flow, so the next search usually resolves at or just
	// after the hint without a binary search.
	hint int
}

// Reserve books dur nanoseconds of server time at the earliest instant no
// earlier than t, and returns that start time. dur must be positive.
func (c *Calendar) Reserve(t, dur int64) int64 {
	if dur <= 0 {
		return t
	}
	// Fast path: booking at or after the end of the schedule (the common
	// case for per-flow monotone bookings).
	if n := len(c.iv); n == 0 || t >= c.iv[n-1].end {
		if n > 0 && c.iv[n-1].end == t {
			c.iv[n-1].end = t + dur
		} else {
			c.iv = append(c.iv, interval{t, t + dur})
		}
		c.hint = len(c.iv) - 1
		return t
	}
	i := c.searchEndAfter(t)
	start := t
	for ; i < len(c.iv); i++ {
		if start+dur <= c.iv[i].start {
			break // the gap before interval i fits
		}
		if c.iv[i].end > start {
			start = c.iv[i].end
		}
	}
	c.insert(i, start, start+dur)
	return start
}

// searchEndAfter returns the index of the first interval with end > t,
// starting from the hint when it is consistent and falling back to a binary
// search otherwise.
func (c *Calendar) searchEndAfter(t int64) int {
	iv := c.iv
	n := len(iv)
	if h := c.hint; h >= 0 && h < n && (h == 0 || iv[h-1].end <= t) {
		// The answer is at or after the hint; scan a few steps before giving
		// up on locality.
		for i := h; i < n && i < h+8; i++ {
			if iv[i].end > t {
				return i
			}
		}
		lo, hi := h+8, n
		if lo > hi {
			return n
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if iv[mid].end > t {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if iv[mid].end > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ReserveRun books a chain of n reservations of dur nanoseconds each, where
// the first request arrives at t and each subsequent request arrives gap
// nanoseconds after the previous reservation's end — the word-at-a-time
// remote reference pattern (fixed network round trip between words). It is
// an exact fold of n sequential Reserve calls and returns the start of the
// last reservation plus the total queueing delay across the run.
func (c *Calendar) ReserveRun(t, dur, gap int64, n int) (lastStart, totalWait int64) {
	if n <= 0 || dur <= 0 {
		return t, 0
	}
	// Fast path: the whole run lands at or beyond the schedule tail, so
	// every request is granted at its arrival time.
	if m := len(c.iv); m == 0 || t >= c.iv[m-1].end {
		if m > 0 && c.iv[m-1].end == t {
			c.iv[m-1].end = t + dur
		} else {
			c.iv = append(c.iv, interval{t, t + dur})
		}
		if gap == 0 {
			c.iv[len(c.iv)-1].end = t + int64(n)*dur
		} else {
			stride := dur + gap
			for i := 1; i < n; i++ {
				s := t + int64(i)*stride
				c.iv = append(c.iv, interval{s, s + dur})
			}
		}
		c.hint = len(c.iv) - 1
		return t + int64(n-1)*(dur+gap), 0
	}
	req := t
	for i := 0; i < n; i++ {
		s := c.Reserve(req, dur)
		totalWait += s - req
		lastStart = s
		req = s + dur + gap
	}
	return lastStart, totalWait
}

// BatchCalendar is a Calendar that can also place a batch of reservations
// against its frozen schedule and splice them in with one merge pass (see
// BeginBatch). Memory modules batch a sweep's bookings; switch links never
// batch, so they carry only the plain Calendar's schedule.
type BatchCalendar struct {
	Calendar
	// batchIv collects reservations placed against the frozen schedule;
	// batchIdx is the monotone walk cursor.
	batchIv  []interval
	batchIdx int
	inBatch  bool
}

// BeginBatch starts a placement batch: reservations made with BatchReserve
// are placed against the current schedule without mutating it and spliced in
// all at once by CommitBatchScratch. A batch requires a monotone flow — each
// request must arrive at or after the previous batch reservation's end —
// which guarantees the batch's own pending reservations can never constrain
// a later placement, so placing against the frozen schedule is exact.
// Repeated single inserts each shift the schedule tail; a batch of k
// reservations into a schedule of m intervals costs one O(m+k) merge
// instead of k shifts.
func (c *BatchCalendar) BeginBatch() {
	c.batchIv = c.batchIv[:0]
	c.batchIdx = -1
	c.inBatch = true
}

// InBatch reports whether a batch is open.
func (c *BatchCalendar) InBatch() bool { return c.inBatch }

// BatchReserve books dur nanoseconds at the earliest instant no earlier
// than t within the open batch and returns that start. t must be no earlier
// than the end of the batch's previous reservation.
func (c *BatchCalendar) BatchReserve(t, dur int64) int64 {
	if dur <= 0 {
		return t
	}
	idx := c.batchIdx
	if idx < 0 {
		idx = c.searchEndAfter(t)
	}
	iv := c.iv
	start := t
	for idx < len(iv) {
		if start+dur <= iv[idx].start {
			break // the gap before interval idx fits
		}
		if iv[idx].end > start {
			start = iv[idx].end
		}
		// This interval now ends at or before start, so it can never matter
		// again: later arrivals in the (monotone) batch are >= start+dur.
		idx++
	}
	c.batchIdx = idx
	if m := len(c.batchIv); m > 0 && c.batchIv[m-1].end == start {
		c.batchIv[m-1].end = start + dur
	} else {
		c.batchIv = append(c.batchIv, interval{start, start + dur})
	}
	return start
}

// BatchReserveRun is ReserveRun within the open batch: n chained requests
// of dur nanoseconds, each arriving gap nanoseconds after the previous
// reservation's end.
func (c *BatchCalendar) BatchReserveRun(t, dur, gap int64, n int) (lastStart, totalWait int64) {
	if n <= 0 || dur <= 0 {
		return t, 0
	}
	req := t
	for i := 0; i < n; i++ {
		s := c.BatchReserve(req, dur)
		totalWait += s - req
		lastStart = s
		req = s + dur + gap
	}
	return lastStart, totalWait
}

// Scratch is reusable merge scratch for CommitBatchScratch. One Scratch may
// be shared by any number of calendars whose commits are sequential (e.g.
// all memory modules of one machine), so each machine grows one buffer
// instead of one per module.
type Scratch struct{ buf []interval }

// CommitBatchScratch splices the batch's reservations into the schedule
// with a single merge pass, using s as merge scratch, and closes the batch.
// Only the window of existing intervals that interleave with the batch's
// time range is merged element-wise; the untouched suffix moves with one
// bulk copy.
func (c *BatchCalendar) CommitBatchScratch(s *Scratch) {
	scratch := &s.buf
	news := c.batchIv
	c.inBatch = false
	if len(news) == 0 {
		return
	}
	lo := c.searchEndAfter(news[0].start)
	lastEnd := news[len(news)-1].end
	// hi is the first interval at or past the batch's range: intervals from
	// there on cannot interleave with it (at most touch, handled below).
	hi := lo
	for hi < len(c.iv) && hi < lo+8 && c.iv[hi].start < lastEnd {
		hi++
	}
	if hi == lo+8 && hi < len(c.iv) && c.iv[hi].start < lastEnd {
		x, y := hi, len(c.iv)
		for x < y {
			mid := int(uint(x+y) >> 1)
			if c.iv[mid].start < lastEnd {
				x = mid + 1
			} else {
				y = mid
			}
		}
		hi = x
	}
	var merged []interval
	if lo == hi {
		// No existing interval interleaves with the batch's range (the common
		// case: the batch lands in open schedule); insert the block verbatim.
		merged = news
	} else {
		// Merge the window and the new intervals (both sorted, mutually
		// disjoint), coalescing touching spans exactly as repeated insert
		// would. Once one side runs out, the other's remainder is already
		// coalesced internally and moves with a single bulk copy.
		window := c.iv[lo:hi]
		if maxLen := len(window) + len(news); cap(*scratch) < maxLen {
			*scratch = make([]interval, 0, maxLen+maxLen/2)
		}
		merged = (*scratch)[:cap(*scratch)]
		k := 0
		wi, ni := 0, 0
		for wi < len(window) && ni < len(news) {
			var v interval
			if news[ni].start < window[wi].start {
				v = news[ni]
				ni++
			} else {
				v = window[wi]
				wi++
			}
			if k > 0 && merged[k-1].end == v.start {
				merged[k-1].end = v.end
			} else {
				merged[k] = v
				k++
			}
		}
		if rem := news[ni:]; len(rem) > 0 {
			if k > 0 && merged[k-1].end == rem[0].start {
				merged[k-1].end = rem[0].end
				rem = rem[1:]
			}
			k += copy(merged[k:], rem)
		}
		if rem := window[wi:]; len(rem) > 0 {
			if k > 0 && merged[k-1].end == rem[0].start {
				merged[k-1].end = rem[0].end
				rem = rem[1:]
			}
			k += copy(merged[k:], rem)
		}
		merged = merged[:k]
	}
	// Coalesce across the window boundaries, as repeated insert would.
	if lo > 0 && c.iv[lo-1].end == merged[0].start {
		c.iv[lo-1].end = merged[0].end
		merged = merged[1:]
	}
	if hi < len(c.iv) {
		if m := len(merged); m > 0 {
			if merged[m-1].end == c.iv[hi].start {
				merged[m-1].end = c.iv[hi].end
				hi++
			}
		} else if c.iv[lo-1].end == c.iv[hi].start {
			// The whole batch collapsed into iv[lo-1], bridging it to iv[hi].
			c.iv[lo-1].end = c.iv[hi].end
			hi++
		}
	}
	// Splice: iv = iv[:lo] + merged + iv[hi:], moving the suffix once.
	tailLen := len(c.iv) - hi
	need := lo + len(merged) + tailLen
	if need <= cap(c.iv) {
		old := c.iv
		c.iv = c.iv[:need]
		copy(c.iv[lo+len(merged):], old[hi:hi+tailLen])
		copy(c.iv[lo:], merged)
	} else {
		grown := append(make([]interval, 0, need+need/2), c.iv[:lo]...)
		grown = append(grown, merged...)
		grown = append(grown, c.iv[hi:]...)
		c.iv = grown
	}
	// The next reservation in this flow lands at or after the batch's last
	// placement, which sits at the end of the merged window.
	if h := lo + len(merged) - 1; h >= 0 {
		c.hint = h
	} else {
		c.hint = 0
	}
}

// insert places [s,e) before index i, merging with adjacent neighbours.
func (c *Calendar) insert(i int, s, e int64) {
	mergePrev := i > 0 && c.iv[i-1].end == s
	mergeNext := i < len(c.iv) && c.iv[i].start == e
	switch {
	case mergePrev && mergeNext:
		c.iv[i-1].end = c.iv[i].end
		c.iv = append(c.iv[:i], c.iv[i+1:]...)
	case mergePrev:
		c.iv[i-1].end = e
	case mergeNext:
		c.iv[i].start = s
	default:
		c.iv = append(c.iv, interval{})
		copy(c.iv[i+1:], c.iv[i:])
		c.iv[i] = interval{s, e}
	}
	if i < len(c.iv) {
		c.hint = i
	} else {
		c.hint = len(c.iv) - 1
	}
}

// PruneBefore discards reservations that end at or before t. It is safe to
// call with any lower bound on future arrival times (typically the engine's
// current virtual time).
func (c *Calendar) PruneBefore(t int64) {
	n := 0
	for n < len(c.iv) && c.iv[n].end <= t {
		n++
	}
	if n > 0 {
		c.iv = append(c.iv[:0], c.iv[n:]...)
		if c.hint -= n; c.hint < 0 {
			c.hint = 0
		}
	}
}

// Busy reports the total reserved time currently tracked (after pruning,
// i.e. roughly the backlog); used by tests.
func (c *Calendar) Busy() int64 {
	var total int64
	for _, iv := range c.iv {
		total += iv.end - iv.start
	}
	return total
}

// Spans reports the number of disjoint reserved intervals (tests/diagnostics).
func (c *Calendar) Spans() int { return len(c.iv) }
