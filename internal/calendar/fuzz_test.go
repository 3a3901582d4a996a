package calendar

import (
	"math/rand"
	"testing"
)

// refCalendar is the obviously-correct model: a sorted slice of disjoint
// half-open intervals with naive linear placement and insertion. The real
// Calendar's hinted search, run folding, and batch splicing must agree with
// it on every operation.
type refCalendar struct {
	iv []interval
}

func (r *refCalendar) reserve(t, dur int64) int64 {
	if dur <= 0 {
		return t
	}
	start := t
	for _, v := range r.iv {
		if v.end <= start {
			continue
		}
		if start+dur <= v.start {
			break
		}
		start = v.end
	}
	// Insert [start, start+dur) keeping the slice sorted and coalesced.
	i := 0
	for i < len(r.iv) && r.iv[i].start < start {
		i++
	}
	r.iv = append(r.iv, interval{})
	copy(r.iv[i+1:], r.iv[i:])
	r.iv[i] = interval{start, start + dur}
	// Coalesce touching neighbours.
	out := r.iv[:1]
	for _, v := range r.iv[1:] {
		if last := &out[len(out)-1]; last.end == v.start {
			last.end = v.end
		} else {
			out = append(out, v)
		}
	}
	r.iv = out
	return start
}

func (r *refCalendar) reserveRun(t, dur, gap int64, n int) (lastStart, totalWait int64) {
	if n <= 0 || dur <= 0 {
		return t, 0
	}
	req := t
	for i := 0; i < n; i++ {
		s := r.reserve(req, dur)
		totalWait += s - req
		lastStart = s
		req = s + dur + gap
	}
	return lastStart, totalWait
}

func (r *refCalendar) pruneBefore(t int64) {
	n := 0
	for n < len(r.iv) && r.iv[n].end <= t {
		n++
	}
	r.iv = append(r.iv[:0], r.iv[n:]...)
}

func (r *refCalendar) busy() int64 {
	var total int64
	for _, v := range r.iv {
		total += v.end - v.start
	}
	return total
}

// driveOps feeds one pseudo-random operation sequence to a BatchCalendar and the
// reference model and fails on the first divergence. Arrival times are kept
// at or after the prune floor, matching PruneBefore's contract.
func driveOps(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	var cal BatchCalendar
	var scratch Scratch
	var ref refCalendar
	var floor int64 // monotone lower bound on future arrivals
	check := func(op string, got, want int64) {
		t.Helper()
		if got != want {
			t.Fatalf("%s diverged: calendar %d, model %d", op, got, want)
		}
		if cal.Busy() != ref.busy() || cal.Spans() != len(ref.iv) {
			t.Fatalf("after %s: calendar busy=%d spans=%d, model busy=%d spans=%d",
				op, cal.Busy(), cal.Spans(), ref.busy(), len(ref.iv))
		}
	}
	arrival := func() int64 { return floor + rng.Int63n(2000) }
	for i := 0; i < ops; i++ {
		switch rng.Intn(5) {
		case 0, 1: // single reservation (two slots: the most common op)
			at, dur := arrival(), 1+rng.Int63n(50)
			check("Reserve", cal.Reserve(at, dur), ref.reserve(at, dur))
		case 2: // chained run, possibly with gaps
			at, dur, gap, n := arrival(), 1+rng.Int63n(30), rng.Int63n(3)*rng.Int63n(40), 1+rng.Intn(6)
			gs, gw := cal.ReserveRun(at, dur, gap, n)
			ws, ww := ref.reserveRun(at, dur, gap, n)
			if gw != ww {
				t.Fatalf("ReserveRun wait diverged: calendar %d, model %d", gw, ww)
			}
			check("ReserveRun", gs, ws)
		case 3: // batch: a monotone flow placed against a frozen schedule
			cal.BeginBatch()
			k := 1 + rng.Intn(8)
			at := arrival()
			starts := make([]int64, 0, k)
			durs := make([]int64, 0, k)
			for j := 0; j < k; j++ {
				dur := 1 + rng.Int63n(40)
				s := cal.BatchReserve(at, dur)
				starts = append(starts, s)
				durs = append(durs, dur)
				at = s + dur + rng.Int63n(3)*rng.Int63n(60) // next arrival ≥ this end
			}
			cal.CommitBatchScratch(&scratch)
			// A committed batch must equal the same flow folded through the
			// model's sequential reserves.
			for j := range starts {
				if ws := ref.reserve(starts[j], durs[j]); ws != starts[j] {
					t.Fatalf("BatchReserve diverged: calendar start %d, model start %d", starts[j], ws)
				}
			}
			check("CommitBatchScratch", 0, 0)
		case 4: // advance the clock and prune history
			floor += rng.Int63n(500)
			cal.PruneBefore(floor)
			ref.pruneBefore(floor)
			check("PruneBefore", 0, 0)
		}
	}
}

// TestCalendarRandomAgainstModel drives many independent random op sequences
// through Calendar and the reference model.
func TestCalendarRandomAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		driveOps(t, rng, 300)
	}
}

// FuzzCalendar lets the fuzzer pick the seed and sequence length; `go test`
// runs the seed corpus, `go test -fuzz=FuzzCalendar` explores.
func FuzzCalendar(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(42), uint16(400))
	f.Add(int64(-7), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		driveOps(t, rand.New(rand.NewSource(seed)), int(ops)%1024)
	})
}
