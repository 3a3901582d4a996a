package calendar

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestCalendarCarriesOnlyItsSchedule pins the size of a plain Calendar: a
// large machine holds tens of thousands of switch-link calendars, and the
// batch state only memory modules use lives in BatchCalendar.
func TestCalendarCarriesOnlyItsSchedule(t *testing.T) {
	if got := unsafe.Sizeof(Calendar{}); got != 32 {
		t.Errorf("sizeof(Calendar) = %d bytes, want 32 (the interval slice and the hint)", got)
	}
}

func TestReserveEmpty(t *testing.T) {
	var c Calendar
	if got := c.Reserve(100, 50); got != 100 {
		t.Errorf("Reserve = %d, want 100", got)
	}
	if c.Busy() != 50 || c.Spans() != 1 {
		t.Errorf("busy=%d spans=%d", c.Busy(), c.Spans())
	}
}

func TestReserveQueuesBehindConflict(t *testing.T) {
	var c Calendar
	c.Reserve(100, 50) // [100,150)
	if got := c.Reserve(120, 10); got != 150 {
		t.Errorf("conflicting reserve = %d, want 150", got)
	}
}

func TestBackfillGap(t *testing.T) {
	var c Calendar
	c.Reserve(0, 10)    // [0,10)
	c.Reserve(1000, 10) // [1000,1010)
	// A later call for an earlier time must backfill the gap.
	if got := c.Reserve(20, 10); got != 20 {
		t.Errorf("backfill = %d, want 20", got)
	}
	// A request too big for the gap skips past it.
	if got := c.Reserve(35, 2000); got != 1010 {
		t.Errorf("oversized = %d, want 1010", got)
	}
}

func TestMergeAdjacent(t *testing.T) {
	var c Calendar
	c.Reserve(0, 10)
	c.Reserve(10, 10)
	c.Reserve(20, 10)
	if c.Spans() != 1 || c.Busy() != 30 {
		t.Errorf("spans=%d busy=%d, want 1/30", c.Spans(), c.Busy())
	}
}

func TestPrune(t *testing.T) {
	var c Calendar
	c.Reserve(0, 10)
	c.Reserve(100, 10)
	c.PruneBefore(50)
	if c.Spans() != 1 || c.Busy() != 10 {
		t.Errorf("after prune: spans=%d busy=%d", c.Spans(), c.Busy())
	}
}

func TestZeroDur(t *testing.T) {
	var c Calendar
	if got := c.Reserve(5, 0); got != 5 {
		t.Errorf("zero-dur reserve = %d", got)
	}
	if c.Spans() != 0 {
		t.Error("zero-dur reserved capacity")
	}
}

func TestNoOverlapProperty(t *testing.T) {
	// Property: random reservations never overlap, and total busy time
	// equals the sum of requested durations.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c Calendar
		type got struct{ s, e int64 }
		var all []got
		var sum int64
		for i := 0; i < 300; i++ {
			t0 := int64(rng.Intn(5000))
			d := int64(1 + rng.Intn(40))
			s := c.Reserve(t0, d)
			if s < t0 {
				return false // started before arrival
			}
			all = append(all, got{s, s + d})
			sum += d
		}
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if all[i].s < all[j].e && all[j].s < all[i].e {
					return false // overlap
				}
			}
		}
		return c.Busy() == sum
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationStaysReasonable(t *testing.T) {
	// Two interleaved flows at 50% aggregate utilization must not serialize.
	var c Calendar
	var maxDelay int64
	for i := int64(0); i < 1000; i++ {
		d := c.Reserve(i*20, 5) - i*20
		if d > maxDelay {
			maxDelay = d
		}
	}
	for i := int64(0); i < 1000; i++ {
		d := c.Reserve(i*20+3, 5) - (i*20 + 3)
		if d > maxDelay {
			maxDelay = d
		}
	}
	if maxDelay > 10 {
		t.Errorf("max delay %d at 50%% load; calendar serializes", maxDelay)
	}
}
