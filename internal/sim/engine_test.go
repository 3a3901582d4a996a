package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleProcAdvance(t *testing.T) {
	e := New()
	var end int64
	e.Spawn("p", 0, func(p *Proc) {
		p.Advance(100)
		p.Advance(250)
		end = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 350 {
		t.Errorf("end time = %d, want 350", end)
	}
	if got := e.Now(); got != 350 {
		t.Errorf("engine Now = %d, want 350", got)
	}
}

func TestInterleavingOrder(t *testing.T) {
	e := New()
	var order []string
	mark := func(s string) { order = append(order, fmt.Sprintf("%s@%d", s, e.Now())) }
	e.Spawn("a", 0, func(p *Proc) {
		p.Advance(10)
		mark("a1")
		p.Advance(30) // resumes at 40
		mark("a2")
	})
	e.Spawn("b", 0, func(p *Proc) {
		p.Advance(20)
		mark("b1")
		p.Advance(5) // resumes at 25
		mark("b2")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a1@10", "b1@20", "b2@25", "a2@40"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, order[i], want[i])
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	// Processes scheduled at the same instant run in spawn (FIFO) order.
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
			p.Advance(100)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	e := New()
	var waiterResumedAt int64
	var waiter *Proc
	waiter = e.Spawn("waiter", 0, func(p *Proc) {
		p.Block("test condition")
		waiterResumedAt = e.Now()
	})
	e.Spawn("waker", 0, func(p *Proc) {
		p.Advance(500)
		e.Unblock(p, waiter, 25)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if waiterResumedAt != 525 {
		t.Errorf("waiter resumed at %d, want 525", waiterResumedAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	e.Spawn("lonely", 3, func(p *Proc) {
		p.Advance(7)
		p.Block("a post that never comes")
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run error = %v, want DeadlockError", err)
	}
	if de.Now != 7 {
		t.Errorf("deadlock at %d, want 7", de.Now)
	}
	if len(de.Blocked) != 1 || de.Blocked[0].Name != "lonely" || de.Blocked[0].Node != 3 {
		t.Errorf("blocked = %+v", de.Blocked)
	}
	if de.Blocked[0].Reason != "a post that never comes" {
		t.Errorf("reason = %q", de.Blocked[0].Reason)
	}
}

func TestSpawnFromInside(t *testing.T) {
	e := New()
	var childEnd int64
	e.Spawn("parent", 0, func(p *Proc) {
		p.Advance(100)
		e.Spawn("child", 1, func(c *Proc) {
			c.Advance(50)
			childEnd = e.Now()
		})
		p.Advance(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if childEnd != 150 {
		t.Errorf("child end = %d, want 150", childEnd)
	}
	if e.Stats().Spawned != 2 || e.Stats().Completed != 2 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestExit(t *testing.T) {
	e := New()
	reached := false
	e.Spawn("quitter", 0, func(p *Proc) {
		p.Advance(10)
		p.Exit()
		reached = true // must not run
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reached {
		t.Error("code after Exit executed")
	}
	if e.Stats().Completed != 1 {
		t.Errorf("completed = %d, want 1", e.Stats().Completed)
	}
}

func TestYieldFairness(t *testing.T) {
	// Two processes yielding at the same instant alternate.
	e := New()
	var order []string
	e.Spawn("a", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			p.Yield()
		}
	})
	e.Spawn("b", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			p.Yield()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := New()
	q := NewWaitQueue("q")
	var woken []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		e.Spawn(name, 0, func(p *Proc) {
			q.Wait(p)
			woken = append(woken, name)
		})
	}
	e.Spawn("waker", 0, func(p *Proc) {
		p.Advance(10)
		for q.WakeOne(p, 1) {
			p.Advance(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"x", "y", "z"}
	for i := range want {
		if woken[i] != want[i] {
			t.Fatalf("woken = %v, want %v", woken, want)
		}
	}
}

func TestWaitQueueWakeAll(t *testing.T) {
	e := New()
	q := NewWaitQueue("barrier")
	count := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) {
			q.Wait(p)
			count++
		})
	}
	e.Spawn("waker", 0, func(p *Proc) {
		p.Advance(100)
		if n := q.WakeAll(p, 0); n != 5 {
			t.Errorf("WakeAll woke %d, want 5", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestWaitQueueRemove(t *testing.T) {
	e := New()
	q := NewWaitQueue("q")
	var victim *Proc
	victimRan := false
	victim = e.Spawn("victim", 0, func(p *Proc) {
		q.Wait(p)
		victimRan = true
	})
	e.Spawn("canceller", 0, func(p *Proc) {
		p.Advance(10)
		if !q.Remove(victim) {
			t.Error("Remove returned false")
		}
		if q.Remove(victim) {
			t.Error("second Remove returned true")
		}
		e.Unblock(p, victim, 0) // wake it outside the queue
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !victimRan {
		t.Error("victim never resumed")
	}
	if q.Len() != 0 {
		t.Errorf("queue len = %d, want 0", q.Len())
	}
}

func TestDeterminism(t *testing.T) {
	// The same randomized program produces the identical event trace on
	// every run: the engine must be deterministic.
	run := func(seed int64) []string {
		e := New()
		var trace []string
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			i := i
			delays := make([]int64, 10)
			for j := range delays {
				delays[j] = int64(rng.Intn(1000))
			}
			e.Spawn(fmt.Sprintf("p%d", i), i%4, func(p *Proc) {
				for _, d := range delays {
					p.Advance(d)
					trace = append(trace, fmt.Sprintf("%d@%d", i, e.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestAdvanceClockMonotonic(t *testing.T) {
	// Property: for random advance sequences across many procs, observed
	// times are monotonically non-decreasing.
	check := func(seed int64) bool {
		e := New()
		var times []int64
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			n := 5 + rng.Intn(10)
			ds := make([]int64, n)
			for j := range ds {
				ds[j] = int64(rng.Intn(500))
			}
			e.Spawn("p", 0, func(p *Proc) {
				for _, d := range ds {
					p.Advance(d)
					times = append(times, e.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := New()
	panicked := make(chan bool, 1)
	e.Spawn("bad", 0, func(p *Proc) {
		defer func() {
			panicked <- recover() != nil
			p.Exit()
		}()
		p.Advance(-1)
	})
	_ = e.Run()
	select {
	case ok := <-panicked:
		if !ok {
			t.Error("Advance(-1) did not panic")
		}
	default:
		t.Error("process never reported")
	}
}

func TestTimeHelpers(t *testing.T) {
	if Seconds(2_500_000_000) != 2.5 {
		t.Errorf("Seconds wrong")
	}
	if Micros(4_000) != 4.0 {
		t.Errorf("Micros wrong")
	}
	if 3*Millisecond != 3_000_000 || 2*Second != 2_000_000_000 {
		t.Errorf("constants wrong")
	}
}

func TestProcAccessors(t *testing.T) {
	e := New()
	p := e.Spawn("acc", 2, func(p *Proc) {
		p.Advance(11)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !p.Done() {
		t.Error("proc not done")
	}
	s, f := p.Lifetime()
	if s != 0 || f != 11 {
		t.Errorf("lifetime = (%d,%d), want (0,11)", s, f)
	}
	if p.Engine() != e {
		t.Error("Engine() mismatch")
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := New()
	e.Spawn("once", 0, func(p *Proc) { p.Advance(5) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	_ = e.Run()
}

// TestTrapPanics: in trapped mode a real panic in a process body aborts the
// run with an error naming the process, instead of crashing the host; other
// processes are torn down, not left running.
func TestTrapPanics(t *testing.T) {
	e := New()
	e.TrapPanics()
	var survived bool
	e.Spawn("bystander", 0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(10)
		}
		survived = true
	})
	e.Spawn("victim", 1, func(p *Proc) {
		p.Advance(5)
		panic("index out of range")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil after a process panicked")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "victim") {
		t.Errorf("trap error = %q, want process name and panic marker", err)
	}
	if survived {
		t.Error("bystander ran to completion during an aborted run")
	}
}
