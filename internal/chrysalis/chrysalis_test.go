package chrysalis

import (
	"testing"

	"butterfly/internal/machine"
	"butterfly/internal/memory"
	"butterfly/internal/sim"
)

// boot builds a small machine + OS and one root process on node 0, runs body
// inside it, then runs the simulation.
func boot(t *testing.T, nodes int, body func(os *OS, self *Process)) *OS {
	t.Helper()
	m := machine.New(machine.DefaultConfig(nodes))
	os := New(m)
	if _, err := os.MakeProcess(nil, "root", 0, 16, func(self *Process) {
		body(os, self)
	}); err != nil {
		t.Fatalf("MakeProcess: %v", err)
	}
	if err := m.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return os
}

func TestEventPostThenWait(t *testing.T) {
	boot(t, 4, func(os *OS, self *Process) {
		ev := os.NewEvent(self)
		ev.Post(self.P, 42)
		if !ev.Posted() {
			t.Error("event not posted")
		}
		if got := ev.Wait(self.P); got != 42 {
			t.Errorf("datum = %d, want 42", got)
		}
		if ev.Posted() {
			t.Error("event still posted after wait")
		}
	})
}

func TestEventWaitThenPost(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	os := New(m)
	var got uint32
	var when int64
	owner, err := os.MakeProcess(nil, "owner", 0, 16, func(self *Process) {
		ev := os.NewEvent(self)
		// Expose the event through the global name space.
		os.MakeProcess(self.P, "poster", 1, 16, func(other *Process) {
			other.P.Advance(1 * sim.Millisecond)
			ev.Post(other.P, 7)
		})
		got = ev.Wait(self.P)
		when = m.E.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = owner
	if err := m.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 7 {
		t.Errorf("datum = %d, want 7", got)
	}
	if when < 1*sim.Millisecond {
		t.Errorf("owner woke at %d, before the post", when)
	}
}

func TestEventOnlyOwnerWaits(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	os := New(m)
	panicked := false
	owner, _ := os.MakeProcess(nil, "owner", 0, 16, func(self *Process) {
		self.P.Advance(10 * sim.Millisecond)
	})
	ev := os.NewEvent(owner)
	os.MakeProcess(nil, "thief", 1, 16, func(other *Process) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
			other.P.Exit()
		}()
		ev.Wait(other.P)
	})
	_ = m.E.Run()
	if !panicked {
		t.Error("non-owner wait did not panic")
	}
}

func TestEventDoublePostOverwrites(t *testing.T) {
	boot(t, 2, func(os *OS, self *Process) {
		ev := os.NewEvent(self)
		ev.Post(self.P, 1)
		ev.Post(self.P, 2)
		if got := ev.Wait(self.P); got != 2 {
			t.Errorf("datum = %d, want 2 (binary semantics)", got)
		}
	})
}

func TestDualQueueBuffersData(t *testing.T) {
	boot(t, 4, func(os *OS, self *Process) {
		q := os.NewDualQueue(0, self.Root)
		for i := uint32(0); i < 5; i++ {
			q.Enqueue(self.P, i*10)
		}
		if q.Len() != 5 {
			t.Errorf("len = %d, want 5", q.Len())
		}
		for i := uint32(0); i < 5; i++ {
			if got := q.Dequeue(self.P); got != i*10 {
				t.Errorf("dequeue %d = %d, want %d", i, got, i*10)
			}
		}
	})
}

func TestDualQueueBuffersWaiters(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	os := New(m)
	var got []uint32
	root, _ := os.MakeProcess(nil, "root", 0, 16, func(self *Process) {
		self.P.Advance(1)
	})
	q := os.NewDualQueue(0, root.Root)
	for i := 0; i < 3; i++ {
		os.MakeProcess(nil, "waiter", 1+i, 16, func(pr *Process) {
			got = append(got, q.Dequeue(pr.P))
		})
	}
	os.MakeProcess(nil, "producer", 0, 16, func(pr *Process) {
		pr.P.Advance(5 * sim.Millisecond) // let all three block
		if q.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", q.Waiters())
		}
		q.Enqueue(pr.P, 100)
		q.Enqueue(pr.P, 200)
		q.Enqueue(pr.P, 300)
	})
	if err := m.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []uint32{100, 200, 300} // FIFO: first waiter gets first datum
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

func TestDualQueueTryDequeue(t *testing.T) {
	boot(t, 2, func(os *OS, self *Process) {
		q := os.NewDualQueue(0, self.Root)
		if _, ok := q.TryDequeue(self.P); ok {
			t.Error("TryDequeue on empty queue returned ok")
		}
		q.Enqueue(self.P, 9)
		if d, ok := q.TryDequeue(self.P); !ok || d != 9 {
			t.Errorf("TryDequeue = %d,%v", d, ok)
		}
	})
}

func TestSpinLock(t *testing.T) {
	m := machine.New(machine.DefaultConfig(8))
	os := New(m)
	lock := os.NewSpinLock(0)
	counter := 0
	for i := 0; i < 4; i++ {
		os.MakeProcess(nil, "worker", i, 16, func(pr *Process) {
			for j := 0; j < 10; j++ {
				lock.Lock(pr.P)
				v := counter
				pr.P.Advance(5 * sim.Microsecond) // critical section
				counter = v + 1
				lock.Unlock(pr.P)
			}
		})
	}
	if err := m.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != 40 {
		t.Errorf("counter = %d, want 40 (mutual exclusion violated)", counter)
	}
}

func TestSpinLockUnlockByNonHolder(t *testing.T) {
	boot(t, 2, func(os *OS, self *Process) {
		lock := os.NewSpinLock(0)
		defer func() {
			if recover() == nil {
				t.Error("unlock of unheld lock did not panic")
			}
			self.P.Exit()
		}()
		lock.Unlock(self.P)
	})
}

func TestCatchThrow(t *testing.T) {
	boot(t, 2, func(os *OS, self *Process) {
		before := os.M.E.Now()
		caught := os.Catch(self.P, func() {
			self.P.Advance(1 * sim.Microsecond)
			os.Throw(self.P, 13, "segment violation")
			t.Error("code after throw executed")
		})
		if caught == nil || caught.Code != 13 {
			t.Fatalf("caught = %+v", caught)
		}
		if caught.Error() == "" {
			t.Error("empty error text")
		}
		// The protected block must have cost at least the 70 us entry/exit.
		if os.M.E.Now()-before < 70*sim.Microsecond {
			t.Errorf("catch block too cheap: %d ns", os.M.E.Now()-before)
		}
	})
}

func TestCatchNormalPath(t *testing.T) {
	boot(t, 2, func(os *OS, self *Process) {
		ran := false
		if caught := os.Catch(self.P, func() { ran = true }); caught != nil {
			t.Errorf("unexpected catch: %v", caught)
		}
		if !ran {
			t.Error("body did not run")
		}
	})
}

func TestNestedCatch(t *testing.T) {
	boot(t, 2, func(os *OS, self *Process) {
		outer := os.Catch(self.P, func() {
			inner := os.Catch(self.P, func() {
				os.Throw(self.P, 1, "inner")
			})
			if inner == nil || inner.Code != 1 {
				t.Errorf("inner = %+v", inner)
			}
			os.Throw(self.P, 2, "outer")
		})
		if outer == nil || outer.Code != 2 {
			t.Errorf("outer = %+v", outer)
		}
	})
}

func TestMakeObjAndMap(t *testing.T) {
	boot(t, 4, func(os *OS, self *Process) {
		obj, err := os.MakeObj(self.P, 2, 5000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if obj.Size != 8192 { // rounded to standard size
			t.Errorf("size = %d, want 8192", obj.Size)
		}
		if os.Lookup(obj.ID) != obj {
			t.Error("lookup failed")
		}
		before := os.M.E.Now()
		slot, err := self.MapObj(obj)
		if err != nil {
			t.Fatal(err)
		}
		if os.M.E.Now()-before < 1*sim.Millisecond {
			t.Error("map cost under 1 ms")
		}
		seg := self.AS.Segment(slot)
		if seg == nil || seg.Node != 2 {
			t.Errorf("segment = %+v", seg)
		}
		if err := self.UnmapObj(slot); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOwnershipReclamation(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	os := New(m)
	var child *Object
	pr, err := os.MakeProcess(nil, "p", 0, 16, func(self *Process) {
		var err error
		child, err = os.MakeObj(self.P, 0, 1000, nil)
		if err != nil {
			t.Errorf("MakeObj: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.E.Run(); err != nil {
		t.Fatal(err)
	}
	free := os.M.Node(0).Mem.BytesFree()
	os.DestroyProcess(nil, pr)
	if os.Lookup(child.ID) != nil {
		t.Error("child object survived parent deletion")
	}
	if got := os.M.Node(0).Mem.BytesFree(); got != free+1024 {
		t.Errorf("storage not reclaimed: %d -> %d", free, got)
	}
}

func TestSystemOwnershipLeaks(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	os := New(m)
	pr, _ := os.MakeProcess(nil, "p", 0, 16, func(self *Process) {
		obj, err := os.MakeObj(self.P, 0, 1000, nil)
		if err != nil {
			t.Errorf("MakeObj: %v", err)
			return
		}
		os.TransferToSystem(obj)
	})
	if err := m.E.Run(); err != nil {
		t.Fatal(err)
	}
	os.DestroyProcess(nil, pr)
	if os.LeakedBytes() != 1024 {
		t.Errorf("leaked = %d, want 1024 (Chrysalis tends to leak storage)", os.LeakedBytes())
	}
}

func TestProcessCreationSerialization(t *testing.T) {
	// Two simultaneous creators serialize on the process template: the
	// second pays the first's serial section as queueing delay.
	m := machine.New(machine.DefaultConfig(8))
	os := New(m)
	var t1, t2 int64
	os.MakeProcess(nil, "creator1", 0, 16, func(self *Process) {
		start := m.E.Now()
		os.MakeProcess(self.P, "c1", 2, 8, func(pr *Process) {})
		t1 = m.E.Now() - start
	})
	os.MakeProcess(nil, "creator2", 1, 16, func(self *Process) {
		start := m.E.Now()
		os.MakeProcess(self.P, "c2", 3, 8, func(pr *Process) {})
		t2 = m.E.Now() - start
	})
	if err := m.E.Run(); err != nil {
		t.Fatal(err)
	}
	c := os.Costs
	if t1 != c.ProcCreateSerial+c.ProcCreateLocal {
		t.Errorf("first creation = %d", t1)
	}
	if t2 != 2*c.ProcCreateSerial+c.ProcCreateLocal {
		t.Errorf("second creation = %d, want serialized %d", t2, 2*c.ProcCreateSerial+c.ProcCreateLocal)
	}
}

func TestProcessesDoNotExceedSARs(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	os := New(m)
	// 512 SARs / 256 per max process = 2 processes.
	if _, err := os.MakeProcess(nil, "a", 0, 256, func(pr *Process) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.MakeProcess(nil, "b", 0, 256, func(pr *Process) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.MakeProcess(nil, "c", 0, 8, func(pr *Process) {}); err == nil {
		t.Error("third large process fit")
	}
	if os.ProcsOnNode(0) != 2 {
		t.Errorf("procs on node 0 = %d", os.ProcsOnNode(0))
	}
	if err := m.E.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundSizeConsistency(t *testing.T) {
	// MakeObj must reject objects larger than one segment.
	boot(t, 2, func(os *OS, self *Process) {
		if _, err := os.MakeObj(self.P, 0, memory.MaxSegmentBytes+1, nil); err == nil {
			t.Error("oversized object accepted")
		}
	})
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindMemory: "memory", KindEvent: "event",
		KindDualQueue: "dual queue", KindProcess: "process", Kind(99): "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
