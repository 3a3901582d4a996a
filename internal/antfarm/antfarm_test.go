package antfarm

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"butterfly/internal/chrysalis"
	"butterfly/internal/machine"
	"butterfly/internal/sim"
)

func newOS(t *testing.T, nodes int) *chrysalis.OS {
	t.Helper()
	return chrysalis.New(machine.New(machine.DefaultConfig(nodes)))
}

func TestThreadsInterleave(t *testing.T) {
	os := newOS(t, 2)
	var order []string
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			main.Farm.Spawn("a", func(a *Thread) {
				for i := 0; i < 3; i++ {
					order = append(order, "a")
					a.YieldThread()
				}
			})
			main.Farm.Spawn("b", func(b *Thread) {
				for i := 0; i < 3; i++ {
					order = append(order, "b")
					b.YieldThread()
				}
			})
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestManyThreads(t *testing.T) {
	// The point of Ant Farm: very large numbers of lightweight blockable
	// threads (one per graph node).
	os := newOS(t, 2)
	const n = 1000
	count := 0
	var farm *Farm
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		farm = Run(self, DefaultConfig(), func(main *Thread) {
			for i := 0; i < n; i++ {
				main.Farm.Spawn(fmt.Sprintf("t%d", i), func(x *Thread) {
					count++
				})
			}
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
	if farm.Stats().Spawned != n+1 {
		t.Errorf("spawned = %d", farm.Stats().Spawned)
	}
}

func TestBlockUnblockWithinFarm(t *testing.T) {
	os := newOS(t, 2)
	var woke bool
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			var waiter *Thread
			waiter = main.Farm.Spawn("waiter", func(w *Thread) {
				w.BlockThread("test")
				woke = true
			})
			main.Farm.Spawn("waker", func(k *Thread) {
				k.P().Advance(1 * sim.Millisecond)
				if !waiter.Blocked() {
					t.Error("waiter not blocked")
				}
				waiter.Unblock(k.P())
			})
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !woke {
		t.Error("waiter never woke")
	}
}

func TestChannelSameFarm(t *testing.T) {
	os := newOS(t, 2)
	var got []int
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			ch := main.Farm.NewChannel(2)
			main.Farm.Spawn("producer", func(p *Thread) {
				for i := 0; i < 5; i++ {
					ch.Send(p, i, 1)
				}
			})
			main.Farm.Spawn("consumer", func(c *Thread) {
				for i := 0; i < 5; i++ {
					v, _ := ch.Recv(c)
					got = append(got, v.(int))
				}
			})
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestChannelCrossFarm(t *testing.T) {
	// Threads communicate "without regard to location": a thread on node 0
	// talks to a thread on node 1; the idle receiving farm is woken by a
	// Chrysalis event.
	os := newOS(t, 2)
	var farmB *Farm
	ready := make(chan *Channel, 1) // Go-level plumbing executed at setup
	var got int
	os.MakeProcess(nil, "farmB", 1, 16, func(self *chrysalis.Process) {
		farmB = Run(self, DefaultConfig(), func(main *Thread) {
			ch := main.Farm.NewChannel(0)
			ready <- ch
			v, words := ch.Recv(main)
			got = v.(int)
			if words != 64 {
				t.Errorf("words = %d", words)
			}
		})
	})
	os.MakeProcess(nil, "farmA", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			main.P().Advance(5 * sim.Millisecond) // let B block first
			ch := <-ready
			ch.Send(main, 77, 64)
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 77 {
		t.Errorf("got = %d", got)
	}
	if farmB.Stats().Idles == 0 {
		t.Error("farm B never idled; cross-farm wake not exercised")
	}
}

func TestRendezvousChannelBlocksSender(t *testing.T) {
	os := newOS(t, 2)
	var sendDone, recvStart int64
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			ch := main.Farm.NewChannel(0)
			main.Farm.Spawn("s", func(s *Thread) {
				ch.Send(s, "x", 1)
				sendDone = s.P().Engine().Now()
			})
			main.Farm.Spawn("r", func(r *Thread) {
				r.P().Advance(3 * sim.Millisecond)
				recvStart = r.P().Engine().Now()
				ch.Recv(r)
			})
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sendDone < recvStart {
		t.Errorf("rendezvous send completed at %d before receiver arrived at %d", sendDone, recvStart)
	}
}

func TestRemoteSpawn(t *testing.T) {
	os := newOS(t, 2)
	var ranOn int
	farmReady := make(chan *Farm, 1)
	hold := make(chan struct{})
	os.MakeProcess(nil, "target", 1, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			farmReady <- main.Farm
			close(hold)
			main.BlockThread("awaiting remote work") // woken implicitly? no: keep alive via spawn
		})
	})
	os.MakeProcess(nil, "spawner", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			<-hold
			main.P().Advance(2 * sim.Millisecond)
			target := <-farmReady
			target.Spawn("remote", func(r *Thread) {
				ranOn = r.P().Node
				// Wake the blocked main thread so the farm can finish.
				for _, th := range r.Farm.threads {
					if th.Blocked() {
						th.Unblock(r.P())
					}
				}
			})
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ranOn != 1 {
		t.Errorf("remote thread ran on node %d, want 1", ranOn)
	}
}

func TestTryRecv(t *testing.T) {
	os := newOS(t, 2)
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			ch := main.Farm.NewChannel(4)
			if _, _, ok := ch.TryRecv(main); ok {
				t.Error("TryRecv on empty channel returned ok")
			}
			ch.Send(main, 5, 1)
			if v, _, ok := ch.TryRecv(main); !ok || v.(int) != 5 {
				t.Errorf("TryRecv = %v,%v", v, ok)
			}
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBufferAdmitsBlockedSender(t *testing.T) {
	os := newOS(t, 2)
	sent := 0
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			ch := main.Farm.NewChannel(1)
			main.Farm.Spawn("s", func(s *Thread) {
				for i := 0; i < 3; i++ {
					ch.Send(s, i, 1) // second send blocks on the full buffer
					sent++
				}
			})
			main.Farm.Spawn("r", func(r *Thread) {
				for i := 0; i < 3; i++ {
					r.P().Advance(1 * sim.Millisecond)
					if v, _ := ch.Recv(r); v.(int) != i {
						t.Errorf("recv %d != %d", v, i)
					}
				}
			})
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sent != 3 {
		t.Errorf("sent = %d", sent)
	}
}

func TestCheapSwitches(t *testing.T) {
	// Coroutine switches must cost tens of microseconds — far less than
	// Chrysalis process operations.
	os := newOS(t, 2)
	var elapsed int64
	var farm *Farm
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		start := os.M.E.Now()
		farm = Run(self, DefaultConfig(), func(main *Thread) {
			for i := 0; i < 100; i++ {
				main.YieldThread()
			}
		})
		elapsed = os.M.E.Now() - start
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	perSwitch := elapsed / int64(farm.Stats().Switches)
	if perSwitch > 100*sim.Microsecond {
		t.Errorf("per-switch cost = %d ns, want tens of us", perSwitch)
	}
}

func TestFarmOf(t *testing.T) {
	os := newOS(t, 2)
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			if FarmOf(self) != main.Farm {
				t.Error("FarmOf mismatch during run")
			}
		})
		if FarmOf(self) != nil {
			t.Error("FarmOf should be nil after Run returns")
		}
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestDeadlockedFarmReported: a deadlocked farm is reported, and its parked
// threads are unwound with it, deferred cleanup included — none outlives
// the run.
func TestDeadlockedFarmReported(t *testing.T) {
	before := runtime.NumGoroutine()
	os := newOS(t, 2)
	unwound := 0
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			defer func() { unwound++ }()
			worker := main.Farm.Spawn("worker", func(w *Thread) {
				defer func() { unwound++ }()
				w.BlockThread("never woken")
			})
			main.Join(worker)
		})
	})
	err := os.M.E.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("err = %T", err)
	}
	if unwound != 2 {
		t.Errorf("%d of 2 parked threads were unwound", unwound)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines after the run, %d before", n, before)
	}
}

func TestJoinWithinFarm(t *testing.T) {
	os := newOS(t, 2)
	var order []string
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			worker := main.Farm.Spawn("worker", func(w *Thread) {
				w.Sleep(3 * sim.Millisecond)
				order = append(order, "worker")
			})
			main.Join(worker)
			order = append(order, "main")
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "worker" || order[1] != "main" {
		t.Errorf("order = %v", order)
	}
}

func TestJoinFinishedThread(t *testing.T) {
	os := newOS(t, 2)
	ok := false
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			w := main.Farm.Spawn("quick", func(w *Thread) {})
			main.YieldThread() // let it finish
			main.Join(w)       // must not block
			ok = true
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ok {
		t.Error("join on finished thread hung")
	}
}

func TestSleepChargesTime(t *testing.T) {
	os := newOS(t, 2)
	var elapsed int64
	os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			t0 := os.M.E.Now()
			main.Sleep(5 * sim.Millisecond)
			elapsed = os.M.E.Now() - t0
		})
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed != 5*sim.Millisecond {
		t.Errorf("slept %d", elapsed)
	}
}

// TestKillWhileThreadHoldsProcess: a node kill that lands while a thread
// holds the farm's process resumes the thread's goroutine, not the
// process's root one — a thread parks its process from its own goroutine,
// so that goroutine is the one the process's coroutine switches back to.
// The thread forwards the exit sentinel to the root goroutine, the process
// dies there, and the farm's threads are unwound with it.
func TestKillWhileThreadHoldsProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	os := newOS(t, 2)
	unwound := 0
	woke := false
	farm, err := os.MakeProcess(nil, "farm", 0, 16, func(self *chrysalis.Process) {
		Run(self, DefaultConfig(), func(main *Thread) {
			defer func() { unwound++ }()
			main.Farm.Spawn("idle", func(w *Thread) {
				defer func() { unwound++ }()
				w.BlockThread("never woken")
			})
			main.YieldThread()               // let it block
			main.Sleep(10 * sim.Millisecond) // the kill lands in here
			woke = true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	os.M.E.Spawn("killer", 1, func(p *sim.Proc) {
		p.Advance(sim.Millisecond)
		os.M.E.Kill(farm.P)
	})
	if err := os.M.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke {
		t.Error("the killed farm's thread ran past its kill point")
	}
	if !farm.P.Done() || !farm.P.Killed() {
		t.Errorf("farm process Done=%v Killed=%v, want true/true", farm.P.Done(), farm.P.Killed())
	}
	if unwound != 2 {
		t.Errorf("%d of 2 threads were unwound", unwound)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines after the run, %d before", n, before)
	}
}
