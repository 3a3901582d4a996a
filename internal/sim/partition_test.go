package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
)

// partWorkload runs a randomized but fully deterministic mix of Charge,
// Advance, Yield, and Exchange steps across nodes*procsPerNode processes on
// a partitioned engine, and returns a fingerprint of everything observable:
// each process's step-by-step view of its clock, the exchange service order
// (via a coordinator-side counter folded into completion times), final
// virtual time, and the engine event count. Two runs with different
// partition counts must produce the same fingerprint.
func partWorkload(t *testing.T, seed int64, nodes, procsPerNode, steps, parts int) uint64 {
	t.Helper()
	e := New()
	e.EnablePartitions(parts, func(node int) int { return node * parts / nodes })
	// Each process hashes only its own trace slot (processes on different
	// partitions run concurrently and must share no Go state); the slots are
	// merged into one fingerprint after the run.
	traces := make([]uint64, nodes*procsPerNode)
	var serviced int64 // mutated only at barriers, in service order
	for n := 0; n < nodes; n++ {
		for k := 0; k < procsPerNode; k++ {
			node := n
			idx := n*procsPerNode + k
			e.Spawn(fmt.Sprintf("w%d", idx), node, func(p *Proc) {
				rng := rand.New(rand.NewSource(seed + int64(idx)*7919))
				h := fnv.New64a()
				for s := 0; s < steps; s++ {
					switch rng.Intn(10) {
					case 0, 1, 2, 3:
						p.Charge(int64(rng.Intn(60_000)))
					case 4, 5:
						p.Advance(int64(rng.Intn(200_000)))
					case 6:
						p.Yield()
					default:
						// The completion time folds in the coordinator-side
						// service counter, so the fingerprint detects any
						// partition-count-dependent exchange ordering.
						delay := int64(1_000 + rng.Intn(20_000))
						p.Exchange(func(issue int64) int64 {
							serviced++
							return issue + delay + serviced%97
						})
					}
					fmt.Fprintf(h, "%d %d %d\n", idx, s, p.Now())
				}
				traces[idx] = h.Sum64()
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("parts=%d: Run: %v", parts, err)
	}
	st := e.Stats()
	h := fnv.New64a()
	for _, tr := range traces {
		fmt.Fprintf(h, "%#x\n", tr)
	}
	fmt.Fprintf(h, "now=%d events=%d exchanges=%d serviced=%d\n", e.Now(), st.Events, st.Exchanges, serviced)
	return h.Sum64()
}

// TestPartitionCountInvariance is the engine-level determinism oracle: the
// same program must produce an identical observable timeline at every
// partition count, with the single-partition windowed engine as reference.
func TestPartitionCountInvariance(t *testing.T) {
	const nodes, procs, steps = 8, 2, 120
	for _, seed := range []int64{1, 42, 20260807} {
		ref := partWorkload(t, seed, nodes, procs, steps, 1)
		for _, parts := range []int{2, 3, 4, 8} {
			if got := partWorkload(t, seed, nodes, procs, steps, parts); got != ref {
				t.Errorf("seed %d: fingerprint differs at %d partitions: %#x vs reference %#x", seed, parts, got, ref)
			}
		}
	}
}

// TestPartitionedGOMAXPROCS1 proves partitioned mode degrades gracefully to
// sequential in-window execution: with one OS processor the coordinator runs
// windows partition-by-partition, and the results stay identical.
func TestPartitionedGOMAXPROCS1(t *testing.T) {
	const nodes, procs, steps = 8, 2, 120
	ref := partWorkload(t, 7, nodes, procs, steps, 4)
	prev := runtime.GOMAXPROCS(1)
	got := partWorkload(t, 7, nodes, procs, steps, 4)
	runtime.GOMAXPROCS(prev)
	if got != ref {
		t.Errorf("GOMAXPROCS=1 fingerprint %#x differs from parallel %#x", got, ref)
	}
}

// FuzzPartitionedEquivalence drives random workloads through 2..5-way
// partitioned engines against the 1-partition reference — the same
// reference-model idiom as the calendar fuzz target, applied to the
// cross-partition event-exchange ordering.
func FuzzPartitionedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(40))
	f.Add(int64(99), uint8(5), uint8(1), uint8(25))
	f.Add(int64(-7), uint8(3), uint8(2), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, nodes, procsPerNode, steps uint8) {
		n := int(nodes)%12 + 1
		ppn := int(procsPerNode)%3 + 1
		st := int(steps)%80 + 1
		ref := partWorkload(t, seed, n, ppn, st, 1)
		for parts := 2; parts <= 5 && parts <= n; parts++ {
			if got := partWorkload(t, seed, n, ppn, st, parts); got != ref {
				t.Fatalf("seed %d nodes %d ppn %d steps %d: fingerprint differs at %d partitions", seed, n, ppn, st, parts)
			}
		}
	})
}

// TestPartitionedDeadlockReported: a blocked process with no waker is still
// reported as a deadlock on a partitioned engine.
func TestPartitionedDeadlockReported(t *testing.T) {
	e := New()
	e.EnablePartitions(2, func(node int) int { return node % 2 })
	e.Spawn("stuck", 0, func(p *Proc) {
		p.Charge(1_000)
		p.Block("never")
	})
	e.Spawn("fine", 1, func(p *Proc) { p.Advance(5_000) })
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	} else if len(de.Blocked) != 1 || de.Blocked[0].Reason != "never" {
		t.Fatalf("unexpected deadlock report: %+v", de)
	}
}

// TestPartitionedRestrictions: the partitioned programming model's rules are
// enforced loudly, not silently miscomputed.
func TestPartitionedRestrictions(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}

	// Exchange needs a partitioned engine.
	e := New()
	e.Spawn("p", 0, func(p *Proc) {
		mustPanic("classic Exchange", func() { p.Exchange(func(t int64) int64 { return t }) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// Mid-run Spawn is rejected.
	e2 := New()
	e2.EnablePartitions(2, func(node int) int { return node % 2 })
	e2.Spawn("p", 0, func(p *Proc) {
		mustPanic("mid-run Spawn", func() { e2.Spawn("child", 0, func(*Proc) {}) })
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}

	// Cross-node Unblock is rejected: from another partition (refused
	// before that partition's state is read), from another node of the
	// victim's own partition, and with no waker at all.
	e3 := New()
	e3.EnablePartitions(2, func(node int) int { return node % 2 })
	var victim *Proc
	victim = e3.Spawn("victim", 0, func(p *Proc) { p.Block("wait") })
	e3.Spawn("waker", 1, func(p *Proc) {
		p.Advance(1_000)
		mustPanic("cross-partition Unblock", func() { e3.Unblock(p, victim, 0) })
	})
	e3.Spawn("neighbor", 2, func(p *Proc) {
		p.Advance(1_000)
		mustPanic("cross-node Unblock", func() { e3.Unblock(p, victim, 0) })
		mustPanic("waker-less Unblock", func() { e3.Unblock(nil, victim, 0) })
	})
	var de *DeadlockError
	if err := e3.Run(); !errors.As(err, &de) {
		t.Fatalf("want DeadlockError (victim never woken), got %v", err)
	}

	// EnablePartitions after Spawn is rejected.
	e4 := New()
	e4.Spawn("early", 0, func(*Proc) {})
	mustPanic("EnablePartitions after Spawn", func() {
		e4.EnablePartitions(2, func(node int) int { return node % 2 })
	})
}

// TestSameNodeWaitQueuePartitioned: scheduler-based synchronization between
// processes on the same node works under partitioning, including across
// windows.
func TestSameNodeWaitQueuePartitioned(t *testing.T) {
	run := func(parts int) int64 {
		e := New()
		e.EnablePartitions(parts, func(node int) int { return node * parts / 4 })
		// One queue and one result slot per node: wait queues are same-node
		// objects under partitioning, like all shared Go state.
		wokenAt := make([]int64, 4)
		for n := 0; n < 4; n++ {
			node := n
			q := NewWaitQueue(fmt.Sprintf("q%d", node))
			e.Spawn("waiter", node, func(p *Proc) {
				q.Wait(p)
				wokenAt[node] = p.Now()
			})
			e.Spawn("waker", node, func(p *Proc) {
				p.Advance(int64(1_000 * (node + 1)))
				q.WakeOne(p, 0)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		var sum int64
		for _, w := range wokenAt {
			sum += w
		}
		return sum
	}
	ref := run(1)
	for _, parts := range []int{2, 4} {
		if got := run(parts); got != ref {
			t.Errorf("parts=%d: woken-time sum %d != reference %d", parts, got, ref)
		}
	}
}
