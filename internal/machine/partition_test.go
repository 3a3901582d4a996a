package machine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"butterfly/internal/fault"
	"butterfly/internal/sim"
)

// machineWorkload drives a deterministic random mix of every machine
// reference type across 8 nodes on a partitioned machine and fingerprints
// all observable physics: per-process operation timestamps, per-module
// traffic and queueing counters, machine counters, and final virtual time.
func machineWorkload(t *testing.T, seed int64, parts int, contended bool) uint64 {
	t.Helper()
	const nodes = 8
	cfg := DefaultConfig(nodes)
	cfg.Partitions = parts
	cfg.NoSwitchContention = !contended
	m := New(cfg)
	traces := make([]uint64, nodes)
	for n := 0; n < nodes; n++ {
		node := n
		m.Spawn(fmt.Sprintf("w%d", node), node, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed + int64(node)*104729))
			h := fnv.New64a()
			for s := 0; s < 60; s++ {
				target := rng.Intn(nodes)
				switch rng.Intn(12) {
				case 0, 1, 2:
					m.Read(p, node, 1+rng.Intn(8)) // local stream
				case 3, 4:
					m.Read(p, target, 1+rng.Intn(4)) // possibly remote
				case 5:
					m.Write(p, target, 1+rng.Intn(4))
				case 6:
					m.Atomic(p, target)
				case 7:
					m.BlockCopy(p, target, node, 16+rng.Intn(64))
				case 8:
					m.Microcode(p, target, int64(1_000+rng.Intn(4_000)))
				case 9:
					m.Sweep(p, 1+rng.Intn(20), int64(rng.Intn(2_000)), []Ref{
						{Node: node, Words: 2},
						{Node: target, Words: 1},
					})
				default:
					m.IntOps(p, 1+rng.Intn(50))
				}
				fmt.Fprintf(h, "%d %d %d\n", node, s, p.LocalNow())
			}
			traces[node] = h.Sum64()
		})
	}
	if err := m.E.Run(); err != nil {
		t.Fatalf("parts=%d: %v", parts, err)
	}
	h := fnv.New64a()
	for _, tr := range traces {
		fmt.Fprintf(h, "%#x\n", tr)
	}
	for i := 0; i < m.N(); i++ {
		n := m.Node(i)
		ms := n.Mem.Stats()
		fmt.Fprintf(h, "mod%d %d %d %d %d %d\n", n.ID, ms.LocalWords, ms.RemoteWords, ms.WaitNs, ms.LocalWaitNs, ms.RemoteWaitNs)
	}
	st := m.Stats()
	fmt.Fprintf(h, "now=%d local=%d remote=%d copies=%d atomics=%d\n",
		m.E.Now(), st.LocalRefs, st.RemoteRefs, st.BlockCopies, st.AtomicOps)
	return h.Sum64()
}

// TestMachinePartitionInvariance checks that the full reference model —
// module queueing, switch transit, sweeps, block copies — produces
// bit-identical physics at every partition count, with and without switch
// contention modelling.
func TestMachinePartitionInvariance(t *testing.T) {
	for _, contended := range []bool{false, true} {
		for _, seed := range []int64{3, 1988} {
			ref := machineWorkload(t, seed, 1, contended)
			for _, parts := range []int{2, 4, 8} {
				if got := machineWorkload(t, seed, parts, contended); got != ref {
					t.Errorf("contended=%v seed=%d: fingerprint differs at %d partitions", contended, seed, parts)
				}
			}
		}
	}
}

// TestPartitionedFaultsRejected: fault injection requires the classic
// sequential engine; a partitioned machine refuses the injector loudly.
func TestPartitionedFaultsRejected(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Partitions = 2
	m := New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("AttachFaults on a partitioned machine should panic")
		}
	}()
	m.AttachFaults(fault.NewInjector(fault.Config{}))
}
