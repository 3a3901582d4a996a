package machine

import (
	"fmt"
	"runtime"
	"testing"

	"butterfly/internal/fault"
	"butterfly/internal/probe"
	"butterfly/internal/sim"
	"butterfly/internal/switchnet"
)

// newCost reports the allocations and bytes one New of cfg costs.
func newCost(cfg Config) (allocs, bytes float64) {
	const runs = 20
	allocs = testing.AllocsPerRun(runs, func() { New(cfg) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		New(cfg)
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestMachineNewCostFlat: building a machine costs what a run touches, not
// what the machine could hold. Node state is built per chunk on a node's
// first reference and link calendars on their first reservation, so a
// 1,039-node machine takes the allocations of a 16-node one and at most a
// few KB more: the chunk and link indexes, a few bytes per node.
func TestMachineNewCostFlat(t *testing.T) {
	const (
		small, large  = 16, 1039
		maxExtra      = 4
		maxExtraBytes = 10 << 10
	)
	for _, topo := range switchnet.Topologies() {
		cfg := func(n int) Config {
			c := DefaultConfig(n)
			c.Topology = topo
			return c
		}
		smallAllocs, smallBytes := newCost(cfg(small))
		largeAllocs, largeBytes := newCost(cfg(large))
		if largeAllocs > smallAllocs+maxExtra {
			t.Errorf("%s: New takes %.0f allocations at %d nodes, %.0f at %d (at most %d more allowed)",
				topo, largeAllocs, large, smallAllocs, small, maxExtra)
		}
		if largeBytes > smallBytes+maxExtraBytes {
			t.Errorf("%s: New allocates %.1f KB at %d nodes, %.1f KB at %d (at most %d KB more allowed)",
				topo, largeBytes/1024, large, smallBytes/1024, small, maxExtraBytes>>10)
		}
	}
}

// builtNodes lists the IDs of the nodes whose state m has built.
func builtNodes(m *Machine) []int {
	var ids []int
	m.EachBuiltNode(func(n *Node) { ids = append(ids, n.ID) })
	return ids
}

// TestNodeStateBuiltOnFirstTouch: New builds no node state; a reference
// builds its target's whole chunk and nothing else, and the node keeps its
// index and the machine's memory calibration.
func TestNodeStateBuiltOnFirstTouch(t *testing.T) {
	m := New(DefaultConfig(100))
	if ids := builtNodes(m); len(ids) != 0 {
		t.Fatalf("New built nodes %v", ids)
	}
	run(t, m, 99, func(p *sim.Proc) { m.Read(p, 40, 1) })
	ids := builtNodes(m)
	// The reader's chunk (96..99, the short last one) and node 40's (32..63).
	if len(ids) != 4+nodeChunk || ids[0] != 32 || ids[nodeChunk-1] != 63 || ids[nodeChunk] != 96 {
		t.Fatalf("built nodes %v, want 32..63 and 96..99", ids)
	}
	n := m.Node(40)
	if n.ID != 40 || n.Mem.Node != 40 || n.Mem.CycleNs != m.Cfg.MemCycleNs || n.Mem.Size != m.Cfg.MemBytes {
		t.Fatalf("node 40 built as %+v, module %+v", n, n.Mem)
	}
	if got := n.Mem.Stats().RemoteWords; got != 1 {
		t.Fatalf("node 40 served %d remote words, want 1", got)
	}
}

// TestProbeSeesNodesBuiltAfterAttach: a probe attached before any node is
// touched still observes the references to nodes built later.
func TestProbeSeesNodesBuiltAfterAttach(t *testing.T) {
	m := New(DefaultConfig(100))
	pr := probe.New(nil)
	m.AttachProbe(pr)
	run(t, m, 0, func(p *sim.Proc) {
		m.Read(p, 0, 2)
		m.Read(p, 70, 3)
	})
	mem := pr.Metrics().Mem
	if len(mem) <= 70 || mem[0].LocalWords != 2 || mem[70].RemoteWords != 3 {
		t.Fatalf("probe saw %d modules; want node 0 local 2, node 70 remote 3", len(mem))
	}
}

// TestFaultKillsUntouchedNode: killing a node nothing has referenced builds
// it and leaves its module failed.
func TestFaultKillsUntouchedNode(t *testing.T) {
	m := New(DefaultConfig(100))
	m.AttachFaults(fault.NewInjector(fault.Config{
		Failures: []fault.NodeFailure{{Node: 80, At: sim.Microsecond}},
	}))
	run(t, m, 0, func(p *sim.Proc) { p.Advance(2 * sim.Microsecond) })
	if !m.Node(80).Mem.Failed() {
		t.Fatal("node 80's module not failed after its scheduled death")
	}
	if m.Node(81).Mem.Failed() {
		t.Fatal("node 81's module failed; only node 80 was killed")
	}
}

// TestPartitionedMachineBuildsEveryNode: a partitioned machine builds all
// node state in New, so concurrent windows never race to build a chunk.
func TestPartitionedMachineBuildsEveryNode(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Partitions = 2
	m := New(cfg)
	ids := builtNodes(m)
	if len(ids) != cfg.Nodes {
		t.Fatalf("partitioned New built %d of %d nodes", len(ids), cfg.Nodes)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("built node %d has ID %d", i, id)
		}
	}
}

// BenchmarkMachineNew times machine construction across node counts and
// topologies; allocations and bytes per op should stay flat as nodes grow.
func BenchmarkMachineNew(b *testing.B) {
	for _, topo := range switchnet.Topologies() {
		for _, n := range []int{16, 256, 1039} {
			b.Run(fmt.Sprintf("%s/%d", topo, n), func(b *testing.B) {
				cfg := DefaultConfig(n)
				cfg.Topology = topo
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					New(cfg)
				}
			})
		}
	}
}
