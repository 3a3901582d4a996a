package machine

import (
	"fmt"
	"runtime"
	"testing"

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
// what the machine could hold. Node state is allocated as one slice per
// kind and link calendars on their first reservation, so a 1,039-node
// machine takes almost the allocations of a 16-node one, and its bytes are
// the per-node state alone.
func TestMachineNewCostFlat(t *testing.T) {
	const (
		small, large = 16, 1039
		maxExtra     = 4
		maxBytes     = 600 << 10
	)
	for _, topo := range switchnet.Topologies() {
		cfg := func(n int) Config {
			c := DefaultConfig(n)
			c.Topology = topo
			return c
		}
		smallAllocs, _ := newCost(cfg(small))
		largeAllocs, largeBytes := newCost(cfg(large))
		if largeAllocs > smallAllocs+maxExtra {
			t.Errorf("%s: New takes %.0f allocations at %d nodes, %.0f at %d (at most %d more allowed)",
				topo, largeAllocs, large, smallAllocs, small, maxExtra)
		}
		if largeBytes >= maxBytes {
			t.Errorf("%s: New allocates %.0f KB at %d nodes, want under %d KB",
				topo, largeBytes/1024, large, maxBytes>>10)
		}
	}
}

// BenchmarkMachineNew times machine construction across node counts and
// topologies; allocations per op should stay flat as nodes grow.
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
