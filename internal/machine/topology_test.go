package machine

import (
	"fmt"
	"testing"

	"butterfly/internal/sim"
	"butterfly/internal/switchnet"
)

// TestMachineTopologyAxis: a machine boots on every interconnect family,
// reports it, and services remote references on it.
func TestMachineTopologyAxis(t *testing.T) {
	for _, topo := range switchnet.Topologies() {
		cfg := DefaultConfig(16)
		cfg.Topology = topo
		m := New(cfg)
		if m.Topology() != topo {
			t.Errorf("Topology() = %q, want %q", m.Topology(), topo)
		}
		var lat int64
		m.Spawn("reader", 3, func(p *sim.Proc) {
			t0 := p.Now()
			m.Read(p, 9, 1)
			p.Sync()
			lat = p.Now() - t0
		})
		if err := m.E.Run(); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if lat <= 0 {
			t.Errorf("%s: remote read cost %d ns", topo, lat)
		}
	}
}

// TestMachineBadTopologyPanics: an unknown family must fail loudly at boot,
// not fall back to the default.
func TestMachineBadTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an unknown topology")
		}
	}()
	cfg := DefaultConfig(16)
	cfg.Topology = "torus"
	New(cfg)
}

// TestCombiningReducesHotSpotLatency: the machine-level restatement of the
// combine experiment's claim, pinned as a regression test.
func TestCombiningReducesHotSpotLatency(t *testing.T) {
	storm := func(combining bool) int64 {
		cfg := DefaultConfig(64)
		cfg.Combining = combining
		m := New(cfg)
		for n := 1; n < 64; n++ {
			node := n
			m.Spawn(fmt.Sprintf("s%d", node), node, func(p *sim.Proc) {
				for i := 0; i < 6; i++ {
					m.AtomicWord(p, 0, 0)
					p.Advance(sim.Microsecond)
				}
			})
		}
		if err := m.E.Run(); err != nil {
			t.Fatal(err)
		}
		return m.E.Now()
	}
	off, on := storm(false), storm(true)
	if on*4 > off {
		t.Errorf("combining finished the storm at %d ns vs %d ns off — expected at least 4x faster", on, off)
	}
}
