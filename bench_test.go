// Package-level benchmarks: one testing.B benchmark per experiment of the
// paper (see DESIGN.md's experiment index), plus microbenchmarks of the
// simulator substrate. Experiment benchmarks run the reduced-scale (quick)
// variant per iteration; the interesting output is the virtual-time tables
// they regenerate (run `go run ./cmd/butterflybench -all` for those at full
// scale). Wall-clock numbers here measure the simulator itself.
package main

import (
	"io"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/machine"
	"butterfly/internal/sim"
	"butterfly/internal/switchnet"
)

// benchExperiment runs one registered experiment per iteration at quick
// scale, discarding its table output.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := core.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table/figure of the paper.

func BenchmarkFigure5GaussianElimination(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkNUMARatio(b *testing.B)                  { benchExperiment(b, "numa") }
func BenchmarkHoughCaching(b *testing.B)               { benchExperiment(b, "hough") }
func BenchmarkDataSpread(b *testing.B)                 { benchExperiment(b, "spread") }
func BenchmarkHotSpot(b *testing.B)                    { benchExperiment(b, "hotspot") }
func BenchmarkSwitchContention(b *testing.B)           { benchExperiment(b, "switch") }
func BenchmarkChrysalisPrimitives(b *testing.B)        { benchExperiment(b, "prims") }
func BenchmarkCrowdControl(b *testing.B)               { benchExperiment(b, "crowd") }
func BenchmarkAllocator(b *testing.B)                  { benchExperiment(b, "alloc") }
func BenchmarkReplayOverhead(b *testing.B)             { benchExperiment(b, "replay") }
func BenchmarkBridgeTools(b *testing.B)                { benchExperiment(b, "bridge") }
func BenchmarkConnectionist(b *testing.B)              { benchExperiment(b, "connect") }
func BenchmarkGraphSpeedups(b *testing.B)              { benchExperiment(b, "speedups") }
func BenchmarkFigure6Moviola(b *testing.B)             { benchExperiment(b, "fig6") }
func BenchmarkSARCache(b *testing.B)                   { benchExperiment(b, "sarcache") }
func BenchmarkModelCosts(b *testing.B)                 { benchExperiment(b, "models") }

// Simulator microbenchmarks: how fast the substrate itself runs.

func BenchmarkEngineContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := sim.New()
	e.Spawn("switcher", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(10)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineHandoff(b *testing.B) {
	// Two processes on alternating ticks: every event is a real coroutine
	// switch through the dispatch loop (the slow path ContextSwitch avoids).
	b.ReportAllocs()
	e := sim.New()
	for i := 0; i < 2; i++ {
		e.Spawn("pingpong", i, func(p *sim.Proc) {
			for j := 0; j < b.N; j++ {
				p.Advance(10)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineCharge(b *testing.B) {
	// The two-tier fast path: Charge accumulates on the local clock and only
	// flushes when the lookahead slice fills.
	b.ReportAllocs()
	e := sim.New()
	e.Spawn("charger", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Charge(10)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRemoteReference(b *testing.B) {
	b.ReportAllocs()
	m := machine.New(machine.DefaultConfig(128))
	m.Spawn("reader", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			m.Read(p, 64, 1)
		}
	})
	b.ResetTimer()
	if err := m.E.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	m := machine.New(machine.DefaultConfig(16))
	m.Spawn("sweeper", 0, func(p *sim.Proc) {
		refs := []machine.Ref{{Node: 1, Words: 1}, {Node: 2, Words: 2}}
		for i := 0; i < b.N; i++ {
			m.Sweep(p, 64, 1000, refs)
		}
	})
	b.ResetTimer()
	if err := m.E.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkButterflyRouting measures the switch-network fast path alone: one
// full routed-and-reserved transit per iteration on a 256-node butterfly
// (the incremental one-digit-swap router plus four calendar reservations).
func BenchmarkButterflyRouting(b *testing.B) {
	b.ReportAllocs()
	n := switchnet.New(switchnet.DefaultConfig(256))
	var t int64
	for i := 0; i < b.N; i++ {
		src := i % 256
		t = n.Transit(t, src, (src*37+11)%256, 4)
		if i%1024 == 0 {
			n.Prune(t)
		}
	}
}

// BenchmarkTopologyTransit measures the same routed transit on each of the
// other interconnect families.
func BenchmarkTopologyTransit(b *testing.B) {
	for _, topo := range switchnet.Topologies() {
		b.Run(string(topo), func(b *testing.B) {
			b.ReportAllocs()
			n := switchnet.Build(topo, switchnet.DefaultConfig(256))
			var t int64
			for i := 0; i < b.N; i++ {
				src := i % 256
				t = n.Transit(t, src, (src*37+11)%256, 4)
				if i%1024 == 0 {
					n.Prune(t)
				}
			}
		})
	}
}
