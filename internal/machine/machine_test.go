package machine

import (
	"testing"

	"butterfly/internal/sim"
)

// run executes fn as a single simulated process on node and returns the
// virtual time it consumed.
func run(t *testing.T, m *Machine, node int, fn func(p *sim.Proc)) int64 {
	t.Helper()
	var elapsed int64
	m.Spawn("t", node, func(p *sim.Proc) {
		start := m.E.Now()
		fn(p)
		p.Sync() // flush lazily charged time before reading the clock
		elapsed = m.E.Now() - start
	})
	if err := m.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return elapsed
}

func TestNUMARatio(t *testing.T) {
	// §2.1: remote references take about 4 µs, roughly five times as long
	// as a local reference.
	m := New(DefaultConfig(128))
	local := run(t, m, 0, func(p *sim.Proc) { m.Read(p, 0, 1) })

	m2 := New(DefaultConfig(128))
	remote := run(t, m2, 0, func(p *sim.Proc) { m2.Read(p, 100, 1) })

	if local < 500 || local > 1200 {
		t.Errorf("local read = %d ns, want ~800", local)
	}
	if remote < 3200 || remote > 4800 {
		t.Errorf("remote read = %d ns, want ~4000", remote)
	}
	ratio := float64(remote) / float64(local)
	if ratio < 4.0 || ratio > 6.5 {
		t.Errorf("NUMA ratio = %.2f, want roughly 5", ratio)
	}
	if m.LocalReadNs() != local {
		t.Errorf("LocalReadNs() = %d, measured %d", m.LocalReadNs(), local)
	}
	if m2.RemoteReadNs() != remote {
		t.Errorf("RemoteReadNs() = %d, measured %d", m2.RemoteReadNs(), remote)
	}
}

func TestRemoteWordAtATime(t *testing.T) {
	// Remote multi-word reads pay the full round trip per word.
	m := New(DefaultConfig(64))
	one := run(t, m, 0, func(p *sim.Proc) { m.Read(p, 5, 1) })
	m2 := New(DefaultConfig(64))
	ten := run(t, m2, 0, func(p *sim.Proc) { m2.Read(p, 5, 10) })
	if ten < 9*one {
		t.Errorf("10-word remote read = %d, want >= 9x one word (%d)", ten, one)
	}
}

func TestBlockCopyAmortizes(t *testing.T) {
	// The caching idiom: a block copy of N words is much cheaper than N
	// word-at-a-time remote reads.
	const words = 256
	m := New(DefaultConfig(64))
	wordwise := run(t, m, 0, func(p *sim.Proc) { m.Read(p, 5, words) })
	m2 := New(DefaultConfig(64))
	block := run(t, m2, 0, func(p *sim.Proc) { m2.BlockCopy(p, 5, 0, words) })
	if block*2 > wordwise {
		t.Errorf("block copy (%d) not at least 2x faster than word reads (%d)", block, wordwise)
	}
}

func TestLocalBatchedRead(t *testing.T) {
	// Local multi-word reads stream through the module: one overhead, then
	// per-word cycles.
	cfg := DefaultConfig(16)
	m := New(cfg)
	got := run(t, m, 0, func(p *sim.Proc) { m.Read(p, 0, 100) })
	want := cfg.LocalOverheadNs + 100*cfg.MemCycleNs
	if got != want {
		t.Errorf("local 100-word read = %d, want %d", got, want)
	}
}

func TestMemoryContentionStealsCycles(t *testing.T) {
	// E5 seed: many remote spinners hammering one module inflate a local
	// reference far beyond the nominal 5x remote/local split.
	m := New(DefaultConfig(64))
	nominal := m.LocalReadNs()
	var localLatency int64
	// 32 remote processes each issue 50 atomic ops against node 0's memory.
	for i := 1; i <= 32; i++ {
		node := i
		m.Spawn("spinner", node, func(p *sim.Proc) {
			for j := 0; j < 50; j++ {
				m.Atomic(p, 0)
			}
		})
	}
	m.Spawn("owner", 0, func(p *sim.Proc) {
		p.Advance(10_000) // let the spinners pile up
		start := m.E.Now()
		m.Read(p, 0, 1)
		p.Sync()
		localLatency = m.E.Now() - start
	})
	if err := m.E.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if localLatency < 5*nominal {
		t.Errorf("contended local read = %d ns (nominal %d); want severe degradation", localLatency, nominal)
	}
}

func TestComputeCharges(t *testing.T) {
	cfg := DefaultConfig(4)
	m := New(cfg)
	got := run(t, m, 0, func(p *sim.Proc) {
		m.IntOps(p, 10)
		m.Flops(p, 3)
	})
	want := 10*cfg.IntOpNs + 3*cfg.FlopNs
	if got != want {
		t.Errorf("compute = %d, want %d", got, want)
	}
}

func TestHardwareFloatConfig(t *testing.T) {
	soft := DefaultConfig(16)
	hard := HardwareFloatConfig(16)
	if hard.FlopNs >= soft.FlopNs {
		t.Errorf("hardware flops (%d) not faster than software (%d)", hard.FlopNs, soft.FlopNs)
	}
	if soft.FlopNs/hard.FlopNs < 5 {
		t.Errorf("upgrade speedup only %dx", soft.FlopNs/hard.FlopNs)
	}
}

func TestAtomicCosts(t *testing.T) {
	m := New(DefaultConfig(64))
	localAtomic := run(t, m, 0, func(p *sim.Proc) { m.Atomic(p, 0) })
	m2 := New(DefaultConfig(64))
	remoteAtomic := run(t, m2, 0, func(p *sim.Proc) { m2.Atomic(p, 5) })
	if localAtomic >= remoteAtomic {
		t.Errorf("local atomic (%d) should cost less than remote (%d)", localAtomic, remoteAtomic)
	}
	if m2.Stats().AtomicOps != 1 {
		t.Errorf("stats = %+v", m2.Stats())
	}
}

func TestStatsCounting(t *testing.T) {
	m := New(DefaultConfig(8))
	run(t, m, 0, func(p *sim.Proc) {
		m.Read(p, 0, 1)
		m.Write(p, 3, 2)
		m.BlockCopy(p, 3, 0, 16)
	})
	st := m.Stats()
	if st.LocalRefs != 1 || st.RemoteRefs != 2 || st.BlockCopies != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBadNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad node did not panic")
		}
	}()
	m := New(DefaultConfig(4))
	m.Node(4)
}

func TestSpawnValidatesNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad spawn node did not panic")
		}
	}()
	m := New(DefaultConfig(4))
	m.Spawn("x", 9, func(p *sim.Proc) {})
}

func TestZeroWordAccessesAreSafe(t *testing.T) {
	m := New(DefaultConfig(4))
	elapsed := run(t, m, 0, func(p *sim.Proc) {
		m.BlockCopy(p, 1, 0, 0) // no-op
		m.IntOps(p, 0)
		m.Flops(p, 0)
	})
	if elapsed != 0 {
		t.Errorf("zero-size ops consumed %d ns", elapsed)
	}
}

func TestSweepCostMatchesComponents(t *testing.T) {
	// A sweep's total must equal items * (compute + per-ref costs) when
	// uncontended.
	cfg := DefaultConfig(16)
	m := New(cfg)
	const items = 50
	got := run(t, m, 0, func(p *sim.Proc) {
		m.Sweep(p, items, 2000, []Ref{
			{Node: 0, Words: 1}, // local
			{Node: 5, Words: 1}, // remote
		})
	})
	local := cfg.LocalOverheadNs + cfg.MemCycleNs
	remote := m.RemoteReadNs()
	want := items * (2000 + local + remote)
	if got != want {
		t.Errorf("sweep = %d, want %d", got, want)
	}
}

func TestSweepBooksModuleOccupancy(t *testing.T) {
	// A sweep pre-books the target module; a later single read that lands
	// mid-sweep must queue (or backfill a gap, but never corrupt totals).
	m := New(DefaultConfig(4))
	m.Spawn("sweeper", 0, func(p *sim.Proc) {
		m.Sweep(p, 1000, 0, []Ref{{Node: 2, Words: 1}})
	})
	var readerLatency int64
	m.Spawn("reader", 1, func(p *sim.Proc) {
		p.Advance(100_000) // arrive mid-sweep
		t0 := m.E.Now()
		m.Read(p, 2, 1)
		p.Sync()
		readerLatency = m.E.Now() - t0
	})
	if err := m.E.Run(); err != nil {
		t.Fatal(err)
	}
	// The sweeper's refs leave gaps >= 2.9us between 1us services, so the
	// reader backfills with at most a cycle of extra wait.
	if readerLatency > 3*m.RemoteReadNs() {
		t.Errorf("reader latency %d implausibly high", readerLatency)
	}
}

func TestSweepZeroItems(t *testing.T) {
	m := New(DefaultConfig(2))
	if got := run(t, m, 0, func(p *sim.Proc) { m.Sweep(p, 0, 1000, nil) }); got != 0 {
		t.Errorf("zero-item sweep took %d", got)
	}
}

func TestMicrocodeSerializesAtHomeNode(t *testing.T) {
	// Two processes running 30us microcoded ops against the same home node
	// serialize there.
	m := New(DefaultConfig(4))
	ends := make([]int64, 2)
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn("µ", i+1, func(p *sim.Proc) {
			m.Microcode(p, 0, 30_000)
			p.Sync()
			ends[i] = m.E.Now()
		})
	}
	if err := m.E.Run(); err != nil {
		t.Fatal(err)
	}
	d := ends[1] - ends[0]
	if d < 0 {
		d = -d
	}
	if d < 30_000 {
		t.Errorf("microcode ops overlapped: ends %v", ends)
	}
}

func TestNoSwitchContentionShortcut(t *testing.T) {
	cfg := DefaultConfig(64)
	cfg.NoSwitchContention = true
	m := New(cfg)
	got := run(t, m, 0, func(p *sim.Proc) { m.Read(p, 9, 1) })
	if got != m.RemoteReadNs() {
		t.Errorf("shortcut remote read = %d, want %d", got, m.RemoteReadNs())
	}
	if m.Net.Stats().Packets != 0 {
		t.Error("shortcut still routed packets")
	}
}

func TestBlockCopyBooksDestinationAtItsOwnCycle(t *testing.T) {
	// The destination module's absorb window is offset by *its own* per-word
	// cycle time, which diverges from the machine-wide default in
	// mixed-memory configurations. Two identical copies, one into a module
	// with a doubled cycle: the slow module's window starts earlier (same
	// end), so a probe landing between the two window starts backfills the
	// idle gap on the fast machine but queues to the window's end on the
	// slow one.
	const words = 100
	copyElapsed := func(slowDst bool) (elapsed int64, m *Machine) {
		m = New(DefaultConfig(4))
		if slowDst {
			m.Node(2).Mem.CycleNs = 2 * m.Cfg.MemCycleNs
		}
		elapsed = run(t, m, 0, func(p *sim.Proc) { m.BlockCopy(p, 1, 2, words) })
		return elapsed, m
	}
	fastElapsed, fast := copyElapsed(false)
	slowElapsed, slow := copyElapsed(true)
	if fastElapsed != slowElapsed {
		// Uncontended, the destination pipeline overlaps the transfer tail
		// completely; total time must not depend on the destination cycle.
		t.Fatalf("elapsed diverged: fast %d, slow %d", fastElapsed, slowElapsed)
	}
	// The copy finished at virtual time `elapsed`; probe both destination
	// modules at a time inside the slow window but before the fast one.
	probe := fastElapsed - int64(words)*fast.Cfg.MemCycleNs - 50_000
	if start, _ := fast.Node(2).Mem.Service(probe, 1, false); start != probe {
		t.Errorf("fast destination did not backfill: start %d, want %d", start, probe)
	}
	if start, _ := slow.Node(2).Mem.Service(probe, 1, false); start != fastElapsed {
		t.Errorf("slow destination window wrong: probe start %d, want %d", start, fastElapsed)
	}
}
