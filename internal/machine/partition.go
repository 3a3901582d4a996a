package machine

// Partitioned-machine reference paths.
//
// On a partitioned machine (Config.Partitions > 0) every reference that
// leaves the issuing process's node is serviced at the window barrier via
// sim.Proc.Exchange: the process parks, and the reservation math below runs
// on the engine's coordinator while all partitions are quiescent, so it may
// touch any node's memory-module calendar and any switch-port calendar
// without synchronization. Routing is by node, not by partition — an
// off-node reference that happens to target the caller's own partition still
// goes through the exchange — so the simulated timeline is independent of
// how nodes are grouped into partitions.
//
// It follows that link calendars are touched only by the coordinator: the
// in-window paths (local references and all-local sweeps) book the caller's
// own memory module and never a switch link, and pruning runs at the
// barrier. switchnet relies on this to allocate link calendars on their
// first reservation without synchronization.
//
// The formulas mirror the classic paths in machine.go exactly (same
// overheads, same transit and module-service sequence); only the issue
// mechanism differs. Fault injection is rejected on partitioned machines, so
// these paths carry no fault draws.

import (
	"butterfly/internal/calendar"
	"butterfly/internal/memory"
	"butterfly/internal/sim"
)

// sweepScratch is the reusable buffer set of one Sweep call site: the
// modules with an open placement batch, the per-ref module resolution, and
// the merge scratch their commits share.
type sweepScratch struct {
	mods    []*memory.Module
	refMods []*memory.Module
	commit  calendar.Scratch
}

// exchangeAccess services a word-at-a-time off-node read/write at the
// window barrier (the partitioned counterpart of the classic remote branch
// of access).
func (m *Machine) exchangeAccess(p *sim.Proc, n *Node, words int) {
	p.Exchange(func(now int64) int64 {
		m.stats.RemoteRefs += uint64(words)
		if m.Cfg.NoSwitchContention {
			gap := m.Cfg.PNCOverheadNs + 2*m.wordTransit
			done := n.Mem.ServiceRun(now+m.Cfg.PNCOverheadNs+m.wordTransit, words, gap, false)
			return done + m.wordTransit
		}
		t := now
		for w := 0; w < words; w++ {
			t += m.Cfg.PNCOverheadNs
			t = m.transit(t, p.Node, n.ID, wordBytes)
			_, t = n.Mem.Service(t, 1, false)
			t = m.transit(t, n.ID, p.Node, wordBytes)
		}
		return t
	})
}

// exchangeBlockCopy services a block transfer with an off-node endpoint at
// the window barrier.
func (m *Machine) exchangeBlockCopy(p *sim.Proc, sn, dn *Node, words int) {
	p.Exchange(func(now int64) int64 {
		m.stats.BlockCopies++
		t := now + m.Cfg.PNCOverheadNs
		if sn == dn {
			_, t = sn.Mem.Service(t, 2*words, sn.ID == p.Node)
			return t
		}
		sStart, sDone := sn.Mem.Service(t, words, sn.ID == p.Node)
		nDone := m.transit(sStart, sn.ID, dn.ID, words*wordBytes)
		if nDone < sDone {
			nDone = sDone
		}
		_, dDone := dn.Mem.Service(nDone-int64(words)*dn.Mem.CycleNs, words, dn.ID == p.Node)
		if dDone < nDone {
			dDone = nDone
		}
		return dDone
	})
}

// exchangeAtomic services an off-node atomic read-modify-write at the
// window barrier. The returned-value contract of Atomic is unchanged: the
// caller performs the data operation itself, which stays safe because all
// processes referencing the word serialize through the coordinator. On a
// combining machine the barrier services exchanges in deterministic
// (issue time, process) order, so the combining layer sees the same request
// sequence at every partition count.
func (m *Machine) exchangeAtomic(p *sim.Proc, n *Node, word int) {
	p.Exchange(func(now int64) int64 {
		m.stats.AtomicOps++
		if m.comb != nil {
			return m.comb.FetchAdd(now+m.Cfg.PNCOverheadNs, p.Node, n.ID, word, func(arrive int64) int64 {
				_, d := n.Mem.Service(arrive, 2, false)
				return d
			})
		}
		t := now + m.Cfg.PNCOverheadNs
		t = m.transit(t, p.Node, n.ID, wordBytes)
		_, t = n.Mem.Service(t, 2, false)
		return m.transit(t, n.ID, p.Node, wordBytes)
	})
}

// exchangeMicrocode services an off-node PNC-microcoded operation at the
// window barrier.
func (m *Machine) exchangeMicrocode(p *sim.Proc, n *Node, words int) {
	p.Exchange(func(now int64) int64 {
		t := now + m.Cfg.PNCOverheadNs
		t = m.transit(t, p.Node, n.ID, wordBytes)
		_, t = n.Mem.Service(t, words, false)
		return m.transit(t, n.ID, p.Node, wordBytes)
	})
}

// partitionedSweep is Sweep on a partitioned machine: a sweep touching only
// the caller's own node books directly during the window (on the caller's
// partition-private scratch); a sweep with any off-node reference runs
// whole at the window barrier, preserving the single-pass batched placement.
func (m *Machine) partitionedSweep(p *sim.Proc, items int, computeNs int64, refs []Ref) {
	allLocal := true
	for _, r := range refs {
		if r.Node != p.Node {
			allLocal = false
			break
		}
	}
	if allLocal {
		now := p.Now()
		end := m.sweepBook(now, p.Node, items, computeNs, refs, &m.scr[m.pid(p.Node)], m.statsFor(p))
		p.Charge(end - now)
		return
	}
	p.Exchange(func(now int64) int64 {
		return m.sweepBook(now, p.Node, items, computeNs, refs, &m.xscr, &m.stats)
	})
}

// sweepBook books the module (and switch-port) occupancy of a sweep
// starting at start, issued from home, and returns its completion time. It
// is the fault-free core of the classic Sweep loop, shared by the in-window
// local path and the barrier-time exchange path.
func (m *Machine) sweepBook(start int64, home int, items int, computeNs int64, refs []Ref, scr *sweepScratch, st *Stats) int64 {
	t := start
	fixedNet := m.Cfg.NoSwitchContention
	gap := m.Cfg.PNCOverheadNs + 2*m.wordTransit
	lead := m.Cfg.PNCOverheadNs + m.wordTransit
	mods := scr.refMods[:0]
	for _, r := range refs {
		mod := m.Node(r.Node).Mem
		mods = append(mods, mod)
		if r.Words > 0 && !mod.InBatch() {
			mod.BeginBatch()
			scr.mods = append(scr.mods, mod)
		}
	}
	scr.refMods = mods
	for it := 0; it < items; it++ {
		t += computeNs
		for j, r := range refs {
			words := r.Words
			if words <= 0 {
				continue
			}
			mod := mods[j]
			switch {
			case r.Node == home:
				st.LocalRefs++
				_, t = mod.ServiceBatch(t+m.Cfg.LocalOverheadNs, words, true)
			case fixedNet:
				st.RemoteRefs += uint64(words)
				t = mod.ServiceRunBatch(t+lead, words, gap, false) + m.wordTransit
			default:
				st.RemoteRefs += uint64(words)
				for w := 0; w < words; w++ {
					t += m.Cfg.PNCOverheadNs
					t = m.transit(t, home, r.Node, wordBytes)
					_, t = mod.ServiceBatch(t, 1, false)
					t = m.transit(t, r.Node, home, wordBytes)
				}
			}
		}
	}
	for _, mod := range scr.mods {
		mod.CommitBatchScratch(&scr.commit)
	}
	scr.mods = scr.mods[:0]
	return t
}
