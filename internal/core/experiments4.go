package core

import (
	"fmt"
	"io"

	"butterfly/internal/chrysalis"
	"butterfly/internal/fault"
	"butterfly/internal/machine"
	"butterfly/internal/sim"
	"butterfly/internal/smp"
	"butterfly/internal/us"
)

func init() {
	register(Experiment{
		ID:    "degrade",
		Title: "Graceful degradation under injected node failures",
		Paper: "with up to 256 processors, individual node failures are a fact of life; the PNC retries dropped packets and applications must redistribute work from dead processors",
		Run:   runDegrade,
		// The experiment builds its own kill schedules per column over a
		// fixed background; a spec's faults are ignored.
		ManagesFaults: true,
	})
}

// degradeNodes is the machine size for every degradation sweep.
const degradeNodes = 64

// killSchedule kills the k highest-numbered nodes (node 0 hosts the
// generators and coordinators and never dies), spread across the middle of
// the baseline run: the j-th death lands at start + (20% + j·50%/k) of the
// failure-free elapsed time.
func killSchedule(nodes, k int, startNs, baseNs int64) []fault.NodeFailure {
	fs := make([]fault.NodeFailure, k)
	for j := 0; j < k; j++ {
		at := startNs + baseNs/5 + int64(j)*(baseNs/2)/int64(k)
		fs[j] = fault.NodeFailure{Node: nodes - 1 - j, At: at}
	}
	return fs
}

// runDegrade sweeps 0→8 node failures over a Uniform System workload, an
// SMP coordinator, and the hotspot spinner, reporting throughput decline.
func runDegrade(w io.Writer, quick bool) error {
	fails := []int{0, 1, 2, 4, 8}
	if quick {
		fails = []int{0, 2, 8}
	}
	// Every column shares a light transient-fault background and adds its
	// own kill schedule.
	base := fault.Config{Seed: 1, DropProb: 0.0005}

	// (a) Uniform System: scattered row fetch + flops, redistributing the
	// tasks of dead workers and re-fetching lost rows from a node-0 replica.
	fmt.Fprintf(w, "Uniform System scattered row-fetch, %d workers:\n", degradeNodes)
	fmt.Fprintf(w, "%8s %14s %10s %8s %10s %10s %8s %10s\n",
		"failed", "elapsed (ms)", "tasks/s", "redist", "retried", "failed", "recov", "drops")
	var usStart, usBase int64
	for _, k := range fails {
		cfg := base
		if k > 0 {
			cfg.Failures = killSchedule(degradeNodes, k, usStart, usBase)
		}
		r, err := degradeUS(cfg, quick)
		if err != nil {
			return err
		}
		if k == 0 {
			usStart, usBase = r.startNs, r.elapsedNs
		}
		fmt.Fprintf(w, "%8d %14.2f %10.0f %8d %10d %10d %8d %10d\n",
			k, sim.Millis(r.elapsedNs), float64(r.tasks)/sim.Seconds(r.elapsedNs),
			r.st.TasksRedistributed, r.st.TasksRetried, r.st.TasksFailed,
			r.recovered, r.fst.Drops)
	}

	// (b) SMP: a full-topology coordinator round-trip; the coordinator drops
	// dead peers from its live set and bounds every wait with a timeout.
	fmt.Fprintf(w, "\nSMP coordinator rounds, %d members (full topology):\n", degradeNodes)
	fmt.Fprintf(w, "%8s %14s %12s %10s %8s %10s\n",
		"failed", "elapsed (ms)", "replies/s", "replies", "lost", "drops")
	var smpStart, smpBase int64
	for _, k := range fails {
		cfg := base
		if k > 0 {
			cfg.Failures = killSchedule(degradeNodes, k, smpStart, smpBase)
		}
		r, err := degradeSMP(cfg, quick)
		if err != nil {
			return err
		}
		if k == 0 {
			smpStart, smpBase = r.startNs, r.elapsedNs
		}
		fmt.Fprintf(w, "%8d %14.2f %12.0f %10d %8d %10d\n",
			k, sim.Millis(r.elapsedNs), float64(r.replies)/sim.Seconds(r.elapsedNs),
			r.replies, r.lost, r.fst.Drops)
	}

	// (c) Hotspot: raw spinners hammering node 0 for a fixed virtual
	// interval; dead nodes simply stop contributing references.
	deadline := int64(40 * sim.Millisecond)
	if quick {
		deadline = 15 * sim.Millisecond
	}
	fmt.Fprintf(w, "\nHotspot spinners, %d nodes, %d ms window:\n", degradeNodes, deadline/sim.Millisecond)
	fmt.Fprintf(w, "%8s %12s %12s %10s %12s\n", "failed", "ops", "ops/s", "drops", "retransmits")
	for _, k := range fails {
		cfg := base
		if k > 0 {
			// Elapsed time is the window itself: no calibration run needed.
			cfg.Failures = killSchedule(degradeNodes, k, 0, deadline)
		}
		ops, fst, err := degradeHotspot(cfg, deadline)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %12d %12.0f %10d %12d\n",
			k, ops, float64(ops)/sim.Seconds(deadline), fst.Drops, fst.Retransmits)
	}
	fmt.Fprintf(w, "\nthroughput declines roughly in proportion to lost processors: no hangs, no collapse\n")
	return nil
}

// degradeUSResult carries one Uniform System degradation run.
type degradeUSResult struct {
	startNs   int64 // virtual time the generation began (after setup)
	elapsedNs int64
	tasks     int
	recovered int // rows re-fetched from the node-0 replica after a node died
	st        us.Stats
	fst       fault.Stats
}

// degradeUS runs one fixed-size generation: each task fetches a scattered
// row, computes on it, and folds the result into a node-0 accumulator. Rows
// homed on a dead node are recovered from a replica on node 0 via a
// Chrysalis catch block — the application-level half of fault tolerance.
func degradeUS(fc fault.Config, quick bool) (degradeUSResult, error) {
	n, rowWords, flops := 512, 1024, 200
	if quick {
		n, rowWords, flops = 160, 512, 100
	}
	mcfg := ButterflyI(degradeNodes)
	mcfg.NoSwitchContention = true
	m := machine.New(mcfg)
	osys := chrysalis.New(m)
	m.AttachFaults(fault.NewInjector(fc))
	var res degradeUSResult
	var scErr error
	u, err := us.Initialize(osys, us.DefaultConfig(degradeNodes), func(g *us.Worker) {
		sc, err := g.U.ScatterRows(g, n, rowWords*4, 0)
		if err != nil {
			scErr = err
			return
		}
		g.P.Sync()
		res.startNs = m.E.Now()
		g.U.GenOnIndex(g, n, func(tw *us.Worker, i int) {
			p := tw.P
			if ex := osys.Catch(p, func() {
				m.BlockCopy(p, sc.NodeOf(i), p.Node, rowWords)
			}); ex != nil {
				// The row's home memory is gone: refetch the replica.
				res.recovered++
				m.BlockCopy(p, 0, p.Node, rowWords)
			}
			m.Flops(p, flops)
			m.Write(p, 0, 2)
		})
		g.P.Sync()
		res.elapsedNs = m.E.Now() - res.startNs
	})
	if err != nil {
		return res, err
	}
	if err := m.E.Run(); err != nil {
		return res, err
	}
	if scErr != nil {
		return res, scErr
	}
	res.tasks = n
	res.st = u.Stats()
	res.fst = m.Faults().Stats()
	return res, nil
}

// degradeSMPResult carries one SMP degradation run.
type degradeSMPResult struct {
	startNs   int64
	elapsedNs int64
	replies   int // replies the coordinator collected
	lost      int // replies it gave up waiting for
	fst       fault.Stats
}

// degradeSMP runs a coordinator (member 0, node 0) that each round messages
// every live peer and collects replies with a bounded wait, shrinking its
// live set as nodes die. Peers reply until the coordinator announces the end.
func degradeSMP(fc fault.Config, quick bool) (degradeSMPResult, error) {
	rounds := 24
	if quick {
		rounds = 8
	}
	const (
		workTag        = 1
		stopTag        = 2
		collectTimeout = 3 * sim.Millisecond
	)
	mcfg := ButterflyI(degradeNodes)
	mcfg.NoSwitchContention = true
	m := machine.New(mcfg)
	osys := chrysalis.New(m)
	m.AttachFaults(fault.NewInjector(fc))
	nodes := make([]int, degradeNodes)
	for i := range nodes {
		nodes[i] = i
	}
	var res degradeSMPResult
	done := false
	_, err := smp.NewFamily(osys, nil, "degrade", nodes, smp.Full{}, smp.DefaultConfig(), func(mem *smp.Member) {
		if mem.ID != 0 {
			// Peer: serve work until the coordinator says stop (or dies —
			// it never does, but the timeout guarantees progress anyway).
			for !done {
				msg, ok := mem.RecvTimeout(2 * collectTimeout)
				if !ok {
					continue
				}
				if msg.Tag == stopTag {
					return
				}
				m.Flops(mem.P, 50)
				// Best-effort reply: if the path back fails the coordinator's
				// collect timeout accounts for the lost answer.
				_ = mem.SendRetry(0, workTag, 16, nil, 4)
			}
			return
		}
		members := len(mem.Fam.Members)
		res.startNs = m.E.Now()
		for r := 0; r < rounds; r++ {
			live := 0
			for d := 1; d < members; d++ {
				if m.NodeFailed(mem.Fam.Members[d].Node()) {
					continue
				}
				if err := mem.SendRetry(d, workTag, 64, nil, 4); err != nil {
					continue // peer died mid-send
				}
				live++
			}
			got := 0
			for got < live {
				if _, ok := mem.RecvTimeout(collectTimeout); !ok {
					break // a counted peer died before replying
				}
				got++
			}
			res.replies += got
			res.lost += live - got
		}
		res.elapsedNs = m.E.Now() - res.startNs
		done = true
		for d := 1; d < members; d++ {
			if m.NodeFailed(mem.Fam.Members[d].Node()) {
				continue
			}
			// Best-effort stop: peers also watch the shared done flag, so a
			// failed delivery cannot strand them.
			_ = mem.SendRetry(d, stopTag, 1, nil, 4)
		}
	})
	if err != nil {
		return res, err
	}
	if err := m.E.Run(); err != nil {
		return res, err
	}
	res.fst = m.Faults().Stats()
	return res, nil
}

// degradeHotspot counts atomic references completed against node 0 by
// spinners on every other node within a fixed virtual window. Transient
// reference failures are caught in the loop; spinners on dead nodes stop.
func degradeHotspot(fc fault.Config, deadline int64) (ops uint64, fst fault.Stats, err error) {
	// Poll slowly enough that the hot module is not saturated: at
	// saturation its service rate alone bounds throughput and lost
	// processors would be invisible in the curve.
	const pollNs = 250 * sim.Microsecond
	mcfg := ButterflyI(degradeNodes)
	mcfg.NoSwitchContention = true
	m := machine.New(mcfg)
	m.AttachFaults(fault.NewInjector(fc))
	for i := 1; i < degradeNodes; i++ {
		m.Spawn("spinner", i, func(p *sim.Proc) {
			for p.LocalNow() < deadline {
				var e error
				func() {
					defer fault.CatchRef(&e)
					m.Atomic(p, 0)
					p.Sync()
				}()
				if e == nil {
					ops++
				}
				p.Advance(pollNs)
			}
		})
	}
	if err := m.E.Run(); err != nil {
		return 0, fst, err
	}
	return ops, m.Faults().Stats(), nil
}
