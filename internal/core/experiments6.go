package core

// Modern-scale experiments on the topology subsystem: a STREAM-style triad
// bandwidth sweep across data placements and interconnect families
// (streamnuma), and the NYU-Ultracomputer hot-spot re-run with in-network
// combining fetch-and-add switched on and off (combine). streamNUMA and
// combineHotspot measure one configuration into rows; each experiment's
// table prints them.

import (
	"fmt"
	"io"
	"sort"

	"butterfly/internal/machine"
	"butterfly/internal/sim"
	"butterfly/internal/switchnet"
)

func init() {
	register(Experiment{
		ID:    "streamnuma",
		Title: "STREAM triad bandwidth: local vs remote vs striped placement, per topology",
		Paper: "remote references take roughly five times as long as a local reference; spreading data over all memories relieves contention (extended across butterfly, fattree, dragonfly, and mesh interconnects)",
		Run:   runStreamNUMA,
	})
	register(Experiment{
		ID:    "combine",
		Title: "Hot-spot fetch-and-add at 512-4096 nodes, with and without combining switches",
		Paper: "over a hundred processors can issue simultaneous remote references, leading to performance degradation far beyond the nominal factor of five (the Ultracomputer's combining networks answer this)",
		Run:   runCombine,
	})
}

// streamRow is one measured placement of the streamnuma experiment.
type streamRow struct {
	topology  string
	placement string
	mbps      float64
	// wordNs is the mean per-word reference time seen by one worker.
	wordNs int64
}

// streamComputeNs is the triad's per-element compute charge (two integer
// operations' worth — STREAM is bandwidth-bound, not compute-bound).
const streamComputeNs = 1000

// streamNUMA runs a STREAM-style triad (a[i] = b[i] + q*c[i]: two reads and
// a write per element, 3 words) on the given interconnect with three data
// placements:
//
//	local   — every worker's arrays live in its own memory
//	remote  — all arrays live in node 0's memory (the naive serial
//	          placement: every reference crosses the network and the one
//	          module serializes them)
//	striped — arrays are striped round-robin over all memories (the
//	          Uniform System's scatter idiom), modelled per home node
//
// Workers run on nodes 1..workers so node 0 is always the far memory.
func streamNUMA(topology switchnet.Topology, nodes, workers, items int) ([]streamRow, error) {
	if workers >= nodes {
		workers = nodes - 1
	}
	rows := make([]streamRow, 0, 3)
	for _, placement := range []string{"local", "remote", "striped"} {
		cfg := ButterflyI(nodes)
		cfg.Topology = topology
		m := machine.New(cfg)
		pl := placement
		for wk := 1; wk <= workers; wk++ {
			m.Spawn("triad", wk, func(p *sim.Proc) {
				switch pl {
				case "local":
					m.Sweep(p, items, streamComputeNs, []machine.Ref{{Node: p.Node, Words: 3}})
				case "remote":
					m.Sweep(p, items, streamComputeNs, []machine.Ref{{Node: 0, Words: 3}})
				case "striped":
					// One sweep per home node: the stripe's references
					// grouped by the memory they land in.
					n := m.N()
					per, rem := items/n, items%n
					for t := 0; t < n; t++ {
						cnt := per
						if t < rem {
							cnt++
						}
						if cnt > 0 {
							m.Sweep(p, cnt, streamComputeNs, []machine.Ref{{Node: t, Words: 3}})
						}
					}
				}
			})
		}
		if err := m.E.Run(); err != nil {
			return nil, err
		}
		elapsed := m.E.Now()
		if elapsed <= 0 {
			return nil, fmt.Errorf("streamnuma: empty run")
		}
		words := int64(workers) * int64(items) * 3
		bytes := float64(words * 4)
		rows = append(rows, streamRow{
			topology:  string(m.Topology()),
			placement: placement,
			mbps:      bytes / (float64(elapsed) / 1e9) / 1e6,
			wordNs:    elapsed / (int64(items) * 3),
		})
	}
	return rows, nil
}

// runStreamNUMA prints the triad bandwidth table across every topology.
func runStreamNUMA(w io.Writer, quick bool) error {
	nodes, workers, items := 64, 16, 2048
	if quick {
		nodes, workers, items = 16, 8, 256
	}
	fmt.Fprintf(w, "STREAM triad, %d workers x %d elements, %d nodes\n\n", workers, items, nodes)
	fmt.Fprintf(w, "%-10s %-8s %12s %12s %10s\n", "topology", "placed", "MB/s", "us/word", "vs local")
	for _, topo := range switchnet.Topologies() {
		rows, err := streamNUMA(topo, nodes, workers, items)
		if err != nil {
			return err
		}
		var localMBps float64
		for _, r := range rows {
			if r.placement == "local" {
				localMBps = r.mbps
			}
			ratio := r.mbps / localMBps
			fmt.Fprintf(w, "%-10s %-8s %12.1f %12.3f %9.2fx\n",
				r.topology, r.placement, r.mbps, float64(r.wordNs)/1000, ratio)
		}
	}
	fmt.Fprintf(w, "\npaper: spreading data over all memories relieves contention;\nthe mesh pays its sqrt(N) diameter on every remote word\n")
	return nil
}

// combineRow is one measured cell of the combining hot-spot experiment.
type combineRow struct {
	// combinedPct is the share of fetch-and-adds merged in the network.
	combinedPct float64
	meanNs      int64
	p99Ns       int64
	// contentionNs is the total time packets spent queued for switch
	// links — the hot-spot tree convoy combining exists to remove.
	contentionNs int64
}

// combinePolls is how many fetch-and-adds each spinner issues.
const combinePolls = 12

// combineHotspot drives every node but the owner into a closed-loop
// fetch-and-add storm on one word of node 0's memory and measures the
// per-operation latency distribution plus the switch-link contention, with
// or without combining switches.
func combineHotspot(nodes int, combining bool) (combineRow, error) {
	cfg := ButterflyI(nodes)
	cfg.Combining = combining
	m := machine.New(cfg)
	latencies := make([]int64, 0, (nodes-1)*combinePolls)
	for s := 1; s < nodes; s++ {
		m.Spawn("spinner", s, func(p *sim.Proc) {
			for i := 0; i < combinePolls; i++ {
				t0 := p.Now()
				m.AtomicWord(p, 0, 0)
				p.Sync() // flush the lazy charge so Now reflects the op
				latencies = append(latencies, p.Now()-t0)
				p.Advance(2 * sim.Microsecond)
			}
		})
	}
	if err := m.E.Run(); err != nil {
		return combineRow{}, err
	}
	if len(latencies) == 0 {
		return combineRow{}, fmt.Errorf("combine: no operations measured")
	}
	var sum int64
	for _, l := range latencies {
		sum += l
	}
	sorted := append([]int64(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cs := m.CombineStats()
	row := combineRow{
		meanNs:       sum / int64(len(latencies)),
		p99Ns:        sorted[len(sorted)*99/100],
		contentionNs: m.Net.Stats().ContentionNs,
	}
	if cs.Requests > 0 {
		row.combinedPct = 100 * float64(cs.Combined) / float64(cs.Requests)
	}
	return row, nil
}

// runCombine prints the hot-spot table with combining off and on.
func runCombine(w io.Writer, quick bool) error {
	counts := []int{512, 1024, 2048, 4096}
	if quick {
		counts = []int{64, 128}
	}
	fmt.Fprintf(w, "hot-spot fetch-and-add on one word, %d polls per node\n\n", combinePolls)
	fmt.Fprintf(w, "%6s %9s %12s %12s %16s %10s\n",
		"nodes", "combining", "mean (us)", "p99 (us)", "contention (ms)", "combined")
	for _, n := range counts {
		for _, comb := range []bool{false, true} {
			row, err := combineHotspot(n, comb)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%6d %9v %12.2f %12.2f %16.3f %9.1f%%\n",
				n, comb, float64(row.meanNs)/1000, float64(row.p99Ns)/1000,
				float64(row.contentionNs)/1e6, row.combinedPct)
		}
	}
	fmt.Fprintf(w, "\nUltracomputer: combining collapses the hot-spot convoy — the module\nsees one request per round trip no matter how many processors poll\n")
	return nil
}
