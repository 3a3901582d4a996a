package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/machine"
	"butterfly/internal/probe"
	"butterfly/internal/sim"
)

// registry-quick runs every registered experiment at quick scale, as
// `butterflybench -all -quick`, CI, and the README do: a closed loop on one
// goroutine, one pass after another, each pass in a seed-shuffled order.
// Host time goes to engine handoffs and parks and to machine and calendar
// contention; the lab is idle.

// smokeExperiments is the registry subset -smoke passes run: the cheapest
// experiments, so a smoke pass takes milliseconds.
var smokeExperiments = []string{"numa", "prims", "replay", "fig6", "sarcache", "psyche", "hotspot"}

type registrySession struct {
	exps   []core.Experiment
	golden map[string]string
	order  *rand.Rand
}

// passStats is what one pass measured.
type passStats struct {
	wall                   time.Duration
	events, parks, flushes uint64
	maxHeap                int
	remoteWords, packets   uint64
	memBusy, memRemoteBusy int64
}

func setupRegistry(r *run) (session, error) {
	golden, err := loadGolden(filepath.Join(r.root, "testdata", "determinism.golden"))
	if err != nil {
		return nil, err
	}
	exps := core.Experiments()
	if r.smoke {
		exps = exps[:0]
		for _, id := range smokeExperiments {
			e, ok := core.Lookup(id)
			if !ok {
				return nil, fmt.Errorf("smoke experiment %q is not registered", id)
			}
			exps = append(exps, e)
		}
	}
	s := &registrySession{exps: exps, golden: golden, order: r.rng(1)}
	// The first pass in a process is the cold one: it is set-up.
	if _, err := s.pass(r, s.order.Perm(len(exps)), false); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return s, nil
}

func (s *registrySession) measure(r *run) error {
	start := time.Now()
	var walls []float64
	var total passStats
	var last time.Duration
	// Passes run while the next one is expected to end within --seconds.
	for len(walls) == 0 || time.Since(start)+last <= r.seconds {
		began := time.Now()
		ps, err := s.pass(r, s.order.Perm(len(s.exps)), r.tr != nil)
		last = time.Since(began)
		r.rep.op(err)
		walls = append(walls, ms(ps.wall.Nanoseconds()))
		total.wall += ps.wall
		total.events += ps.events
		total.parks += ps.parks
		total.flushes += ps.flushes
		total.maxHeap = max(total.maxHeap, ps.maxHeap)
		total.remoteWords += ps.remoteWords
		total.packets += ps.packets
		total.memBusy += ps.memBusy
		total.memRemoteBusy += ps.memRemoteBusy
	}
	passes := float64(len(walls))
	r.rep.dist("op_ms", walls)
	r.rep.set("work_per_s", ratio(float64(total.events), total.wall.Seconds()))
	r.rep.set("sim.events_per_op", float64(total.events)/passes)
	r.rep.set("sim.ns_per_event", ratio(float64(total.wall.Nanoseconds()), float64(total.events)))
	r.rep.set("sim.parks_per_op", float64(total.parks)/passes)
	r.rep.set("sim.lazy_flushes_per_op", float64(total.flushes)/passes)
	r.rep.set("sim.max_heap_depth", float64(total.maxHeap))
	r.rep.set("memory.remote_words_per_op", float64(total.remoteWords)/passes)
	r.rep.set("memory.steal_fraction", ratio(float64(total.memRemoteBusy), float64(total.memBusy)))
	r.rep.set("switchnet.packets_per_op", float64(total.packets)/passes)
	if r.tr != nil {
		tot := r.tr.totals()
		named := make(map[string]bool)
		for _, id := range coreShares {
			named["core."+id] = true
			r.rep.set("core."+id+".share", ratio(float64(selfOf(tot, "core."+id)), float64(total.wall)))
		}
		var rest int64
		for name, t := range tot {
			if strings.HasPrefix(name, "core.") && !named[name] {
				rest += t.self
			}
		}
		r.rep.set("core.rest.share", ratio(float64(rest), float64(total.wall)))
	}
	return nil
}

func (s *registrySession) close() error { return nil }

// pass runs every experiment once in the given order, checking each one's
// trajectory fingerprint against the golden file. probed attaches an
// observability probe to every machine; probes never change a trajectory.
//
// Each experiment starts from a collected heap, and the pass's time is the
// sum of the experiments' own: otherwise the seed's order would move
// garbage, collection work, and the memory high-water mark from one
// experiment to the next.
func (s *registrySession) pass(r *run, order []int, probed bool) (passStats, error) {
	var ps passStats
	var firstErr error
	trace := r.tr.id()
	start := time.Now()
	for _, i := range order {
		e := s.exps[i]
		runtime.GC()
		var engines []*sim.Engine
		var probes []*probe.Probe
		release := machine.ScopeHooks(nil, func(m *machine.Machine) {
			engines = append(engines, m.E)
			if probed {
				p := probe.New(nil)
				m.AttachProbe(p)
				probes = append(probes, p)
			}
		})
		var err error
		ps.wall += r.tr.timed("core."+e.ID, trace, trace, func(uint64) { err = e.Run(io.Discard, true) })
		release()
		var vtime int64
		var events uint64
		for _, eng := range engines {
			st := eng.Stats()
			vtime += eng.Now()
			events += st.Events
			ps.parks += st.Parks
			ps.flushes += st.LazyFlushes
			ps.maxHeap = max(ps.maxHeap, st.MaxHeapDepth)
		}
		ps.events += events
		for _, p := range probes {
			met := p.Metrics()
			for _, m := range met.Mem {
				ps.remoteWords += m.RemoteWords
				ps.memBusy += m.BusyNs()
				ps.memRemoteBusy += m.RemoteBusyNs
			}
			for _, stage := range met.Ports {
				for _, port := range stage {
					ps.packets += port.Packets
				}
			}
		}
		got := fmt.Sprintf("%s machines=%d vtime=%d events=%d", e.ID, len(engines), vtime, events)
		switch {
		case firstErr != nil:
		case err != nil:
			firstErr = fmt.Errorf("experiment %s: %w", e.ID, err)
		case got != s.golden[e.ID]:
			firstErr = fmt.Errorf("determinism drift: got %q, golden %q", got, s.golden[e.ID])
		}
	}
	r.tr.record("registry.pass", trace, trace, 0, start, time.Now())
	return ps, firstErr
}

// loadGolden reads testdata/determinism.golden: one fingerprint line per
// experiment, keyed by experiment ID.
func loadGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden fingerprints: %w", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, _, ok := strings.Cut(sc.Text(), " "); ok {
			out[id] = sc.Text()
		}
	}
	return out, sc.Err()
}
