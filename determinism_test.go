// Golden regression for the whole registry at quick scale: one run of every
// registered experiment is checked against two files.
//
//   - testdata/quick.golden holds, byte for byte, what
//     `butterflybench -all -quick` prints: each experiment's banner, its
//     paper line, and its table.
//   - testdata/determinism.golden holds each experiment's virtual-time
//     trajectory: machines built, Σ final virtual clocks, Σ engine events.
//     The two-tier charging model (lazy local clocks flushed at sync
//     points) is only admissible because it cannot change these numbers, so
//     a line of this file never changes without a change to the model.
//
// The other registry-wide tests (the probed run below, the lab's parallel
// and goroutine-release runs, the daemon's chaos runs) compare against
// these files instead of running a baseline of their own. Regenerate both
// after an intentional change with:
//
//	go test -run TestExperimentDeterminism -update .
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/fault"
	"butterfly/internal/machine"
	"butterfly/internal/probe"
	"butterfly/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// quickRun runs one experiment at quick scale, with transform applied to
// and attach arming every machine it builds (either may be nil: attach
// takes a probe or a fault injector), and returns its table and engines.
func quickRun(t *testing.T, e core.Experiment, transform func(machine.Config) machine.Config, attach func(*machine.Machine)) (string, []*sim.Engine) {
	t.Helper()
	var engines []*sim.Engine
	release := machine.ScopeHooks(transform, func(m *machine.Machine) {
		engines = append(engines, m.E)
		if attach != nil {
			attach(m)
		}
	})
	defer release()
	var table strings.Builder
	if err := e.Run(&table, true); err != nil {
		t.Fatalf("experiment %s: %v", e.ID, err)
	}
	return table.String(), engines
}

// trajectory reduces a run's engines to its determinism.golden line:
// machines, Σ final virtual time, Σ events executed.
func trajectory(id string, engines []*sim.Engine) string {
	var vtime int64
	var events uint64
	for _, eng := range engines {
		vtime += eng.Now()
		events += eng.Stats().Events
	}
	return fmt.Sprintf("%s machines=%d vtime=%d events=%d", id, len(engines), vtime, events)
}

// runRegistry runs every experiment once at quick scale, with arm(e) (when arm is non-nil) arming each of e's machines, and
// returns what the two goldens hold: the trajectory lines and the
// `-all -quick` output.
func runRegistry(t *testing.T, arm func(core.Experiment) func(*machine.Machine)) (fps, out string) {
	t.Helper()
	var f, o strings.Builder
	for _, e := range core.Experiments() {
		var attach func(*machine.Machine)
		if arm != nil {
			attach = arm(e)
		}
		table, engines := quickRun(t, e, nil, attach)
		fmt.Fprintln(&f, trajectory(e.ID, engines))
		fmt.Fprintf(&o, "\n===== %s: %s =====\npaper: %s\n\n%s", e.ID, e.Title, e.Paper, table)
	}
	return f.String(), o.String()
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden (regenerate it with -update): %v", err)
	}
	return string(b)
}

// firstDiff names the first line on which got and want part, and the
// experiment it belongs to: a determinism.golden line starts with the id,
// and a table line follows its experiment's banner.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i, banner := 0, ""
	for ; i < len(g) && i < len(w) && g[i] == w[i]; i++ {
		if strings.HasPrefix(g[i], "===== ") {
			banner = "under " + g[i] + ", "
		}
	}
	line := func(s []string) string {
		if i < len(s) {
			return s[i]
		}
		return "(end)"
	}
	return fmt.Sprintf("%sline %d:\n  got  %s\n  want %s", banner, i+1, line(g), line(w))
}

// checkGolden holds got to testdata/name byte for byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if want := readGolden(t, name); got != want {
		t.Errorf("drift from %s %s", name, firstDiff(got, want))
	}
}

func TestExperimentDeterminism(t *testing.T) {
	fps, out := runRegistry(t, nil)
	if *updateGolden {
		for name, got := range map[string]string{"determinism.golden": fps, "quick.golden": out} {
			if err := os.WriteFile(filepath.Join("testdata", name), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote testdata/%s", name)
		}
		return
	}
	checkGolden(t, "determinism.golden", fps)
	checkGolden(t, "quick.golden", out)
}

// TestFaultSeedDeterminism runs fault-tolerant experiments twice with an
// identical fault schedule (same seed, same drop probability, same kill
// times) and demands bit-identical trajectories. The injector draws every
// probabilistic outcome from one seeded PCG stream in simulation dispatch
// order, so reproducing a failure scenario needs nothing but its config —
// the property the whole schedule-driven design exists to provide.
func TestFaultSeedDeterminism(t *testing.T) {
	cfg := fault.Config{
		Seed:     99,
		DropProb: 0.002,
		Failures: []fault.NodeFailure{{Node: 7, At: 2 * sim.Millisecond}},
	}
	for _, id := range []string{"hotspot", "switch", "degrade"} {
		e, ok := core.Lookup(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		// An experiment that manages its own faults builds its injectors
		// (seeded from its fixed default config): just run it twice.
		attach := func(m *machine.Machine) { m.AttachFaults(fault.NewInjector(cfg)) }
		if e.ManagesFaults {
			attach = nil
		}
		var fp [2]string
		for i := range fp {
			_, engines := quickRun(t, e, nil, attach)
			fp[i] = trajectory(id, engines)
		}
		if a, b := fp[0], fp[1]; a != b {
			t.Errorf("fault injection is not deterministic for %s:\n  run1 %s\n  run2 %s", id, a, b)
		}
	}
}

// TestProbesDoNotPerturb runs every experiment with probes on, each feeding
// a counting sink, and demands the golden trajectories and tables. This
// pins the probe subsystem's core contract: attaching observation changes
// nothing about the simulation (no extra events, no clock drift, no
// dispatch reordering), so any measurement the probe reports describes the
// same execution the tables were generated from.
func TestProbesDoNotPerturb(t *testing.T) {
	counts := make(map[string]*probe.Counter)
	fps, out := runRegistry(t, func(e core.Experiment) func(*machine.Machine) {
		c := new(probe.Counter)
		counts[e.ID] = c
		return func(m *machine.Machine) { m.AttachProbe(probe.New(c)) }
	})
	checkGolden(t, "determinism.golden", fps)
	checkGolden(t, "quick.golden", out)
	for id, c := range counts {
		if c.Total() == 0 {
			t.Errorf("probe recorded no events for %s; instrumentation is not wired through", id)
		}
	}
}
