// Golden determinism regression: every registered experiment, run at quick
// scale, must produce exactly the same virtual-time trajectory on every
// machine it builds — same number of machines, same final virtual clocks,
// same number of engine events. The two-tier charging model (lazy local
// clocks flushed at sync points) is only admissible because it cannot change
// these numbers; any drift here means the simulation's physics changed and
// every table in the paper reproduction is suspect.
//
// Regenerate after an intentional model change with:
//
//	go test -run TestExperimentDeterminism -update .
package main

import (
	"flag"
	"fmt"
	"io"
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

// partitionsFlag reruns the whole suite with every partitionable
// experiment's machines raised to this partition count (the CI matrix runs
// it at 1, 2, and 4 under -race). The golden file is partition-count
// independent — that is the partitioned engine's core invariant — so no
// separate golden exists per count.
var partitionsFlag = flag.Int("partitions", 0, "override partition count for partitionable experiments")

// experimentFingerprint runs one experiment at quick scale and reduces every
// engine it builds to (machines, Σ final virtual time, Σ events executed).
// When probed is non-nil, every machine gets an observability probe feeding
// that sink attached — used to prove observation never perturbs the physics.
func experimentFingerprint(t *testing.T, e core.Experiment, probed *probe.Counter) string {
	t.Helper()
	var transform func(machine.Config) machine.Config
	if *partitionsFlag > 0 {
		transform = core.Spec{Partitions: *partitionsFlag}.ConfigTransform()
	}
	var engines []*sim.Engine
	release := machine.ScopeHooks(transform, func(m *machine.Machine) {
		engines = append(engines, m.E)
		if probed != nil {
			m.AttachProbe(probe.New(probed))
		}
	})
	defer release()
	if err := e.Run(io.Discard, true); err != nil {
		t.Fatalf("experiment %s: %v", e.ID, err)
	}
	var vtime int64
	var events uint64
	for _, eng := range engines {
		vtime += eng.Now()
		events += eng.Stats().Events
	}
	return fmt.Sprintf("%s machines=%d vtime=%d events=%d", e.ID, len(engines), vtime, events)
}

func TestExperimentDeterminism(t *testing.T) {
	var lines []string
	for _, e := range core.Experiments() {
		lines = append(lines, experimentFingerprint(t, e, nil))
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "determinism.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test -run TestExperimentDeterminism -update .`): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	// Line-by-line diagnosis beats dumping two blobs.
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("determinism drift:\n  got  %s\n  want %s", g, w)
		}
	}
}

// faultedFingerprint runs one experiment at quick scale with a fault
// injector (built fresh from cfg) attached to every machine it boots.
func faultedFingerprint(t *testing.T, e core.Experiment, cfg fault.Config) string {
	t.Helper()
	var engines []*sim.Engine
	release := machine.ScopeHooks(nil, func(m *machine.Machine) {
		engines = append(engines, m.E)
		m.AttachFaults(fault.NewInjector(cfg))
	})
	defer release()
	if err := e.Run(io.Discard, true); err != nil {
		t.Fatalf("experiment %s (faulted): %v", e.ID, err)
	}
	var vtime int64
	var events uint64
	for _, eng := range engines {
		vtime += eng.Now()
		events += eng.Stats().Events
	}
	return fmt.Sprintf("%s machines=%d vtime=%d events=%d", e.ID, len(engines), vtime, events)
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
		var a, b string
		if e.ManagesFaults {
			// The experiment builds its own injectors (seeded from its
			// fixed default config): just run it twice.
			a = experimentFingerprint(t, e, nil)
			b = experimentFingerprint(t, e, nil)
		} else {
			a = faultedFingerprint(t, e, cfg)
			b = faultedFingerprint(t, e, cfg)
		}
		if a != b {
			t.Errorf("fault injection is not deterministic for %s:\n  run1 %s\n  run2 %s", id, a, b)
		}
	}
}

// TestProbesDoNotPerturb runs every experiment twice — probes off, then
// probes on with a counting sink — and demands identical fingerprints. This
// pins the probe subsystem's core contract: attaching observation changes
// nothing about the simulation (no extra events, no clock drift, no dispatch
// reordering), so any measurement the probe reports describes the same
// execution the tables were generated from.
func TestProbesDoNotPerturb(t *testing.T) {
	for _, e := range core.Experiments() {
		bare := experimentFingerprint(t, e, nil)
		var c probe.Counter
		probed := experimentFingerprint(t, e, &c)
		if bare != probed {
			t.Errorf("probe perturbed %s:\n  off %s\n  on  %s", e.ID, bare, probed)
		}
		if c.Total() == 0 {
			t.Errorf("probe recorded no events for %s; instrumentation is not wired through", e.ID)
		}
	}
}
