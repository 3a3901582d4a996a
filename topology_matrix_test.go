// Topology-matrix determinism: the interconnect axis must never perturb the
// default physics — an explicit -topology butterfly prints exactly what the
// goldens hold for the default machine (so every seed golden stays valid) —
// and each non-default family must itself be run-to-run deterministic. This
// is the in-repo twin of the CI topology-matrix step.
package main

import (
	"fmt"
	"strings"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/switchnet"
)

// topologyRun executes one experiment at quick scale with every machine
// rebuilt on the named interconnect ("" = the default), returning the
// table and trajectory.
func topologyRun(t *testing.T, e core.Experiment, topo string) (string, string) {
	t.Helper()
	table, engines := quickRun(t, e, core.Spec{Topology: topo}.ConfigTransform(), nil)
	return table, trajectory(e.ID, engines)
}

// matrixExperiments is the cross-section the matrix pins: a latency table, a
// contention-heavy hot spot, and an application kernel.
var matrixExperiments = []string{"numa", "hotspot", "fig5"}

// goldenRun returns experiment e's table and trajectory line as the quick
// and determinism goldens hold them: the default machine's output.
func goldenRun(t *testing.T, e core.Experiment) (string, string) {
	t.Helper()
	out := readGolden(t, "quick.golden")
	head := fmt.Sprintf("\n===== %s: %s =====\npaper: %s\n\n", e.ID, e.Title, e.Paper)
	i := strings.Index(out, head)
	if i < 0 {
		t.Fatalf("quick.golden has no section for %s", e.ID)
	}
	table := out[i+len(head):]
	if j := strings.Index(table, "\n===== "); j >= 0 {
		table = table[:j]
	}
	for _, line := range strings.Split(readGolden(t, "determinism.golden"), "\n") {
		if strings.HasPrefix(line, e.ID+" ") {
			return table, line
		}
	}
	t.Fatalf("determinism.golden has no line for %s", e.ID)
	return "", ""
}

// TestTopologyButterflyIsDefault: an explicit butterfly override must be
// byte-identical to the default machine — the invariant that keeps every
// pre-topology golden and cached fingerprint valid. The goldens hold the
// default machine's run, so one butterfly run per experiment checks it.
func TestTopologyButterflyIsDefault(t *testing.T) {
	for _, id := range matrixExperiments {
		e, ok := core.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		defTable, defFP := goldenRun(t, e)
		bflTable, bflFP := topologyRun(t, e, string(switchnet.Butterfly))
		if defTable != bflTable {
			t.Errorf("%s: -topology butterfly table differs from quick.golden %s", id, firstDiff(bflTable, defTable))
		}
		if defFP != bflFP {
			t.Errorf("trajectory drift: golden %s, butterfly %s", defFP, bflFP)
		}
	}
}

// TestTopologyMatrixDeterminism: every non-default family replays every
// matrix experiment bit-identically. The butterfly family is pinned by
// TestTopologyButterflyIsDefault against the goldens, which a replay check
// could only repeat.
func TestTopologyMatrixDeterminism(t *testing.T) {
	for _, topo := range switchnet.Topologies() {
		if topo == switchnet.Butterfly {
			continue
		}
		for _, id := range matrixExperiments {
			e, _ := core.Lookup(id)
			t1, f1 := topologyRun(t, e, string(topo))
			t2, f2 := topologyRun(t, e, string(topo))
			if t1 != t2 || f1 != f2 {
				t.Errorf("%s on %s: replay diverged (%s vs %s)", id, topo, f1, f2)
			}
		}
	}
}
