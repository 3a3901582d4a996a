// Topology-matrix determinism: the interconnect axis must never perturb the
// default physics — an explicit -topology butterfly is byte-identical to no
// flag at all (so every seed golden stays valid) — and each non-default
// family must itself be run-to-run deterministic. This is the in-repo twin
// of the CI topology-matrix step.
package main

import (
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

// TestTopologyButterflyIsDefault: an explicit butterfly override must be
// byte-identical to the default machine — the invariant that keeps every
// pre-topology golden and cached fingerprint valid.
func TestTopologyButterflyIsDefault(t *testing.T) {
	for _, id := range matrixExperiments {
		e, ok := core.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		defTable, defFP := topologyRun(t, e, "")
		bflTable, bflFP := topologyRun(t, e, string(switchnet.Butterfly))
		if defTable != bflTable {
			t.Errorf("%s: -topology butterfly table differs from default", id)
		}
		if defFP != bflFP {
			t.Errorf("trajectory drift: default %s, butterfly %s", defFP, bflFP)
		}
	}
}

// TestTopologyMatrixDeterminism: every family replays every matrix
// experiment bit-identically.
func TestTopologyMatrixDeterminism(t *testing.T) {
	for _, topo := range switchnet.Topologies() {
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
