// Cross-partition identity: the partitioned engine's contract is that the
// partition count trades wall-clock time and nothing else. These tests pin
// it at the level users see — registered experiments — complementing the
// engine-level invariance suite in internal/sim and the reference-model
// suite in internal/machine: every partitionable experiment must print a
// byte-identical table and walk a bit-identical trajectory at 1, 2, 4, and
// 8 partitions, including with one OS processor (the graceful-degradation
// path, where windows execute sequentially).
package main

import (
	"fmt"
	"runtime"
	"testing"

	"butterfly/internal/core"
)

// partitionedRun executes one experiment at quick scale with its machines
// raised to the given partition count, returning the printed table and the
// trajectory, cross-partition exchanges included.
func partitionedRun(t *testing.T, e core.Experiment, parts int) (table, fingerprint string) {
	t.Helper()
	table, engines := quickRun(t, e, core.Spec{Partitions: parts}.ConfigTransform(), nil)
	var exchanges uint64
	for _, eng := range engines {
		exchanges += eng.Stats().Exchanges
	}
	return table, fmt.Sprintf("%s exchanges=%d", trajectory(e.ID, engines), exchanges)
}

// TestPartitionableExperimentsExist guards the registry wiring: the byte-
// identity suite below must never silently become a no-op.
func TestPartitionableExperimentsExist(t *testing.T) {
	for _, e := range core.Experiments() {
		if e.Partitionable {
			return
		}
	}
	t.Fatal("no partitionable experiments registered")
}

// TestPartitionCountByteIdentity is the user-facing determinism oracle for
// the partitioned engine: same table bytes, same trajectory, at every
// partition count.
func TestPartitionCountByteIdentity(t *testing.T) {
	for _, e := range core.Experiments() {
		if !e.Partitionable {
			continue
		}
		refTable, refFP := partitionedRun(t, e, 1)
		for _, parts := range []int{2, 4, 8} {
			table, fp := partitionedRun(t, e, parts)
			if table != refTable {
				t.Errorf("%s: table at %d partitions differs from the 1-partition reference", e.ID, parts)
			}
			if fp != refFP {
				t.Errorf("%s: trajectory at %d partitions: %s, want %s", e.ID, parts, fp, refFP)
			}
		}
	}
}

// TestPartitionedExperimentsGOMAXPROCS1 pins graceful degradation end to
// end: with one OS processor the coordinator runs each window's partitions
// sequentially, and experiments still produce the multi-core results.
func TestPartitionedExperimentsGOMAXPROCS1(t *testing.T) {
	for _, e := range core.Experiments() {
		if !e.Partitionable {
			continue
		}
		refTable, refFP := partitionedRun(t, e, 4)
		prev := runtime.GOMAXPROCS(1)
		table, fp := partitionedRun(t, e, 4)
		runtime.GOMAXPROCS(prev)
		if table != refTable || fp != refFP {
			t.Errorf("%s: GOMAXPROCS=1 run differs: %s, want %s", e.ID, fp, refFP)
		}
	}
}
