package fleet

import (
	"fmt"
	"math/bits"

	"butterfly/internal/core"
)

// PlacementKey derives the ring key a job is placed by. Results stay
// content-addressed by fingerprint — the key only decides *where* a spec
// runs, never what its result is called — so placement can afford to be
// coarser than identity: numeric sweep axes are bucketed (nodes by power of
// two, fault seeds in runs of 16) so a sweep's axis-neighbors pin to the
// same worker. When the next refinement of a sweep densifies an axis, its
// new points land on the worker whose content-addressed cache already holds
// the neighboring (and any repeated) results, and whose ring siblings are
// one probe away for the rest.
func PlacementKey(spec core.Spec) string {
	nodes := spec.Nodes
	if nodes < 0 {
		nodes = 0
	}
	var seedBucket uint64
	if spec.FaultSeed != nil {
		seedBucket = 1 + *spec.FaultSeed/16
	}
	return fmt.Sprintf("%s|%s|%t|%s|%s|%s|n%d|s%d",
		spec.Experiment, spec.Preset, spec.Quick, spec.Topology,
		spec.Workload, spec.Faults, bits.Len(uint(nodes)), seedBucket)
}
