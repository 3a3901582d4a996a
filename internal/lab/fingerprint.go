// Package lab is the parallel experiment-execution service: a job model over
// the core experiment registry, a bounded work queue feeding a pool of
// workers that run independent simulations concurrently on separate OS
// threads, a content-addressed result cache that short-circuits re-execution
// of identical jobs, and parameter-sweep fan-out.
//
// The design leans on one property the whole repository is built around:
// every simulation is sequential-deterministic and self-contained. A job's
// canonicalized spec therefore names its result — the same spec always
// produces byte-identical tables and the same trajectory fingerprint — which
// makes experiment runs embarrassingly parallel across OS threads and makes
// results safely cacheable by content address.
package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime/debug"
	"sort"
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/fault"
)

// cacheSchema versions the canonical spec encoding and the Result layout.
// Bump it when either changes shape, so stale blobs are never deserialized.
const cacheSchema = "butterfly-lab-v1"

// canonicalSpec is the fingerprinted projection of a core.Spec: only the
// fields that determine the simulation's output, with the fault schedule
// resolved to its parsed form so that two spellings of the same schedule
// ("drop 0.001; seed 7" vs "seed 7; drop 0.001") address the same result.
// Execution policy (timeout, retries) deliberately does not participate.
type canonicalSpec struct {
	Schema     string        `json:"schema"`
	Code       string        `json:"code"`
	Experiment string        `json:"experiment"`
	Quick      bool          `json:"quick"`
	Preset     string        `json:"preset"`
	Nodes      int           `json:"nodes"`
	Faults     *fault.Config `json:"faults,omitempty"`
	// Workload is fingerprinted as the raw directive string: two spellings
	// of the same workload are merely a cache miss, never a wrong hit.
	// omitempty keeps every pre-workload fingerprint stable.
	Workload string `json:"workload,omitempty"`
	// Topology changes every remote-reference latency, so it addresses a
	// distinct result. omitempty keeps every topology-less fingerprint
	// stable; an explicit "butterfly" is merely a cache miss against the
	// default spelling, never a wrong hit.
	Topology string `json:"topology,omitempty"`
	Probe    bool   `json:"probe"`
}

// codeVersion is the code salt mixed into every fingerprint: a result is
// only addressable by a spec if it was produced by the same revision of the
// simulator. Built once — debug.ReadBuildInfo walks the whole build graph.
var codeVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			return rev + "+dirty=" + modified
		}
	}
	// No VCS stamp (go test binaries, vendored builds): all such builds
	// share one salt, so a developer editing simulation code should clear
	// results/cache or run with caching off.
	return "unstamped"
})

// Fingerprint returns the content address of the spec's result: a SHA-256
// over the canonical spec encoding, salted with the cache schema and the
// code version. Spec must have passed Validate (an unparseable fault
// schedule panics here rather than silently fingerprinting the raw string).
func Fingerprint(spec core.Spec) string {
	cfg, err := spec.FaultConfig()
	if err != nil {
		panic("lab: Fingerprint on unvalidated spec: " + err.Error())
	}
	if cfg != nil && len(cfg.Failures) > 1 {
		// Failure order within a schedule is not semantic (the injector
		// applies them by time): sort so equivalent schedules hash equal.
		sorted := append([]fault.NodeFailure(nil), cfg.Failures...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].At != sorted[j].At {
				return sorted[i].At < sorted[j].At
			}
			return sorted[i].Node < sorted[j].Node
		})
		cfg.Failures = sorted
	}
	c := canonicalSpec{
		Schema:     cacheSchema,
		Code:       codeVersion(),
		Experiment: spec.Experiment,
		Quick:      spec.Quick,
		Preset:     spec.Preset,
		Nodes:      spec.Nodes,
		Faults:     cfg,
		Workload:   spec.Workload,
		Topology:   spec.Topology,
		Probe:      spec.Probe,
	}
	b, err := json.Marshal(c)
	if err != nil {
		panic("lab: canonical spec not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
