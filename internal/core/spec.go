package core

import (
	"fmt"
	"sort"

	"butterfly/internal/fault"
	"butterfly/internal/machine"
	"butterfly/internal/switchnet"
	"butterfly/internal/workload"
)

// Spec is the serializable description of one experiment job: which
// experiment to run, at what scale, on what machine, under what fault
// schedule, and with what observation attached. It is the unit the
// experiment lab queues, fingerprints, and caches — two specs that
// canonicalize identically name the same deterministic simulation and
// therefore the same result.
type Spec struct {
	// Experiment is the registry id (`butterflybench -list`).
	Experiment string `json:"experiment"`
	// Quick selects the reduced-scale variant used by tests and smoke runs.
	Quick bool `json:"quick,omitempty"`
	// Preset, when non-empty, rebuilds every machine the experiment boots
	// with the named hardware preset at its requested node count: "b1"
	// (Butterfly I), "bfp" (floating-point upgrade), "bplus" (Butterfly
	// Plus). Empty keeps each experiment's own choice.
	Preset string `json:"preset,omitempty"`
	// Nodes, when positive, overrides the node count of every machine the
	// experiment boots. Only meaningful for experiments whose topology
	// scales with the machine (e.g. numa); an experiment that indexes nodes
	// beyond the override fails with a machine-range error.
	Nodes int `json:"nodes,omitempty"`
	// Faults is a fault-schedule directive string (internal/fault syntax,
	// e.g. "seed 7; drop 0.001; kill 5 @ 10ms"). Applied to every machine
	// the experiment boots, exactly like `butterflybench -faults` — unless
	// the experiment manages its own injectors.
	Faults string `json:"faults,omitempty"`
	// FaultSeed, when non-nil, overrides the schedule's seed. A pointer so
	// that an explicit seed of 0 is distinguishable from "unset".
	FaultSeed *uint64 `json:"fault_seed,omitempty"`
	// Workload is a workload directive string (internal/workload syntax,
	// e.g. "pattern bursty; rate 6000; seed 7; duration 60ms") overlaid on
	// a workload-driven experiment's default traffic config, exactly like
	// `butterflybench -workload`. Valid only for experiments marked
	// WorkloadDriven; it changes the printed table, so it participates in
	// the lab cache fingerprint.
	Workload string `json:"workload,omitempty"`
	// Topology, when non-empty, rebuilds every machine the experiment boots
	// on the named interconnect family: "butterfly" (the default machine),
	// "fattree", "dragonfly", or "mesh". The link calibration (hop latency,
	// port bandwidth) carries over; only the wiring changes. It changes
	// every remote-reference latency, so it participates in the lab cache
	// fingerprint; the empty string canonicalizes identically to specs that
	// predate the axis.
	Topology string `json:"topology,omitempty"`
	// Probe attaches observability probes to every machine; the contention
	// report lands in Result.ProbeReport (never interleaved with other
	// jobs' output).
	Probe bool `json:"probe,omitempty"`
	// TimeoutMs bounds the job's wall-clock execution time; 0 means no
	// bound. A timed-out job's engines are interrupted and the job fails.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Retries is how many times a retryable failure (timeout — the only
	// nondeterministic one) is retried. Fault-injected failures are
	// deterministic, so retrying them is pointless and not attempted.
	Retries int `json:"retries,omitempty"`
}

// presets maps Spec.Preset names to machine-config constructors.
var presets = map[string]func(int) machine.Config{
	"b1":    ButterflyI,
	"bfp":   ButterflyFP,
	"bplus": ButterflyPlus,
}

// PresetNames lists the valid Spec.Preset values, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks the spec against the registry and the fault-schedule
// grammar, returning a descriptive error for anything a remote submitter
// could get wrong.
func (s Spec) Validate() error {
	if s.Experiment == "" {
		return fmt.Errorf("spec: experiment id is required")
	}
	if _, ok := Lookup(s.Experiment); !ok {
		return fmt.Errorf("spec: unknown experiment %q", s.Experiment)
	}
	if s.Preset != "" {
		if _, ok := presets[s.Preset]; !ok {
			return fmt.Errorf("spec: unknown preset %q (valid: %v)", s.Preset, PresetNames())
		}
	}
	if s.Nodes < 0 {
		return fmt.Errorf("spec: nodes must be >= 0, got %d", s.Nodes)
	}
	if s.Faults != "" {
		if _, err := fault.ParseConfig(s.Faults); err != nil {
			return fmt.Errorf("spec: faults: %w", err)
		}
	} else if s.FaultSeed != nil {
		return fmt.Errorf("spec: fault_seed has no effect without faults")
	}
	if s.Workload != "" {
		exp, _ := Lookup(s.Experiment)
		if !exp.WorkloadDriven {
			return fmt.Errorf("spec: experiment %q is not workload-driven", s.Experiment)
		}
		if _, err := workload.Parse(s.Workload, workload.Default()); err != nil {
			return fmt.Errorf("spec: workload: %w", err)
		}
	}
	if s.Topology != "" {
		if _, err := switchnet.ParseTopology(s.Topology); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	if s.TimeoutMs < 0 {
		return fmt.Errorf("spec: timeout_ms must be >= 0, got %d", s.TimeoutMs)
	}
	if s.Retries < 0 {
		return fmt.Errorf("spec: retries must be >= 0, got %d", s.Retries)
	}
	return nil
}

// FaultConfig resolves the spec's fault schedule (with any seed override
// applied), or nil when the spec injects no faults. Call after Validate.
func (s Spec) FaultConfig() (*fault.Config, error) {
	if s.Faults == "" {
		return nil, nil
	}
	cfg, err := fault.ParseConfig(s.Faults)
	if err != nil {
		return nil, err
	}
	if s.FaultSeed != nil {
		cfg.Seed = *s.FaultSeed
	}
	return cfg, nil
}

// ConfigTransform returns the machine-config rewrite this spec implies, to
// be applied to every machine the experiment boots (via the machine
// package's scoped construction hooks), or nil when the spec requests no
// override.
func (s Spec) ConfigTransform() func(machine.Config) machine.Config {
	if s.Preset == "" && s.Nodes == 0 && s.Topology == "" {
		return nil
	}
	return func(c machine.Config) machine.Config {
		nodes := c.Nodes
		if s.Nodes > 0 {
			nodes = s.Nodes
		}
		out := c
		if s.Preset != "" {
			out = presets[s.Preset](nodes)
			// The contention shortcut is a per-experiment modelling choice,
			// not a hardware property: preserve it.
			out.NoSwitchContention = c.NoSwitchContention
		} else if s.Nodes > 0 {
			out.Nodes = nodes
			// Force machine.New to re-derive the switch topology for the
			// new node count.
			out.Net = switchnet.Config{}
		}
		if s.Topology != "" {
			// ParseTopology canonicalizes "" and "butterfly" to the same
			// family, and Validate has already rejected unknown names.
			t, _ := switchnet.ParseTopology(s.Topology)
			out.Topology = t
		}
		return out
	}
}

// Result is the structured outcome of one executed (or cache-served) spec.
type Result struct {
	// Spec is the job that produced this result.
	Spec Spec `json:"spec"`
	// Fingerprint is the content address the lab cached the result under
	// (empty when produced outside the lab).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Table is the experiment's stdout: the paper table or figure text,
	// byte-identical to a sequential `butterflybench` run.
	Table string `json:"table"`
	// Machines, Events, and VTimeNs fingerprint the simulation trajectory:
	// machines booted, total engine events executed, and summed final
	// virtual clocks — the same reduction testdata/determinism.golden pins.
	Machines int    `json:"machines"`
	Events   uint64 `json:"events"`
	VTimeNs  int64  `json:"vtime_ns"`
	// WallNs is how long the producing run took in wall-clock time (the
	// original run's time when served from cache).
	WallNs int64 `json:"wall_ns"`
	// Attempts counts executions including retries (1 for a first-try
	// success; 0 for a pure cache hit).
	Attempts int `json:"attempts,omitempty"`
	// ProbeReport is the per-machine contention report when Spec.Probe was
	// set.
	ProbeReport string `json:"probe_report,omitempty"`
	// CacheHit marks a result served from the content-addressed cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// EventsPerSec is the simulator's throughput while producing this result.
func (r *Result) EventsPerSec() float64 {
	if r.WallNs <= 0 {
		return 0
	}
	return float64(r.Events) / (float64(r.WallNs) / 1e9)
}
