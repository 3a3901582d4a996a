// Package core is the public face of the Butterfly reproduction: machine
// presets matching the hardware generations the paper describes, boot
// helpers that assemble a machine with its Chrysalis instance, and the
// experiment registry that regenerates every table and figure of the paper
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for measured
// results).
package core

import (
	"fmt"
	"io"

	"butterfly/internal/chrysalis"
	"butterfly/internal/machine"
)

// ButterflyI returns the configuration of the original Butterfly-I node:
// 8 MHz MC68000 with software floating point, 1 MB memory, PNC-mediated
// remote references at about 4 µs.
func ButterflyI(nodes int) machine.Config {
	return machine.DefaultConfig(nodes)
}

// ButterflyFP returns the 1986 floating-point upgrade (MC68020 + MC68881
// daughter board): the department built a 16-node machine of these.
func ButterflyFP(nodes int) machine.Config {
	return machine.HardwareFloatConfig(nodes)
}

// ButterflyPlus approximates the Butterfly Plus (Butterfly 1000 series)
// relative improvements quoted in §4.1: local references improved by a
// factor of four, remote references by only a factor of two — so locality
// matters even more.
func ButterflyPlus(nodes int) machine.Config {
	c := machine.DefaultConfig(nodes)
	c.MemCycleNs /= 4
	c.LocalOverheadNs /= 4
	c.PNCOverheadNs /= 2
	c.Net.HopLatency /= 2
	c.Net.BytesPerSecond *= 2
	c.FlopNs = 4_000
	c.IntOpNs = 125
	return c
}

// Boot assembles a machine with a fresh Chrysalis instance.
func Boot(cfg machine.Config) (*machine.Machine, *chrysalis.OS) {
	m := machine.New(cfg)
	return m, chrysalis.New(m)
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the short name used by `butterflybench -experiment <id>` (and
	// the DESIGN.md experiment index).
	ID string
	// Title is a one-line description.
	Title string
	// Paper quotes the claim being reproduced.
	Paper string
	// Run executes the experiment, writing its table to w. quick selects a
	// reduced-scale variant for tests and smoke runs.
	Run func(w io.Writer, quick bool) error
	// ManagesFaults marks experiments that attach their own fault injectors:
	// a spec's faults (Spec.Faults, `butterflybench -faults`) are ignored
	// for them, and the lab never attaches an injector to their machines.
	ManagesFaults bool
	// WorkloadDriven marks experiments that serve an open-loop workload:
	// they honor a workload directive string (Spec.Workload,
	// `butterflybench -workload`) overlaid on their default traffic config.
	WorkloadDriven bool
}

// registry is populated by experiments.go.
var registry []Experiment

// register adds an experiment at package init time. Duplicate ids would make
// Lookup (and every job fingerprint derived from an id) ambiguous, so they
// are rejected loudly.
func register(e Experiment) {
	for _, x := range registry {
		if x.ID == e.ID {
			panic(fmt.Sprintf("core: duplicate experiment id %q", e.ID))
		}
	}
	registry = append(registry, e)
}

// Experiments lists every registered experiment in registration order.
func Experiments() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
