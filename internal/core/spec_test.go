package core

import (
	"fmt"
	"strings"
	"testing"

	"butterfly/internal/machine"
)

func TestSpecValidate(t *testing.T) {
	seed := uint64(0)
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, "" for valid
	}{
		{"valid minimal", Spec{Experiment: "numa"}, ""},
		{"valid full", Spec{Experiment: "numa", Quick: true, Preset: "bplus", Nodes: 16,
			Faults: "seed 7; kill 3 @ 10ms", FaultSeed: &seed, Probe: true, TimeoutMs: 1000, Retries: 2}, ""},
		{"missing experiment", Spec{}, "experiment id is required"},
		{"unknown experiment", Spec{Experiment: "nonesuch"}, "unknown experiment"},
		{"unknown preset", Spec{Experiment: "numa", Preset: "cray"}, "unknown preset"},
		{"negative nodes", Spec{Experiment: "numa", Nodes: -4}, "nodes must be"},
		{"bad faults", Spec{Experiment: "numa", Faults: "frobnicate everything"}, "faults"},
		{"seed without faults", Spec{Experiment: "numa", FaultSeed: &seed}, "no effect without faults"},
		{"negative timeout", Spec{Experiment: "numa", TimeoutMs: -1}, "timeout_ms"},
		{"negative retries", Spec{Experiment: "numa", Retries: -1}, "retries"},
		{"valid partitioned", Spec{Experiment: "pgauss", Partitions: 4}, ""},
		{"negative partitions", Spec{Experiment: "pgauss", Partitions: -1}, "partitions must be"},
		{"partitions on non-partitionable", Spec{Experiment: "numa", Partitions: 2}, "not partitionable"},
		{"partitions with faults", Spec{Experiment: "pgauss", Partitions: 2,
			Faults: "seed 7; drop 0.001"}, "incompatible"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecFaultConfig(t *testing.T) {
	cfg, err := Spec{Experiment: "numa"}.FaultConfig()
	if err != nil || cfg != nil {
		t.Fatalf("no-fault spec: cfg=%v err=%v", cfg, err)
	}
	seed := uint64(99)
	cfg, err = Spec{Experiment: "numa", Faults: "seed 7; drop 0.001", FaultSeed: &seed}.FaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 99 {
		t.Errorf("seed override not applied: %d", cfg.Seed)
	}
	// An explicit override of zero must win over the schedule's own seed —
	// the sentinel bug the pointer exists to avoid.
	zero := uint64(0)
	cfg, err = Spec{Experiment: "numa", Faults: "seed 7; drop 0.001", FaultSeed: &zero}.FaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 0 {
		t.Errorf("explicit zero seed lost: %d", cfg.Seed)
	}
}

func TestSpecConfigTransform(t *testing.T) {
	if tr := (Spec{Experiment: "numa"}).ConfigTransform(); tr != nil {
		t.Error("no-override spec should not transform configs")
	}

	base := machine.DefaultConfig(8)
	base.NoSwitchContention = true

	got := (Spec{Experiment: "numa", Nodes: 32}).ConfigTransform()(base)
	if got.Nodes != 32 {
		t.Errorf("nodes override: got %d", got.Nodes)
	}
	if got.Net.Nodes != 0 {
		t.Error("nodes override must clear Net so machine.New re-derives the topology")
	}

	got = (Spec{Experiment: "numa", Preset: "bplus"}).ConfigTransform()(base)
	if got.MemCycleNs*4 != base.MemCycleNs {
		t.Errorf("preset rebuild: MemCycleNs = %d", got.MemCycleNs)
	}
	if !got.NoSwitchContention {
		t.Error("preset rebuild must preserve the experiment's contention shortcut")
	}

	got = (Spec{Experiment: "numa", Preset: "bfp", Nodes: 64}).ConfigTransform()(base)
	if got.Nodes != 64 {
		t.Errorf("preset+nodes: got %d nodes", got.Nodes)
	}

	// Partitions is raise-only: it retunes machines already built for the
	// partitioned model and must never drag a sequential-model experiment's
	// machines (Partitions == 0) into windowed mode.
	got = (Spec{Experiment: "pgauss", Partitions: 4}).ConfigTransform()(base)
	if got.Partitions != 0 {
		t.Errorf("partitions forced onto a sequential config: got %d", got.Partitions)
	}
	partitioned := base
	partitioned.Partitions = 1
	got = (Spec{Experiment: "pgauss", Partitions: 4}).ConfigTransform()(partitioned)
	if got.Partitions != 4 {
		t.Errorf("partitions not raised: got %d", got.Partitions)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	before := len(Experiments())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("registering a duplicate id did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "duplicate experiment id") {
			t.Fatalf("panic = %v", r)
		}
		// The rejected registration must not have grown the registry.
		if n := len(Experiments()); n != before {
			t.Errorf("registry grew from %d to %d entries", before, n)
		}
	}()
	register(Experiment{ID: "numa", Title: "imposter", Run: nil})
}
