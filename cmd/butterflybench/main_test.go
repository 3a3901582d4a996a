package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/lab"
)

// TestBackendsAgree runs each flag set through the in-process, scheduler,
// and remote backends and requires byte-identical stdout, banners
// included: a spec is the whole input of a run, whichever backend
// executes it.
func TestBackendsAgree(t *testing.T) {
	sched := lab.NewScheduler(lab.Config{Workers: 2})
	defer sched.Shutdown(context.Background())
	srv := lab.NewServer(lab.ServerConfig{})
	srv.Attach(sched)
	remote := httptest.NewServer(srv)
	defer remote.Close()

	seed := uint64(7)
	cases := []struct {
		name string
		exp  string
		o    runOpts
	}{
		{"numa", "numa", runOpts{}},
		{"hotspot-faults", "hotspot", runOpts{faults: "seed 7; drop 0.002"}},
		{"hotspot-fault-seed", "hotspot", runOpts{faults: "seed 1; drop 0.002", faultSeed: &seed}},
		{"service-workload", "service", runOpts{workload: "pattern bursty; rate 3000; seed 3"}},
		{"numa-fattree", "numa", runOpts{topology: "fattree"}},
		// degrade manages its own faults: -faults must be ignored on every
		// backend, not just the ones that go through a scheduler.
		{"degrade-faults", "degrade", runOpts{faults: "seed 3; drop 0.01"}},
	}
	backends := []struct {
		name string
		set  func(*runOpts)
	}{
		{"in-process", func(o *runOpts) { o.backend = inProcessBackend }},
		{"scheduler", func(o *runOpts) { o.backend, o.parallel = schedulerBackend, 2 }},
		{"remote", func(o *runOpts) { o.backend, o.server = remoteBackend, remote.URL }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exps := []core.Experiment{experiment(tc.exp)}
			var want []byte
			for _, b := range backends {
				o := tc.o
				o.quick = true
				b.set(&o)
				var out bytes.Buffer
				if err := run(&out, io.Discard, exps, o); err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				if want == nil {
					want = out.Bytes()
					continue
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("%s stdout differs from %s:\n--- %s\n%s\n--- %s\n%s",
						b.name, backends[0].name, backends[0].name, want, b.name, out.Bytes())
				}
			}
		})
	}
}

// TestManagedFaultsIgnored pins what the degrade case above relies on: an
// experiment that manages its own faults prints the same table with and
// without -faults.
func TestManagedFaultsIgnored(t *testing.T) {
	exps := []core.Experiment{experiment("degrade")}
	var plain, faulted bytes.Buffer
	if err := run(&plain, io.Discard, exps, runOpts{quick: true}); err != nil {
		t.Fatal(err)
	}
	if err := run(&faulted, io.Discard, exps, runOpts{quick: true, faults: "seed 3; drop 0.01"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), faulted.Bytes()) {
		t.Errorf("-faults changed degrade's table:\n--- plain\n%s\n--- faulted\n%s", plain.Bytes(), faulted.Bytes())
	}
}

// TestValidateBeforeRun: a flag set some spec rejects fails the whole batch
// before any experiment prints.
func TestValidateBeforeRun(t *testing.T) {
	numa := experiment("numa")
	seed := uint64(0)
	cases := []struct {
		name string
		exps []core.Experiment
		o    runOpts
	}{
		{"bad-faults", []core.Experiment{numa}, runOpts{faults: "drop lots"}},
		{"seed-without-faults", []core.Experiment{numa}, runOpts{faultSeed: &seed}},
		{"bad-workload", []core.Experiment{experiment("service")}, runOpts{workload: "pattern sideways"}},
		{"bad-topology", []core.Experiment{numa}, runOpts{topology: "torus"}},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		tc.o.quick = true
		if err := run(&out, io.Discard, tc.exps, tc.o); err == nil {
			t.Errorf("%s: run accepted the flag set", tc.name)
		}
		if out.Len() != 0 {
			t.Errorf("%s: %d bytes printed before validation failed", tc.name, out.Len())
		}
	}
}

// TestTimingReportsEngineCounters: an in-process -timing run reports, on
// stderr, one line per experiment that carries the engine counters only an
// in-process run can read, and leaves stdout to the table.
func TestTimingReportsEngineCounters(t *testing.T) {
	var stdout, stderr bytes.Buffer
	o := runOpts{quick: true, timing: true}
	if err := run(&stdout, &stderr, []core.Experiment{experiment("hotspot")}, o); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^\[timing\] hotspot +wall=\S+ .* events=[1-9]\d* .* parks=[1-9]\d* lazyflushes=\d+ maxheap=[1-9]\d*$`)
	if n := len(re.FindAllIndex(stderr.Bytes(), -1)); n != 1 {
		t.Errorf("%d lines match %s in -timing output:\n%s", n, re, stderr.Bytes())
	}
	if strings.Contains(stdout.String(), "[timing]") {
		t.Errorf("-timing wrote to stdout:\n%s", stdout.Bytes())
	}
}

// experiment looks up a registered experiment by id.
func experiment(id string) core.Experiment {
	exp, _ := core.Lookup(id)
	return exp
}
