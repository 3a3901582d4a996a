// Golden SLO-report regression: the `service` experiment, run at quick
// scale under a fixed workload directive, must reproduce its full per-window
// SLO report byte-for-byte — every histogram quantile, every verdict, every
// queue-depth sample. This is the workload subsystem's determinism contract
// stated at its strongest: not just matching fingerprints, but the literal
// report a user would read, identical across runs, with probes attached, and
// under -race.
//
// Regenerate after an intentional model change with:
//
//	go test -run TestWorkloadReportGolden -update .
package main

import (
	"os"
	"path/filepath"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/machine"
	"butterfly/internal/probe"
	"butterfly/internal/workload"
)

// workloadGoldenDirectives is the pinned traffic config: bursty arrivals so
// the stream exercises the MMPP generator, detail so the report includes the
// per-window verdict table.
const workloadGoldenDirectives = "pattern bursty; rate 1200; burst-rate 4800; seed 11; detail"

// serviceReport runs the `service` experiment at quick scale under the
// pinned workload directive and returns the full report. attach, when
// non-nil, arms every machine (with a probe).
func serviceReport(t *testing.T, attach func(*machine.Machine)) string {
	t.Helper()
	e, ok := core.Lookup("service")
	if !ok {
		t.Fatal("service experiment not registered")
	}
	defer workload.Scope(workloadGoldenDirectives)()
	report, _ := quickRun(t, e, nil, attach)
	return report
}

func TestWorkloadReportGolden(t *testing.T) {
	got := serviceReport(t, nil)
	if *updateGolden {
		if err := os.WriteFile(filepath.Join("testdata", "slo_service.golden"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("wrote testdata/slo_service.golden")
		return
	}
	checkGolden(t, "slo_service.golden", got)

	// Probes attached: a second run, still byte-identical (observation must
	// not perturb), and the probe must actually have seen traffic.
	var c probe.Counter
	checkGolden(t, "slo_service.golden", serviceReport(t, func(m *machine.Machine) { m.AttachProbe(probe.New(&c)) }))
	if c.Total() == 0 {
		t.Error("probe recorded no events during the workload run")
	}
}
