package lab

import (
	"runtime"
	"testing"
	"time"

	"butterfly/internal/core"
)

// TestRunReleasesGoroutines: a finished run keeps no goroutine alive, and
// prints its golden table. A deadlocked or interrupted engine used to leave
// its blocked processes (and an Ant Farm its parked threads) parked
// forever, each pinning its machine, so a long-lived daemon grew by every
// such job it ran.
func TestRunReleasesGoroutines(t *testing.T) {
	tables, _ := goldens(t)
	// spread at full scale runs for seconds; a 25 ms budget always expires
	// with processes mid-flight.
	specs := []core.Spec{{Experiment: "spread", TimeoutMs: 25}}
	for _, e := range core.Experiments() {
		specs = append(specs, core.Spec{Experiment: e.ID, Quick: true})
	}
	for _, spec := range specs {
		before := runtime.NumGoroutine()
		if res, err := RunSpec(spec); spec.TimeoutMs == 0 && (err != nil || res.Table != tables[spec.Experiment]) {
			t.Errorf("%s: error %v, or its table diverges from quick.golden", spec.Experiment, err)
		}
		if after := settledGoroutines(before); after > before {
			t.Errorf("%s (timeout %d ms): %d goroutines after the run, %d before",
				spec.Experiment, spec.TimeoutMs, after, before)
		}
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall to
// want — a goroutine that is exiting still counts until it is gone — and
// returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}
