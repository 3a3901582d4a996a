package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// validName is the shape BENCHMARK.json allows for workload and metric
// names.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDefinitionsMatchBenchmark: the metrics the program emits are exactly
// the ones BENCHMARK.json declares, with the same units and directions, and
// every declared workload exists.
func TestDefinitionsMatchBenchmark(t *testing.T) {
	def, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(def.EndToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(def.EndToEnd), len(def.PerLayer))
	}
	type m struct{ unit, better string }
	declared := make(map[string]m)
	for _, d := range def.EndToEnd {
		declared[d.Name] = m{d.Unit, d.Better}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name != "setup_s" && d.Bound > def.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's; set-up must have the largest", d.Name, d.Bound)
		}
	}
	for _, d := range def.PerLayer {
		if _, dup := declared[d.Name]; dup {
			t.Errorf("%s declared twice", d.Name)
		}
		declared[d.Name] = m{d.Unit, d.Better}
	}
	if def.EndToEnd[0].Name != "setup_s" || def.EndToEnd[0].Unit != "s" {
		t.Errorf("the first end-to-end metric must be setup_s in s, got %s in %s", def.EndToEnd[0].Name, def.EndToEnd[0].Unit)
	}
	emitted := append(append([]metricDef(nil), endToEnd...), perLayer...)
	if len(emitted) != len(declared) {
		t.Errorf("program emits %d metrics, BENCHMARK.json declares %d", len(emitted), len(declared))
	}
	for _, d := range emitted {
		if !validName.MatchString(d.name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-] or is too long", d.name)
		}
		if got, ok := declared[d.name]; !ok || got != (m{d.unit, d.better}) {
			t.Errorf("%s: program says %s/%s, BENCHMARK.json %s/%s", d.name, d.unit, d.better, got.unit, got.better)
		}
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(raw.Workloads), len(workloads))
	}
	for _, w := range raw.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil || !validName.MatchString(w.Name) {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that each run is correct and emits exactly its metric set, each
// with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			out, err := execute(config{
				workload: w.name, seed: 1, seconds: 200 * time.Millisecond,
				trace: traced, smoke: true, root: "..",
				spans: filepath.Join(t.TempDir(), "spans.json"),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s",
					w.name, traced, out.Correct, out.Attempted, out.Failed, strings.Join(out.failures, "; "))
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := out.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, got, d.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", w.name, d.name, got.Value)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the method the benchmark's spreads are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // two samples: Python extrapolates
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestCompareLabels covers each label the diff gives.
func TestCompareLabels(t *testing.T) {
	bound := 0.1
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  *float64
		want   string
	}{
		{"same", []float64{100, 101, 102}, []float64{101, 100, 102}, "lower", &bound, "unchanged"},
		{"faster", []float64{100, 101, 102}, []float64{80, 81, 82}, "lower", &bound, "improved"},
		{"slower past the bound", []float64{100, 101, 102}, []float64{120, 121, 122}, "lower", &bound, "regressed"},
		{"slower within the bound", []float64{100, 101, 102}, []float64{105, 106, 107}, "lower", &bound, "unchanged"},
		{"base too noisy", []float64{80, 100, 120}, []float64{100, 101, 102}, "lower", &bound, "unresolved"},
		{"throughput down", []float64{100, 101, 102}, []float64{80, 81, 82}, "higher", &bound, "regressed"},
		{"per-layer up", []float64{10, 10, 10}, []float64{12, 12, 12}, "lower", nil, "regressed"},
		{"per-layer zero", []float64{0, 0, 0}, []float64{0, 0, 0}, "lower", nil, "unchanged"},
	} {
		if got := compare(tc.a, tc.b, tc.better, tc.bound).Label; got != tc.want {
			t.Errorf("%s: label %s, want %s", tc.name, got, tc.want)
		}
	}
}
