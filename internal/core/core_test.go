package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPresets(t *testing.T) {
	b1 := ButterflyI(128)
	if b1.Nodes != 128 || b1.FlopNs < 10_000 {
		t.Errorf("ButterflyI = %+v", b1)
	}
	fp := ButterflyFP(16)
	if fp.FlopNs >= b1.FlopNs {
		t.Error("FP upgrade not faster")
	}
	plus := ButterflyPlus(64)
	// §4.1: local references improved 4x, remote only 2x.
	if plus.MemCycleNs*4 != b1.MemCycleNs {
		t.Errorf("Plus memory cycle = %d", plus.MemCycleNs)
	}
	if plus.PNCOverheadNs*2 != b1.PNCOverheadNs {
		t.Errorf("Plus PNC overhead = %d", plus.PNCOverheadNs)
	}
}

func TestBoot(t *testing.T) {
	m, os := Boot(ButterflyI(4))
	if m == nil || os == nil || os.M != m {
		t.Fatal("Boot wiring wrong")
	}
	if m.N() != 4 {
		t.Errorf("nodes = %d", m.N())
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig5", "numa", "hough", "spread", "hotspot", "switch", "prims", "darpa",
		"crowd", "alloc", "replay", "bridge", "connect", "speedups", "fig6",
		"sarcache", "models", "vision", "rpc", "psyche", "search", "pedagogy",
		"degrade", "service", "saturate", "calibrate", "brownout", "streamnuma",
		"combine",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
	if _, ok := Lookup("nonesuch"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func TestExperimentMetadata(t *testing.T) {
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
	}
}

// quickGolden reads the module's testdata/quick.golden, which the root
// package's TestExperimentDeterminism holds a run of the registry to, and
// splits it into each experiment's table, keyed by id. The tests here check
// the golden itself, so a wrong -update cannot bake in a broken table.
func quickGolden(t *testing.T) (golden string, tables map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	tables = make(map[string]string)
	for _, sec := range strings.Split(string(b), "\n===== ")[1:] {
		id, _, _ := strings.Cut(sec, ":")
		_, tables[id], _ = strings.Cut(sec, "\n\n")
	}
	return string(b), tables
}

// TestEveryExperimentQuick: the quick golden holds every registered
// experiment, in registry order, under its banner and paper line, with a
// non-empty table — so every experiment ran to completion at quick scale.
func TestEveryExperimentQuick(t *testing.T) {
	golden, tables := quickGolden(t)
	var want strings.Builder
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			if strings.TrimSpace(tables[e.ID]) == "" {
				t.Errorf("quick.golden holds no table for %s", e.ID)
			}
		})
		fmt.Fprintf(&want, "\n===== %s: %s =====\npaper: %s\n\n%s", e.ID, e.Title, e.Paper, tables[e.ID])
	}
	if want.String() != golden {
		t.Error("quick.golden's banners, paper lines, or experiment list do not match the registry")
	}
}

// TestQuickClaimsHold: a few qualitative paper claims hold at quick scale.
func TestQuickClaimsHold(t *testing.T) {
	_, tables := quickGolden(t)
	var ratio float64
	_, rest, _ := strings.Cut(tables["numa"], "remote/local ratio:")
	if _, err := fmt.Sscan(rest, &ratio); err != nil || ratio <= 1 {
		t.Errorf("numa: remote/local ratio %.2f, want remote references slower than local:\n%s", ratio, tables["numa"])
	}
	if !strings.Contains(tables["fig6"], "deadlock reproduced") {
		t.Errorf("fig6 did not reproduce the deadlock:\n%s", tables["fig6"])
	}
}
