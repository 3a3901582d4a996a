package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// ledgerRow is one metric of one run: the single flat shape every
// measurement takes, so any two sets of runs can be diffed.
type ledgerRow struct {
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Seed     uint64  `json:"seed"`
	Run      string  `json:"run"`
	host
}

// layerOf names a metric's layer: its name up to the first dot, or
// end_to_end for the undotted end-to-end metrics.
func layerOf(d metricDef) string {
	if layer, _, ok := strings.Cut(d.name, "."); ok {
		return layer
	}
	return "end_to_end"
}

// appendLedger adds one run's rows to the ledger file at path.
func appendLedger(path string, c config, out *outcome) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	h := hostInfo(c.root)
	runID := fmt.Sprintf("%d-%d", time.Now().UnixNano(), os.Getpid())
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, d := range out.defs {
		s := out.stats[d.name]
		row := ledgerRow{Workload: c.workload, Layer: layerOf(d), Name: d.name, Unit: d.unit,
			Value: s.value, Samples: s.samples, Q1: s.q1, Q3: s.q3, Seed: c.seed, Run: runID, host: h}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLedger(path string) ([]ledgerRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []ledgerRow
	dec := json.NewDecoder(f)
	for {
		var row ledgerRow
		if err := dec.Decode(&row); errors.Is(err, io.EOF) {
			return rows, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, row)
	}
}

// benchmarkDef is the part of BENCHMARK.json -diff needs.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (benchmarkDef, error) {
	var def benchmarkDef
	b, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// side summarizes one metric's runs on one side of a diff.
type side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

// diffRow is one (workload, metric) pair of a diff.
type diffRow struct {
	Workload string   `json:"workload"`
	Layer    string   `json:"layer"`
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Bound    *float64 `json:"bound,omitempty"`
	Base     side     `json:"base"`
	Change   side     `json:"change"`
	// Worse is how much worse the change's median is than the base's, as
	// a share of the base's (negative: better); the plain difference when
	// the base's median is 0.
	Worse float64 `json:"worse"`
	Label string  `json:"label"`
}

// runDiff compares two ledgers metric by metric and workload by workload,
// labeling each pair improved, unchanged, regressed, or unresolved, and
// prints one JSON row per pair and a tally.
func runDiff(basePath, changePath, benchPath string, w io.Writer) error {
	def, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	type metric struct {
		better string
		bound  *float64
	}
	metrics := make(map[string]metric)
	for _, m := range def.EndToEnd {
		b := m.Bound
		metrics[m.Name] = metric{m.Better, &b}
	}
	for _, m := range def.PerLayer {
		metrics[m.Name] = metric{better: m.Better}
	}
	base, err := readLedger(basePath)
	if err != nil {
		return err
	}
	change, err := readLedger(changePath)
	if err != nil {
		return err
	}
	type key struct{ workload, name string }
	values := func(rows []ledgerRow) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range rows {
			k := key{r.Workload, r.Name}
			out[k] = append(out[k], r.Value)
		}
		return out
	}
	bv, cv := values(base), values(change)
	first := make(map[key]ledgerRow)
	for _, r := range base {
		if _, ok := first[key{r.Workload, r.Name}]; !ok {
			first[key{r.Workload, r.Name}] = r
		}
	}
	var keys []key
	for k := range bv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].name < keys[j].name
	})

	enc := json.NewEncoder(w)
	if len(base) > 0 && len(change) > 0 {
		if err := enc.Encode(map[string]host{"base_host": base[0].host, "change_host": change[0].host}); err != nil {
			return err
		}
	}
	tally := make(map[string]int)
	for _, k := range keys {
		m, ok := metrics[k.name]
		if !ok {
			continue // no longer in the benchmark
		}
		row := first[k]
		d := compare(bv[k], cv[k], m.better, m.bound)
		d.Workload, d.Layer, d.Name, d.Unit = k.workload, row.Layer, k.name, row.Unit
		if err := enc.Encode(d); err != nil {
			return err
		}
		tally[row.Layer+" "+d.Label]++
	}
	return enc.Encode(map[string]map[string]int{"tally": tally})
}

// compare labels one pair by the benchmark's rule. The change is improved
// when its median beats the base's by more than the base's quartile spread
// and it wins at least nine tenths of all (base, change) run pairs. With a
// bound, it is regressed when its median is worse by more than the bound,
// and unresolved when the base's own spread exceeds the bound and not
// every change run beats every base run. Without a bound, regressed
// mirrors improved.
func compare(a, b []float64, better string, bound *float64) diffRow {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	d := diffRow{Better: better, Bound: bound,
		Base:   side{ma, q1a, q3a, len(a)},
		Change: side{mb, q1b, q3b, len(b)}}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	d.Worse = sign * (mb - ma)
	if ma != 0 {
		d.Worse /= math.Abs(ma)
	}
	var wins, losses int
	for _, x := range a {
		for _, y := range b {
			switch {
			case sign*(y-x) < 0:
				wins++
			case sign*(y-x) > 0:
				losses++
			}
		}
	}
	pairs := float64(len(a) * len(b))
	apart := math.Abs(mb-ma) > q3a-q1a
	switch {
	case d.Worse < 0 && apart && float64(wins) >= 0.9*pairs:
		d.Label = "improved"
	case bound == nil && d.Worse > 0 && apart && float64(losses) >= 0.9*pairs:
		d.Label = "regressed"
	case bound == nil:
		d.Label = "unchanged"
	case ma != 0 && (q3a-q1a)/math.Abs(ma) > *bound && wins != len(a)*len(b):
		d.Label = "unresolved"
	case d.Worse > *bound:
		d.Label = "regressed"
	default:
		d.Label = "unchanged"
	}
	return d
}
