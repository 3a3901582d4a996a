package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricDef is one metric BENCHMARK.json declares. in lists the workloads
// that measure it (nil: every workload). A per-layer metric reads 0 on a
// workload that does not cross its layer; every per-layer metric a workload
// does not measure is a count or a ratio, never a time, so no time metric
// reads the same constant on every run.
type metricDef struct {
	name, unit, better string
	in                 []string
}

var (
	registryW = []string{"registry-quick"}
	singleW   = []string{"single-node"}
)

// endToEnd are the metrics a user of the system sees. The operation behind
// op_ms and the work behind work_per_s are defined per workload in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", nil},
	{"op_ms", "ms", "lower", nil},
	{"work_per_s", "1/s", "higher", nil},
	{"rss_p95_mb", "MB", "lower", nil},
}

// coreShares names the experiments whose share of a registry pass is
// reported on its own; the rest are pooled in core.rest.share.
var coreShares = []string{"hough", "calibrate", "spread", "fig5", "speedups", "darpa", "connect", "saturate", "degrade", "switch"}

// perLayer are the traced run's per-layer metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_ratio", "ratio", "lower", nil},
		{"trace.spans_per_op", "count", "lower", nil},
		{"go.alloc_mb_per_op", "MB", "lower", nil},
		{"go.gc_per_op", "count", "lower", nil},
		{"sim.events_per_op", "count", "lower", nil},
		{"sim.ns_per_event", "ns", "lower", nil},
		{"sim.handoff_ns", "ns", "lower", nil},
		{"sim.charge_ns", "ns", "lower", nil},
		{"machine.remote_read_ns", "ns", "lower", nil},
		{"machine.sweep_ns", "ns", "lower", nil},
		{"switchnet.transit_ns", "ns", "lower", nil},
		{"lab.journal.append_us", "us", "lower", nil},
		{"lab.journal.terminal_append_us", "us", "lower", nil},
		{"lab.cache.put_us", "us", "lower", nil},
		{"lab.cache.get_us", "us", "lower", nil},
		{"lab.runner.simulate_us", "us", "lower", nil},
		{"lab.http.rtt_us", "us", "lower", nil},
		{"sim.parks_per_op", "count", "lower", registryW},
		{"sim.lazy_flushes_per_op", "count", "lower", registryW},
		{"sim.max_heap_depth", "count", "lower", registryW},
	}
	for _, id := range coreShares {
		defs = append(defs, metricDef{"core." + id + ".share", "ratio", "lower", registryW})
	}
	defs = append(defs,
		metricDef{"core.rest.share", "ratio", "lower", registryW},
		metricDef{"memory.remote_words_per_op", "count", "lower", registryW},
		metricDef{"memory.steal_fraction", "ratio", "lower", registryW},
		metricDef{"switchnet.packets_per_op", "count", "lower", registryW},

		metricDef{"lab.share.admit", "ratio", "lower", singleW},
		metricDef{"lab.share.http", "ratio", "lower", singleW},
		metricDef{"lab.share.fetch", "ratio", "lower", singleW},
		metricDef{"lab.share.execute", "ratio", "lower", singleW},
		metricDef{"lab.share.journal", "ratio", "lower", singleW},
		metricDef{"lab.share.cache", "ratio", "lower", singleW},
		metricDef{"lab.share.poll", "ratio", "lower", singleW},
		metricDef{"lab.stage_sum_ratio", "ratio", "higher", singleW},
		metricDef{"lab.job.p99_over_mean", "ratio", "lower", singleW},
		metricDef{"lab.job.hit_p50_over_mean", "ratio", "lower", singleW},
		metricDef{"lab.job.miss_p50_over_mean", "ratio", "lower", singleW},
		metricDef{"lab.warm_over_cold", "ratio", "higher", singleW},
		metricDef{"lab.journal.records_per_job", "count", "lower", singleW},
		metricDef{"lab.cache.hit_rate", "ratio", "higher", singleW},
		metricDef{"lab.queue_depth_max", "count", "lower", singleW},
		metricDef{"lab.sweep.share.admit", "ratio", "lower", singleW},
		metricDef{"lab.sweep.share.result", "ratio", "lower", singleW},
		metricDef{"lab.sweep.share.simulate", "ratio", "lower", singleW},
		metricDef{"lab.sweep.share.journal", "ratio", "lower", singleW},
		metricDef{"lab.sweep.share.cache", "ratio", "lower", singleW},
	)
	return defs
}()

// measures reports whether the workload measures the metric.
func (d metricDef) measures(workload string) bool {
	if d.in == nil {
		return true
	}
	for _, w := range d.in {
		if w == workload {
			return true
		}
	}
	return false
}

// stat is one metric's value in one run: the median or another quantile of
// its samples (or the single measured value), their quartiles, and how many
// there were.
type stat struct {
	value, q1, q3 float64
	samples       int
}

// report collects one run's outcome: operations attempted and failed, the
// first failure messages, and the metric values.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	stats     map[string]stat
}

func newReport() *report { return &report{stats: make(map[string]stat)} }

// op counts one attempted operation; a non-nil err counts it as failed.
func (p *report) op(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.failures) < 10 {
			p.failures = append(p.failures, err.Error())
		}
	}
}

// fail marks one already-counted operation failed: a check that ran after
// the operation's phase found it wrong.
func (p *report) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, err.Error())
	}
}

// set records a metric measured once per run.
func (p *report) set(name string, v float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats[name] = stat{value: v, q1: v, q3: v, samples: 1}
}

// dist records a metric as the median of its samples.
func (p *report) dist(name string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats[name] = stat{value: med, q1: q1, q3: q3, samples: len(xs)}
}

func (p *report) get(name string) (stat, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.stats[name]
	return s, ok
}

// collect returns the values of defs for workload, checking that the
// workload measured every metric it claims and nothing is NaN or infinite.
func (p *report) collect(defs []metricDef, workload string) (map[string]stat, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]stat, len(defs))
	var missing []string
	for _, d := range defs {
		s, ok := p.stats[d.name]
		switch {
		case ok && (math.IsNaN(s.value) || math.IsInf(s.value, 0)):
			return nil, fmt.Errorf("metric %s is %v", d.name, s.value)
		case ok:
			out[d.name] = s
		case d.measures(workload):
			missing = append(missing, d.name)
		default:
			out[d.name] = stat{}
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload %s did not measure %s", workload, strings.Join(missing, ", "))
	}
	return out, nil
}

// quartiles returns the first quartile, median, and third quartile of xs,
// the quartiles by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ratio divides, reading 0 when the denominator is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
