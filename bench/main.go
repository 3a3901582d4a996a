// Command bench is the repository benchmark. It drives one workload against
// the simulator (engine, machine, runtimes, experiments) or the butterflyd
// service stack (lab, lab/client), checks every output it produces, and
// prints one JSON result line last on standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"op_ms": {"value": 981.2, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
// --trace 1 the workload runs twice, untraced and then traced, each for half
// of --seconds, and the metrics are its per-layer metrics. Run it through
// run.sh, which builds it:
//
//	bash bench/run.sh --workload registry-quick --seed 1 --seconds 45 --trace 0
//	bash bench/run.sh --workload single-node --seed 2 --trace 1 --ledger runs.jsonl
//	bash bench/run.sh -diff base.jsonl change.jsonl
//
// README.md gives the workloads, the metrics, and how to read a diff.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// session is a workload that has been set up and can be measured.
type session interface {
	measure(r *run) error
	close() error
}

// workload is one input set the benchmark runs. setup brings the system to
// the state the first measured operation starts from.
type workload struct {
	name  string
	setup func(r *run) (session, error)
}

var workloads = []workload{
	{"registry-quick", setupRegistry},
	{"single-node", setupSingleNode},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// smoke shrinks every phase to a few operations and times set-up once
	// in process, for the package test.
	smoke bool
	// root is the repository root: testdata/ is read and .bench_build/
	// written relative to it.
	root  string
	spans string
}

// run is the state a workload's set-up and measurement share.
type run struct {
	config
	dir string // scratch directory of this process, removed at exit
	tr  *tracer
	rep *report
}

// rng returns the seeded generator of one input stream. Streams are
// independent, so adding a draw to one never shifts another's inputs.
func (r *run) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(r.seed, stream)) }

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line, plus the per-metric detail the ledger keeps.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	stats    map[string]stat
	defs     []metricDef
	failures []string
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: registry-quick or single-node")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 45, "how long the measured phases run, in seconds")
	trace := fs.Int("trace", 0, "1: run untraced, then traced, and report the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny phases and in-process set-up timing (tests)")
	spans := fs.String("spans", "", "with --trace 1: where to write the spans (default .bench_build/spans-<workload>-<seed>.json)")
	ledger := fs.String("ledger", "", "append this run's metrics to this ledger file (JSON lines)")
	diff := fs.Bool("diff", false, "compare two ledger files by BENCHMARK.json's bounds: -diff BASE CHANGE")
	probe := fs.Bool("setup-probe", false, "set the workload up, print \"ready\", and exit (set-up timing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return errors.New("-diff needs two ledger files")
		}
		return runDiff(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	c := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		smoke:    *smoke,
		root:     ".",
		spans:    *spans,
	}
	if *probe {
		return setupProbe(c, stdout)
	}
	out, err := execute(c)
	if err != nil {
		return err
	}
	writeSummary(stderr, c.workload, out)
	if *ledger != "" {
		if err := appendLedger(*ledger, c, out); err != nil {
			return err
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// execute runs one invocation and assembles its result line.
func execute(c config) (*outcome, error) {
	w, err := lookupWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(c.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if c.trace {
		return executeTraced(c, w, dir)
	}

	rep := newReport()
	var setups []float64
	if !c.smoke {
		if setups, err = timeSetups(c); err != nil {
			return nil, err
		}
	}
	r := &run{config: c, dir: dir, rep: rep}
	start := time.Now()
	sess, err := w.setup(r)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if c.smoke {
		setups = []float64{time.Since(start).Seconds()}
	}
	rep.dist("setup_s", setups)
	// The run's high-water mark alone would be one extreme of the
	// collector's timing; samples give the resident set's upper percentiles.
	stopRSS := sample(rssMB)
	err = sess.measure(r)
	rss, rerr := stopRSS()
	if cerr := sess.close(); err == nil {
		err = errors.Join(rerr, cerr)
	}
	if err != nil {
		return nil, err
	}
	rep.set("rss_p95_mb", percentile(rss, 0.95))
	return assemble(rep, endToEnd, c.workload)
}

// executeTraced runs the workload untraced and then traced, each from its
// own set-up and for half of --seconds, and reports the traced run's
// per-layer metrics with the tracing overhead the difference between the
// two.
func executeTraced(c config, w workload, dir string) (*outcome, error) {
	c.seconds /= 2
	base := &run{config: c, dir: filepath.Join(dir, "base"), rep: newReport()}
	if err := measureOnce(w, base); err != nil {
		return nil, err
	}
	r := &run{config: c, dir: filepath.Join(dir, "traced"), rep: newReport(), tr: newTracer()}
	// The layers' unit costs come first: single-node's job-path stage
	// estimates are built from them.
	if err := measureLayers(r); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := measureOnce(w, r); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	baseOp, _ := base.rep.get("op_ms")
	op, _ := r.rep.get("op_ms")
	ops := float64(op.samples)
	r.rep.set("trace.overhead_ratio", ratio(op.value, baseOp.value)-1)
	r.rep.set("trace.spans_per_op", ratio(float64(r.tr.count()), ops))
	r.rep.set("go.alloc_mb_per_op", ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), ops))
	r.rep.set("go.gc_per_op", ratio(float64(after.NumGC-before.NumGC), ops))

	path := c.spans
	if path == "" {
		path = filepath.Join(c.root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
	}
	if err := r.tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out, err := assemble(r.rep, perLayer, c.workload)
	if err != nil {
		return nil, err
	}
	// Both runs' operations count: a failure in either is a failure.
	out.Attempted += base.rep.attempted
	out.Failed += base.rep.failed
	out.failures = append(out.failures, base.rep.failures...)
	out.Correct = out.Failed == 0
	return out, nil
}

// measureOnce sets the workload up in r.dir, measures it, and tears it down.
func measureOnce(w workload, r *run) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	sess, err := w.setup(r)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	err = sess.measure(r)
	if cerr := sess.close(); err == nil {
		err = cerr
	}
	return err
}

// assemble builds the result line from a report.
func assemble(rep *report, defs []metricDef, workload string) (*outcome, error) {
	stats, err := rep.collect(defs, workload)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
		stats:     stats,
		defs:      defs,
		failures:  rep.failures,
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: stats[d.name].value, Unit: d.unit}
	}
	if out.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return out, nil
}

// A run times its set-up at least minSetups and at most maxSetups times,
// adding samples while their total stays under setupBudget, each in a
// fresh process so the first operation's cold costs (package init, heap
// growth, first-touch page faults, lazily built state) count every time.
const (
	minSetups   = 3
	maxSetups   = 41
	setupBudget = 2 * time.Second
)

// timeSetups starts this binary in set-up-probe mode and returns, in
// seconds, how long each start took from exec to ready.
func timeSetups(c config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < minSetups || (i < maxSetups && sum(out) < setupBudget.Seconds()); i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", c.workload,
			"--seed", strconv.FormatUint(c.seed, 10), "--seconds", strconv.FormatFloat(c.seconds.Seconds(), 'g', -1, 64))
		cmd.Dir = c.root
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		took := time.Since(start)
		_, _ = io.Copy(io.Discard, pipe)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up probe %d: ready line %q, read: %v, exit: %v", i+1, line, rerr, werr)
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

// setupProbe is the child side of timeSetups.
func setupProbe(c config, stdout io.Writer) error {
	w, err := lookupWorkload(c.workload)
	if err != nil {
		return err
	}
	build := filepath.Join(c.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(build, "setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sess, err := w.setup(&run{config: c, dir: dir, rep: newReport()})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}
	return sess.close()
}

// writeSummary prints every metric with its spread to w, for people.
func writeSummary(w io.Writer, workload string, out *outcome) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, out.Correct, out.Attempted, out.Failed)
	for _, f := range out.failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	names := make([]string, 0, len(out.defs))
	for _, d := range out.defs {
		names = append(names, d.name)
	}
	slices.Sort(names)
	for _, n := range names {
		s := out.stats[n]
		fmt.Fprintf(w, "  %-38s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n", n, s.value, out.Metrics[n].Unit, s.q1, s.q3, s.samples)
	}
}
