// Command butterflybench regenerates the tables and figures of "Large-Scale
// Parallel Programming: Experience with the BBN Butterfly Parallel
// Processor" (LeBlanc, Scott & Brown, 1988) on the simulated machine.
//
// Usage:
//
//	butterflybench -list
//	butterflybench -experiment fig5
//	butterflybench -all [-quick]
//	butterflybench -all -parallel 4        # run experiments concurrently (lab scheduler)
//	butterflybench -all -cache             # reuse content-addressed cached results
//	butterflybench -all -server http://127.0.0.1:7788   # run on a remote butterflyd
//	butterflybench -all -json              # structured per-experiment results on stdout
//	butterflybench -all -timing            # wall-clock + events/sec per experiment
//	butterflybench -all -cpuprofile cpu.pb # profile the simulator itself
//	butterflybench -experiment hotspot -probe                 # contention report (stderr)
//	butterflybench -experiment hotspot -trace-out trace.json  # Chrome/Perfetto trace
//	butterflybench -experiment fig5 -faults 'drop 0.001; kill 7 @ 20ms'
//	butterflybench -experiment hotspot -faults @sched.txt -fault-seed 42
//	butterflybench -experiment service -workload 'pattern bursty; rate 6000; seed 7'
//	butterflybench -experiment service -slo-report      # per-window SLO tables
//
// Every run turns the flags into one lab spec per experiment and executes
// the specs on one of three backends: in-process on the main goroutine
// (lab.RunSpec), the lab scheduler's worker pool (-cache, or -parallel N
// with more than one experiment), or a remote butterflyd (-server). The
// simulations are deterministic, so stdout is byte-identical on all three;
// the scheduler reassembles output in experiment order, and -cache
// short-circuits experiments whose fingerprint (spec + code version)
// already has a stored result. Against -server, submissions ride the lab
// client's retry/backoff discipline (429s and daemon restarts are absorbed,
// not surfaced).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
	"butterfly/internal/lab/client"
	"butterfly/internal/machine"
	"butterfly/internal/probe"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		expID      = flag.String("experiment", "", "run one experiment by id")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "reduced-scale run (fast smoke test)")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for -all (1 = sequential in-process)")
		useCache   = flag.Bool("cache", false, "serve identical runs from the content-addressed result cache")
		noCache    = flag.Bool("no-cache", false, "force execution even if -cache is set")
		cacheDir   = flag.String("cache-dir", lab.DefaultCacheDir, "result cache directory")
		jsonOut    = flag.Bool("json", false, "emit structured per-experiment results as JSON on stdout")
		timing     = flag.Bool("timing", false, "report per-experiment wall-clock time and simulated events/sec on stderr")
		probeOn    = flag.Bool("probe", false, "attach observability probes and print a contention report per machine on stderr")
		traceOut   = flag.String("trace-out", "", "record a Chrome trace-event JSON of one -experiment to this file (implies -probe; runs in-process, so not with -server or -cache)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		faults     = flag.String("faults", "", "fault schedule: directives like 'seed 7; drop 0.001; kill 5 @ 10ms', or @file to read one")
		faultSeed  = flag.Uint64("fault-seed", 0, "override the fault schedule's random seed (requires -faults)")
		server     = flag.String("server", "", "run experiments on a remote butterflyd at this base URL instead of in-process")
		partitions = flag.Int("partitions", 0, "run partitionable experiments on the parallel engine with this many partitions (results stay bit-identical)")
		workloadFl = flag.String("workload", "", "workload directives for workload-driven experiments, e.g. 'pattern bursty; rate 6000; seed 7; duration 60ms'")
		topology   = flag.String("topology", "", "interconnect family for every machine booted: butterfly (default), fattree, dragonfly, or mesh")
		sloReport  = flag.Bool("slo-report", false, "print the full per-window SLO table for workload-driven experiments (sugar for the 'detail' workload directive)")
	)
	flag.Parse()

	// Everything about a spec is checked by Spec.Validate before the first
	// run starts; these are the checks a spec cannot see.
	if *partitions < 0 {
		fail(fmt.Errorf("-partitions must be >= 0"))
	}
	if *parallel < 1 {
		fail(fmt.Errorf("-parallel must be >= 1"))
	}

	var exps []core.Experiment
	switch {
	case *list:
		fmt.Printf("%-10s %s\n", "ID", "TITLE")
		for _, e := range core.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	case *expID != "":
		e, ok := core.Lookup(*expID)
		if !ok {
			fail(fmt.Errorf("unknown experiment %q (try -list)", *expID))
		}
		exps = []core.Experiment{e}
	case *all:
		exps = core.Experiments()
	default:
		flag.Usage()
		os.Exit(2)
	}

	o := runOpts{
		parallel:   *parallel,
		cacheDir:   *cacheDir,
		server:     *server,
		quick:      *quick,
		jsonOut:    *jsonOut,
		timing:     *timing,
		probe:      *probeOn || *traceOut != "",
		traceOut:   *traceOut,
		faults:     *faults,
		partitions: *partitions,
		workload:   *workloadFl,
		topology:   *topology,
		headers:    *all, // -all prints the banner between experiments
	}
	// An explicit -fault-seed of 0 must not be confused with "flag absent":
	// presence is what flag.Visit reports, so seed 0 works and garbage was
	// already rejected by the flag package's uint64 parser.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fault-seed" {
			o.faultSeed = faultSeed
		}
	})
	// -slo-report is sugar for the 'detail' workload directive, so it rides
	// the same string through specs and the lab cache fingerprint.
	if *sloReport {
		if o.workload != "" {
			o.workload += "; detail"
		} else {
			o.workload = "detail"
		}
	}
	cacheOn := *useCache && !*noCache
	switch {
	case *server != "":
		// Caching is the daemon's decision, not ours.
		if cacheOn {
			fail(fmt.Errorf("-cache is the daemon's policy; drop it when using -server"))
		}
		o.backend = remoteBackend
	case cacheOn:
		o.backend = schedulerBackend
		o.cacheOn = true
	case *parallel > 1 && len(exps) > 1:
		o.backend = schedulerBackend
	}
	// The trace recorder needs every machine built in this process, and it
	// holds every event in memory until the file is written: one
	// experiment's worth.
	if *traceOut != "" && (o.backend != inProcessBackend || len(exps) != 1) {
		fail(fmt.Errorf("-trace-out records one -experiment in-process (drop -all, -server, and -cache)"))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(os.Stdout, os.Stderr, exps, o); err != nil {
		pprof.StopCPUProfile()
		fail(err)
	}
}

// fail reports err with the command's prefix and exits 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "butterflybench: %v\n", err)
	os.Exit(1)
}

// backend names where a batch of specs executes.
type backend int

const (
	// inProcessBackend runs each spec through lab.RunSpec on the calling
	// goroutine, one after another.
	inProcessBackend backend = iota
	// schedulerBackend submits every spec to an in-process lab scheduler.
	schedulerBackend
	// remoteBackend submits every spec to a butterflyd over HTTP.
	remoteBackend
)

// runOpts bundles the switches one batch runs under.
type runOpts struct {
	backend    backend
	parallel   int    // scheduler workers
	cacheOn    bool   // scheduler: serve hits from the result cache
	cacheDir   string // scheduler: result cache directory
	server     string // remote: butterflyd base URL
	quick      bool
	jsonOut    bool
	timing     bool
	probe      bool
	traceOut   string // in-process: Chrome trace-event output file
	faults     string
	faultSeed  *uint64
	partitions int
	workload   string
	topology   string
	headers    bool
}

// specFor builds the lab spec for one experiment. An override the
// experiment does not honour is dropped with a note on stderr, so one flag
// set can drive a whole -all batch.
func specFor(stderr io.Writer, e core.Experiment, o runOpts) core.Spec {
	spec := core.Spec{
		Experiment: e.ID,
		Quick:      o.quick,
		Probe:      o.probe,
		Faults:     o.faults,
		FaultSeed:  o.faultSeed,
		Topology:   o.topology,
	}
	if o.faults != "" && e.ManagesFaults {
		fmt.Fprintf(stderr, "butterflybench: note: %s manages its own faults; -faults ignored for it\n", e.ID)
		spec.Faults, spec.FaultSeed = "", nil
	}
	if o.partitions > 0 {
		if e.Partitionable {
			spec.Partitions = o.partitions
		} else {
			fmt.Fprintf(stderr, "butterflybench: note: %s is not partitionable; -partitions ignored for it\n", e.ID)
		}
	}
	if o.workload != "" {
		if e.WorkloadDriven {
			spec.Workload = o.workload
		} else {
			fmt.Fprintf(stderr, "butterflybench: note: %s is not workload-driven; -workload/-slo-report ignored for it\n", e.ID)
		}
	}
	return spec
}

// jsonResult is the -json wire form of one experiment's structured result.
type jsonResult struct {
	ID           string   `json:"id"`
	Title        string   `json:"title"`
	Rows         []string `json:"rows"`
	Machines     int      `json:"machines"`
	Events       uint64   `json:"events"`
	VTimeNs      int64    `json:"vtime_ns"`
	WallNs       int64    `json:"wall_ns"`
	EventsPerSec float64  `json:"events_per_sec"`
	CacheHit     bool     `json:"cache_hit"`
	Attempts     int      `json:"attempts,omitempty"`
	Fingerprint  string   `json:"fingerprint"`
}

// tracedMachine is one machine whose probe streamed into a recorder under
// -trace-out.
type tracedMachine struct {
	label string
	rec   *probe.Recorder
}

// run executes every experiment on o's backend and writes the tables (or
// the -json document) to stdout in experiment order. Every spec is
// validated before the first one runs. Timing lines, probe reports, and
// notes go to stderr.
func run(stdout, stderr io.Writer, exps []core.Experiment, o runOpts) error {
	specs := make([]core.Spec, len(exps))
	for i, e := range exps {
		specs[i] = specFor(stderr, e, o)
		if err := specs[i].Validate(); err != nil {
			return err
		}
	}

	start := time.Now()
	// wait(i) blocks for the i-th result; summary ends the total timing line.
	var wait func(i int) (*core.Result, error)
	var summary func() string
	// machines is the in-process backend's view of the current experiment.
	var machines []*machine.Machine
	var current string
	var traced []tracedMachine
	switch o.backend {
	case remoteBackend:
		c := client.New(o.server)
		ctx := context.Background()
		readyCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := c.WaitReady(readyCtx)
		cancel()
		if err != nil {
			return fmt.Errorf("server %s not ready: %w", o.server, err)
		}
		ids := make([]string, len(specs))
		for i, spec := range specs {
			st, err := c.Submit(ctx, spec)
			if err != nil {
				return fmt.Errorf("submit %s: %w", spec.Experiment, err)
			}
			ids[i] = st.ID
		}
		wait = func(i int) (*core.Result, error) { return c.WaitResult(ctx, ids[i]) }
		summary = func() string { return "server=" + o.server }
	case schedulerBackend:
		var cache *lab.Cache
		if o.cacheOn {
			cache = lab.OpenCache(o.cacheDir)
		}
		sched := lab.NewScheduler(lab.Config{Workers: o.parallel, QueueDepth: len(specs) + 1, Cache: cache})
		defer func() {
			// By now every job has finished, or the batch failed and the
			// rest are abandoned: cancel them rather than drain them.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			sched.Shutdown(ctx)
			if cache != nil {
				if err := cache.Close(); err != nil {
					fmt.Fprintf(stderr, "butterflybench: cache close: %v\n", err)
				}
			}
		}()
		jobs := make([]*lab.Job, len(specs))
		for i, spec := range specs {
			j, err := sched.Submit(spec)
			if err != nil {
				return fmt.Errorf("submit %s: %w", spec.Experiment, err)
			}
			jobs[i] = j
		}
		wait = func(i int) (*core.Result, error) { return jobs[i].Wait() }
		summary = func() string {
			s := fmt.Sprintf("workers=%d", o.parallel)
			if cache != nil {
				cs := cache.Stats()
				s += fmt.Sprintf(" cache-hits=%d cache-misses=%d", cs.Hits, cs.Misses)
			}
			return s
		}
	default:
		observe := func(m *machine.Machine) {
			machines = append(machines, m)
			if o.traceOut != "" {
				// Point the lab-attached probe at a recorder: the contention
				// report and the trace come from one probe per machine.
				rec := &probe.Recorder{}
				m.Probe().SetSink(rec)
				label := fmt.Sprintf("%s machine %d (N=%d)", current, len(machines)-1, m.N())
				traced = append(traced, tracedMachine{label: label, rec: rec})
			}
		}
		wait = func(i int) (*core.Result, error) {
			machines, current = nil, specs[i].Experiment
			return lab.RunSpec(specs[i], observe)
		}
		summary = func() string { return "in-process" }
	}

	var docs []jsonResult
	for i, e := range exps {
		res, err := wait(i)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		if o.jsonOut {
			docs = append(docs, jsonResult{
				ID:           e.ID,
				Title:        e.Title,
				Rows:         strings.Split(strings.TrimRight(res.Table, "\n"), "\n"),
				Machines:     res.Machines,
				Events:       res.Events,
				VTimeNs:      res.VTimeNs,
				WallNs:       res.WallNs,
				EventsPerSec: res.EventsPerSec(),
				CacheHit:     res.CacheHit,
				Attempts:     res.Attempts,
				Fingerprint:  res.Fingerprint,
			})
		} else {
			if o.headers {
				fmt.Fprintf(stdout, "\n===== %s: %s =====\n", e.ID, e.Title)
				fmt.Fprintf(stdout, "paper: %s\n\n", e.Paper)
			} else {
				fmt.Fprintf(stdout, "===== %s: %s =====\npaper: %s\n\n", e.ID, e.Title, e.Paper)
			}
			io.WriteString(stdout, res.Table)
		}
		if o.timing {
			writeTiming(stderr, e.ID, res, machines)
		}
		if o.probe && res.ProbeReport != "" {
			fmt.Fprintf(stderr, "\n%s", res.ProbeReport)
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	if o.traceOut != "" {
		if err := writeTrace(stderr, o.traceOut, traced); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if o.timing {
		fmt.Fprintf(stderr, "[timing] total      wall=%-12s jobs=%d %s\n",
			time.Since(start).Round(time.Microsecond), len(exps), summary())
	}
	return nil
}

// writeTiming reports how fast the simulator ran one experiment to w.
// machines, known only in-process, adds the per-engine counters: parks,
// lazy flushes, maximum heap depth, and one line per partition.
func writeTiming(w io.Writer, id string, res *core.Result, machines []*machine.Machine) {
	served := "miss"
	if res.CacheHit {
		served = "hit"
	}
	line := fmt.Sprintf("[timing] %-10s wall=%-12s machines=%-3d events=%-9d events/sec=%.0f vtime=%s cache=%s",
		id, time.Duration(res.WallNs).Round(time.Microsecond), res.Machines, res.Events,
		res.EventsPerSec(), time.Duration(res.VTimeNs), served)
	if machines != nil {
		var parks, flushes uint64
		maxHeap := 0
		for _, m := range machines {
			st := m.E.Stats()
			parks += st.Parks
			flushes += st.LazyFlushes
			maxHeap = max(maxHeap, st.MaxHeapDepth)
		}
		line += fmt.Sprintf(" parks=%d lazyflushes=%d maxheap=%d", parks, flushes, maxHeap)
	}
	fmt.Fprintln(w, line)
	for mi, m := range machines {
		pts := m.E.PartitionTimings()
		if pts == nil {
			continue
		}
		windows, barrierNs := m.E.WindowStats()
		fmt.Fprintf(w, "[timing] %-10s machine %d: %d partitions, %d windows, barrier=%s\n",
			id, mi, len(pts), windows, time.Duration(barrierNs).Round(time.Microsecond))
		for _, pt := range pts {
			fmt.Fprintf(w, "[timing] %-10s   partition %-2d events=%-9d compute=%-12s sync-wait=%-12s idle=%s\n",
				id, pt.ID, pt.Events,
				time.Duration(pt.BusyNs).Round(time.Microsecond),
				time.Duration(pt.SyncWaitNs).Round(time.Microsecond),
				time.Duration(pt.IdleNs).Round(time.Microsecond))
		}
	}
}

// writeTrace merges every traced machine's event stream into one Chrome
// trace-event JSON file, one pid per machine, and notes it on stderr.
func writeTrace(stderr io.Writer, path string, traced []tracedMachine) error {
	var all []probe.ChromeEvent
	for i, tm := range traced {
		all = append(all, probe.EventsToChrome(i, tm.label, tm.rec.Events)...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := probe.WriteChromeJSON(f, all); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "[probe] wrote %d trace events to %s\n", len(all), path)
	return nil
}
