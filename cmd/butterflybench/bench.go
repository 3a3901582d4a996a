package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
	"butterfly/internal/lab/fleet"
	"butterfly/internal/machine"
	"butterfly/internal/sim"
	"butterfly/internal/switchnet"
	"butterfly/internal/workload"
)

// benchPartitionCounts is the partition-scaling sweep -bench-out measures.
var benchPartitionCounts = []int{1, 2, 4, 8}

// benchRepetitions: each (experiment, partitions) cell is run this many
// times and the best wall time kept, so one descheduled run doesn't skew
// the scaling numbers. Events, virtual time, and the table are identical
// across repetitions (and across partition counts) by construction.
const benchRepetitions = 3

// benchEntry is one measured cell of the partition-scaling report.
//
// Two speedups are recorded. SpeedupVsP1 is raw measured wall clock — on a
// single-CPU host the partitions timeshare one core, so it hovers near 1x
// regardless of how well the work partitions. CriticalPathSpeedupVsP1
// removes the timesharing: it projects this cell's wall time with every
// partition's measured in-window busy time overlapped (wall − ΣBusy +
// maxBusy, the critical path a P-core host executes) and compares that to
// the 1-partition wall time. All inputs are per-partition stopwatch
// measurements from the run itself, not estimates.
type benchEntry struct {
	Experiment      string  `json:"experiment"`
	Partitions      int     `json:"partitions"`
	WallNs          int64   `json:"wall_ns"`
	Events          uint64  `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	VTimeNs         int64   `json:"vtime_ns"`
	Windows         uint64  `json:"windows"`
	BarrierNs       int64   `json:"barrier_ns"`
	SumBusyNs       int64   `json:"sum_busy_ns"`
	MaxBusyNs       int64   `json:"max_partition_busy_ns"`
	CriticalPathNs  int64   `json:"critical_path_wall_ns"`
	SpeedupVsP1     float64 `json:"speedup_vs_p1"`
	CritSpeedupVsP1 float64 `json:"critical_path_speedup_vs_p1"`
}

// workloadBench is one service's open-loop baseline: the virtual-time
// figures (rates, percentiles) are host-independent and deterministic; wall
// time and events/sec describe the simulator on this host.
type workloadBench struct {
	Service         string  `json:"service"`
	Pattern         string  `json:"pattern"`
	OfferedPerSec   float64 `json:"offered_per_sec"`
	CompletedPerSec float64 `json:"completed_per_sec"`
	Errors          uint64  `json:"errors"`
	P50Ns           int64   `json:"p50_ns"`
	P99Ns           int64   `json:"p99_ns"`
	MeanNs          int64   `json:"mean_ns"`
	VTimeNs         int64   `json:"vtime_ns"`
	WallNs          int64   `json:"wall_ns"`
}

// failoverBench measures the fleet's robustness costs: how long a standby
// takes to notice a dead primary and promote itself (dominated by the
// configured silence threshold), and the coordinator-side throughput of a
// large tracked sweep with results spooled to disk — the scale the
// replicated-journal failover has to keep up with.
type failoverBench struct {
	// DeadAfterNs is the silence threshold the takeover latency includes:
	// detection cannot be faster than the window that defines "dead".
	DeadAfterNs int64 `json:"dead_after_ns"`
	// TakeoverNs is the best-of-N wall time from the primary's listener
	// vanishing to the standby's promotion callback (epoch already fenced).
	TakeoverNs int64 `json:"takeover_ns"`
	// FenceEpoch is the epoch the promoted standby fenced (primary held 1).
	FenceEpoch uint64 `json:"fence_epoch"`
	// SweepJobs / SweepWallNs / SweepJobsPerSec: a tracked sweep of this
	// many distinct jobs through a journaled, spooling scheduler — submit
	// to last completion.
	SweepJobs       int     `json:"sweep_jobs"`
	SweepWallNs     int64   `json:"sweep_wall_ns"`
	SweepJobsPerSec float64 `json:"sweep_jobs_per_sec"`
}

// benchDoc is the JSON document -bench-out writes. The host block exists so
// a checked-in report is interpretable later: wall-clock numbers mean
// nothing without the machine that produced them.
type benchDoc struct {
	GOMAXPROCS  int             `json:"gomaxprocs"`
	NumCPU      int             `json:"num_cpu"`
	GoVersion   string          `json:"go_version"`
	Quick       bool            `json:"quick"`
	Repetitions int             `json:"repetitions"`
	Results     []benchEntry    `json:"results"`
	Workloads   []workloadBench `json:"workloads"`
	// Topologies is the STREAM triad bandwidth of every interconnect family
	// at every data placement, and Combining the hot-spot fetch-and-add
	// latency/contention with combining switches off and on — both pure
	// virtual-time figures, host-independent and deterministic.
	Topologies []core.StreamRow  `json:"topologies"`
	Combining  []core.CombineRow `json:"combining"`
	// Failover is the coordinator-failover cost row: takeover latency and
	// spooled 10k-job sweep throughput (1k under -quick).
	Failover failoverBench `json:"failover"`
}

// runBenchOut measures every partitionable experiment at 1, 2, 4, and 8
// partitions, asserts the printed tables are byte-identical across the
// whole sweep (the determinism contract, enforced on every benchmark run,
// not just in tests), and writes the scaling report as JSON.
func runBenchOut(path string, quick bool) error {
	var exps []core.Experiment
	for _, e := range core.Experiments() {
		if e.Partitionable {
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		return fmt.Errorf("no partitionable experiments registered")
	}

	doc := benchDoc{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Quick:       quick,
		Repetitions: benchRepetitions,
	}
	fmt.Printf("%-10s %11s %12s %10s %14s %9s %9s %11s\n",
		"experiment", "partitions", "wall", "events", "events/sec", "windows", "speedup", "crit-path")
	for _, e := range exps {
		var refTable string
		var p1Wall int64
		for _, parts := range benchPartitionCounts {
			cell, table, err := benchCell(e, parts, quick)
			if err != nil {
				return fmt.Errorf("%s at %d partitions: %w", e.ID, parts, err)
			}
			if parts == benchPartitionCounts[0] {
				refTable = table
				p1Wall = cell.WallNs
			} else if table != refTable {
				return fmt.Errorf("%s: table at %d partitions differs from the 1-partition reference — determinism violated", e.ID, parts)
			}
			cell.SpeedupVsP1 = float64(p1Wall) / float64(cell.WallNs)
			cell.CritSpeedupVsP1 = float64(p1Wall) / float64(cell.CriticalPathNs)
			doc.Results = append(doc.Results, cell)
			fmt.Printf("%-10s %11d %12s %10d %14.0f %9d %8.2fx %10.2fx\n",
				e.ID, parts, time.Duration(cell.WallNs).Round(time.Microsecond),
				cell.Events, cell.EventsPerSec, cell.Windows, cell.SpeedupVsP1, cell.CritSpeedupVsP1)
		}
	}

	wl, err := benchWorkloads(quick)
	if err != nil {
		return fmt.Errorf("workload baselines: %w", err)
	}
	doc.Workloads = wl
	fmt.Printf("\n%-16s %12s %14s %10s %10s\n", "service", "offered/s", "completed/s", "p50 (ms)", "p99 (ms)")
	for _, b := range wl {
		fmt.Printf("%-16s %12.0f %14.0f %10.3f %10.3f\n",
			b.Service, b.OfferedPerSec, b.CompletedPerSec, float64(b.P50Ns)/1e6, float64(b.P99Ns)/1e6)
	}

	topo, comb, err := benchTopologies(quick)
	if err != nil {
		return fmt.Errorf("topology baselines: %w", err)
	}
	doc.Topologies, doc.Combining = topo, comb
	fmt.Printf("\n%-10s %-8s %12s %12s\n", "topology", "placed", "MB/s", "us/word")
	for _, r := range topo {
		fmt.Printf("%-10s %-8s %12.1f %12.3f\n", r.Topology, r.Placement, r.MBps, float64(r.WordNs)/1000)
	}
	fmt.Printf("\n%6s %9s %12s %12s %16s\n", "nodes", "combining", "mean (us)", "p99 (us)", "contention (ms)")
	for _, r := range comb {
		fmt.Printf("%6d %9v %12.2f %12.2f %16.3f\n",
			r.Nodes, r.Combining, float64(r.MeanNs)/1000, float64(r.P99Ns)/1000, float64(r.ContentionNs)/1e6)
	}

	fo, err := benchFailover(quick)
	if err != nil {
		return fmt.Errorf("failover baseline: %w", err)
	}
	doc.Failover = fo
	fmt.Printf("\n%-20s %14s %14s %14s\n", "failover", "dead-after", "takeover", "jobs/sec")
	fmt.Printf("%-20s %14s %14s %14.0f  (%d jobs in %s)\n",
		fmt.Sprintf("epoch %d", fo.FenceEpoch),
		time.Duration(fo.DeadAfterNs).Round(time.Millisecond),
		time.Duration(fo.TakeoverNs).Round(time.Millisecond),
		fo.SweepJobsPerSec, fo.SweepJobs, time.Duration(fo.SweepWallNs).Round(time.Millisecond))

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (GOMAXPROCS=%d, NumCPU=%d, %s; best of %d runs per cell, tables byte-identical across the sweep)\n",
		path, doc.GOMAXPROCS, doc.NumCPU, doc.GoVersion, benchRepetitions)
	return nil
}

// benchWorkloads measures the open-loop service baselines the workload
// subsystem serves: one run per service on the default traffic config, the
// same shapes the `service` experiment uses.
func benchWorkloads(quick bool) ([]workloadBench, error) {
	cfg := workload.Default()
	nodes := 24
	cfg.Rate, cfg.Sources, cfg.Servers = 2400, 4, 4
	if quick {
		nodes = 16
		cfg.Rate, cfg.Sources, cfg.Servers = 1500, 3, 2
		cfg.DurationNs = 24 * sim.Millisecond
		cfg.WindowNs = 6 * sim.Millisecond
	}
	runs := []struct {
		name string
		run  func() (*workload.Result, error)
	}{
		{"lynx-echo", func() (*workload.Result, error) {
			return workload.RunLynxEcho(cfg, workload.EchoOpts{Machine: core.ButterflyI(nodes), EchoFlops: 8, ReplyWords: 16})
		}},
		{"us-tasks", func() (*workload.Result, error) {
			return workload.RunUSTasks(cfg, workload.TasksOpts{Machine: core.ButterflyI(nodes), Workers: 16, RowWords: 64, TaskFlops: 4})
		}},
		{"hotspot-counter", func() (*workload.Result, error) {
			return workload.RunHotspotCounter(cfg, workload.CounterOpts{Machine: core.ButterflyI(nodes), WorkNs: 50 * sim.Microsecond})
		}},
	}
	out := make([]workloadBench, 0, len(runs))
	for _, r := range runs {
		start := time.Now()
		res, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		tr := res.Tracker
		secs := float64(cfg.DurationNs) / 1e9
		out = append(out, workloadBench{
			Service:         r.name,
			Pattern:         string(cfg.Pattern),
			OfferedPerSec:   float64(tr.Offered) / secs,
			CompletedPerSec: float64(tr.Completed-tr.Errors) / secs,
			Errors:          tr.Errors,
			P50Ns:           tr.Total.Quantile(0.50),
			P99Ns:           tr.Total.Quantile(0.99),
			MeanNs:          tr.Total.Mean(),
			VTimeNs:         res.VTimeNs,
			WallNs:          time.Since(start).Nanoseconds(),
		})
	}
	return out, nil
}

// benchCell runs one experiment at one partition count benchRepetitions
// times through lab.RunSpec, keeping the best wall time, and returns the
// measured cell plus the table for the cross-partition identity check.
func benchCell(e core.Experiment, parts int, quick bool) (benchEntry, string, error) {
	spec := core.Spec{Experiment: e.ID, Quick: quick, Partitions: parts}
	cell := benchEntry{Experiment: e.ID, Partitions: parts}
	var table string
	for rep := 0; rep < benchRepetitions; rep++ {
		var engines []*sim.Engine
		res, err := lab.RunSpec(spec, func(m *machine.Machine) {
			engines = append(engines, m.E)
		})
		if err != nil {
			return cell, "", err
		}
		var windows uint64
		var barrierNs, sumBusy, maxBusy int64
		for _, eng := range engines {
			w, b := eng.WindowStats()
			windows += w
			barrierNs += b
			for _, pt := range eng.PartitionTimings() {
				sumBusy += pt.BusyNs
				maxBusy = max(maxBusy, pt.BusyNs)
			}
		}
		if rep == 0 {
			table = res.Table
		} else if res.Table != table {
			return cell, "", fmt.Errorf("repetition %d produced a different table", rep+1)
		}
		if rep == 0 || res.WallNs < cell.WallNs {
			cell.WallNs = res.WallNs
			cell.BarrierNs = barrierNs
			cell.SumBusyNs = sumBusy
			cell.MaxBusyNs = maxBusy
			// The critical path a P-core host executes: every partition's
			// in-window work overlapped, everything else (coordinator,
			// barriers) unchanged.
			cell.CriticalPathNs = res.WallNs - sumBusy + maxBusy
		}
		cell.Events = res.Events
		cell.VTimeNs = res.VTimeNs
		cell.Windows = windows
	}
	cell.EventsPerSec = float64(cell.Events) / (float64(cell.WallNs) / 1e9)
	return cell, table, nil
}

// benchFailover measures the replicated-journal failover path end to end,
// in-process but over real HTTP: a primary journal streams to a standby's
// follower loop; the primary's listener is torn down and the time to the
// standby's promotion callback recorded (best of benchRepetitions, fresh
// journals each time). Then a 10k-job tracked sweep (1k under -quick) runs
// through a journaled, spooling scheduler to measure the coordinator-side
// throughput robustness has to keep up with.
func benchFailover(quick bool) (failoverBench, error) {
	deadAfter := 250 * time.Millisecond
	out := failoverBench{DeadAfterNs: deadAfter.Nanoseconds()}

	for rep := 0; rep < benchRepetitions; rep++ {
		latency, epoch, err := takeoverOnce(deadAfter)
		if err != nil {
			return out, err
		}
		if rep == 0 || latency < out.TakeoverNs {
			out.TakeoverNs = latency
		}
		out.FenceEpoch = epoch
	}

	jobs := 10000
	if quick {
		jobs = 1000
	}
	dir, err := os.MkdirTemp("", "butterfly-bench-sweep-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	j, err := lab.OpenJournal(dir + "/journal")
	if err != nil {
		return out, err
	}
	defer j.Close()
	sched := lab.NewScheduler(lab.Config{
		Cache:        lab.OpenCache(dir + "/cache"),
		Journal:      j,
		QueueDepth:   jobs,
		SpoolResults: true,
	})
	sw := lab.Sweep{
		Base: core.Spec{Experiment: "numa", Quick: true},
		// numa probes node 15, so counts start at 16: 16..16+jobs-1.
		Axes: []lab.Axis{{Field: "nodes", Values: []string{fmt.Sprintf("16..%d:+1", 15+jobs)}}},
	}
	start := time.Now()
	_, submitted, err := sched.SubmitSweepTracked(sw)
	if err != nil {
		return out, err
	}
	if len(submitted) != jobs {
		return out, fmt.Errorf("sweep expanded to %d jobs, want %d", len(submitted), jobs)
	}
	for _, job := range submitted {
		if _, err := job.Wait(); err != nil {
			return out, err
		}
	}
	out.SweepJobs = jobs
	out.SweepWallNs = time.Since(start).Nanoseconds()
	out.SweepJobsPerSec = float64(jobs) / (float64(out.SweepWallNs) / 1e9)
	return out, nil
}

// takeoverOnce runs one primary-death drill: sync a follower over HTTP,
// tear the primary's listener down, and time the distance to promotion.
func takeoverOnce(deadAfter time.Duration) (int64, uint64, error) {
	dir, err := os.MkdirTemp("", "butterfly-bench-failover-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	prim, err := lab.OpenJournal(dir + "/primary")
	if err != nil {
		return 0, 0, err
	}
	defer prim.Close()
	if _, err := prim.BumpEpoch(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("j%04d-bench", i+1)
		spec := core.Spec{Experiment: "numa", Quick: true, Nodes: 16 + i}
		if err := prim.Submitted(id, i+1, spec, "fp-"+id); err != nil {
			return 0, 0, err
		}
	}

	rep := fleet.NewReplicator(prim)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /replica/pull", rep.HandlePull)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(l)

	sb, err := lab.OpenJournal(dir + "/standby")
	if err != nil {
		return 0, 0, err
	}
	defer sb.Close()
	promoted := make(chan uint64, 1)
	fol := fleet.NewFollower(fleet.FollowerConfig{
		Self:       core.WorkerRecord{ID: "bench-standby"},
		Primary:    "http://" + l.Addr().String(),
		Journal:    sb,
		DeadAfter:  deadAfter,
		OnTakeover: func(epoch uint64) { promoted <- epoch },
	})
	fol.Start()
	defer fol.Stop()

	deadline := time.Now().Add(30 * time.Second)
	for sb.Rec() != prim.Rec() {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("standby never caught up (rec %d vs %d)", sb.Rec(), prim.Rec())
		}
		time.Sleep(time.Millisecond)
	}

	killed := time.Now()
	hs.Close()
	l.Close()
	select {
	case epoch := <-promoted:
		return time.Since(killed).Nanoseconds(), epoch, nil
	case <-time.After(30 * time.Second):
		return 0, 0, fmt.Errorf("standby never promoted")
	}
}

// benchTopologies measures the topology subsystem's two baselines: triad
// bandwidth per interconnect family and placement, and the hot-spot
// fetch-and-add with combining off and on.
func benchTopologies(quick bool) ([]core.StreamRow, []core.CombineRow, error) {
	nodes, workers, items := 64, 16, 2048
	counts := []int{512, 2048}
	if quick {
		nodes, workers, items = 16, 8, 256
		counts = []int{64, 128}
	}
	var topo []core.StreamRow
	for _, t := range switchnet.Topologies() {
		rows, err := core.StreamNUMA(t, nodes, workers, items)
		if err != nil {
			return nil, nil, err
		}
		topo = append(topo, rows...)
	}
	var comb []core.CombineRow
	for _, n := range counts {
		for _, on := range []bool{false, true} {
			row, err := core.CombineHotspot(n, on)
			if err != nil {
				return nil, nil, err
			}
			comb = append(comb, row)
		}
	}
	return topo, comb, nil
}
