package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
	"butterfly/internal/lab/client"
)

// single-node drives butterflyd's HTTP API from this one process: tracked
// sweeps from one client, then closed-loop single jobs from two, so the load
// generator never holds more than two connections (nproc on the 2-CPU
// reference host). Every input is a numa point at quick scale. Its
// simulation builds one machine of 16 to 1039 nodes (0.1 to 1.5 ms on a
// 2.1 GHz Xeon), so admission, journal, cache, and HTTP are a large part of
// every job.
//
// The run is a sequence of identical iterations, each on a daemon that
// starts empty: a cold sweep, the same sweep warm, then a closed-loop job
// phase. The scheduler keeps every job it has held and some of its
// per-request costs grow with that history, so on one long-lived daemon
// each sweep would be slower than the last, and a run's numbers would
// depend on how many sweeps the host's speed let it reach. An iteration
// always starts from the same state, so iterations run until --seconds is
// spent and their medians compare across runs.

const (
	sweepPoll  = 10 * time.Millisecond
	jobPoll    = time.Millisecond
	jobClients = 2
	// repeatShare of closed-loop jobs resubmit one of the client's earlier
	// specs, which the cache answers.
	repeatShare = 0.5
	// checkEvery: every checkEvery-th point of a sweep, and of each
	// client's new jobs, is re-simulated in process and compared.
	checkEvery = 64
	// labWorkers is butterflyd's default worker pool on a 2-CPU host.
	labWorkers = 2
	// queueDepth admits a whole sweep at once (butterflyd -queue 4096);
	// the default 256 would turn a larger sweep away with 429.
	queueDepth = 4096
	// numa probes node 15, so node counts start at 16.
	nodesLo, nodesHi = 16, 1040
)

var (
	topologies = []string{"butterfly", "fattree", "dragonfly", "mesh"}
	presets    = []string{"", "b1", "bfp", "bplus"}
)

// servicePlan sizes one iteration.
type servicePlan struct {
	// sweepNodes are the node counts of one cold sweep, which has
	// 16 × sweepNodes points (4 presets × 4 topologies × node counts).
	sweepNodes int
	jobs       int // closed-loop jobs per iteration, from all clients
}

func singleNodePlan(smoke bool) servicePlan {
	if smoke {
		return servicePlan{sweepNodes: 4, jobs: 40}
	}
	return servicePlan{sweepNodes: 256, jobs: 600}
}

// serviceInputs is everything the load generator submits, derived from the
// seed alone.
type serviceInputs struct {
	sweep lab.Sweep // every iteration's cold sweep
	// warmup is set-up's one-point sweep, which takes one sweep through
	// every route. Each point costs an fsync, so a larger one would make
	// set-up time a measure of disk latency.
	warmup lab.Sweep
	jobs   [jobClients][]core.Spec // each client's new specs, in order
}

// genInputs builds the sweeps and jobs from the numa points at quick scale:
// 4 presets × 4 topologies × node counts 16 to 1039. The node counts are
// dealt into groups, one count from every block of consecutive counts, so
// every group costs about the same to simulate, and each group is one
// sweep over every preset and topology. The seed picks one group for the
// cold sweep and another for the warm-up sweep and the closed-loop jobs, so
// none of those is a cold sweep's cache hit.
func genInputs(r *run, p servicePlan) serviceInputs {
	rng := r.rng(2)
	groups := (nodesHi - nodesLo) / p.sweepNodes
	nodes := make([][]string, groups)
	for b := nodesLo; b+groups <= nodesHi; b += groups {
		for g, k := range rng.Perm(groups) {
			nodes[g] = append(nodes[g], strconv.Itoa(b+k))
		}
	}
	pick := rng.Perm(groups)
	in := serviceInputs{
		sweep:  numaSweep(presets, topologies, nodes[pick[0]]),
		warmup: numaSweep(presets[:1], topologies[:1], nodes[pick[1]][:1]),
	}
	taken := make(map[core.Spec]bool)
	for _, sp := range mustExpand(in.warmup) {
		taken[sp] = true
	}
	var pool []core.Spec
	for _, sp := range mustExpand(numaSweep(presets, topologies, nodes[pick[1]])) {
		if !taken[sp] {
			pool = append(pool, sp)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for i, sp := range pool {
		in.jobs[i%jobClients] = append(in.jobs[i%jobClients], sp)
	}
	return in
}

// numaSweep is the grid presets × topologies × nodes of quick numa points.
func numaSweep(presets, topologies, nodes []string) lab.Sweep {
	return lab.Sweep{
		Base: core.Spec{Experiment: "numa", Quick: true},
		Axes: []lab.Axis{{Field: "preset", Values: presets}, {Field: "topology", Values: topologies}, {Field: "nodes", Values: nodes}},
	}
}

// mustExpand expands a sweep genInputs built, which is valid by
// construction.
func mustExpand(sw lab.Sweep) []core.Spec {
	specs, err := sw.Expand()
	if err != nil {
		panic(err)
	}
	return specs
}

// httpServer serves one listener until stop.
type httpServer struct {
	hs   *http.Server
	done chan struct{}
}

// listen opens a loopback listener and returns it with its base URL.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve runs h on ln with butterflyd's connection timeouts.
func serve(ln net.Listener, h http.Handler) *httpServer {
	s := &httpServer{
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return s
}

// stop closes the listener and every connection, and waits for Serve.
func (s *httpServer) stop() {
	_ = s.hs.Close()
	<-s.done
}

// shutdown drains a scheduler, canceling whatever is left after 30 s.
func shutdown(s *lab.Scheduler) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// labNode is an in-process butterflyd in its single role: journal, cache,
// spooled results, two workers, on a loopback listener.
type labNode struct {
	dir     string
	url     string
	web     *httpServer
	sched   *lab.Scheduler
	journal *lab.Journal
	cache   *lab.Cache
}

// startLabNode starts a daemon with an empty journal and cache under dir.
func startLabNode(r *run, dir string) (*labNode, error) {
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	journal, err := lab.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		ln.Close()
		return nil, err
	}
	cache := lab.OpenCache(filepath.Join(dir, "cache"))
	srv := lab.NewServer(lab.ServerConfig{})
	sched := lab.NewScheduler(lab.Config{
		Workers:      labWorkers,
		QueueDepth:   queueDepth,
		Cache:        cache,
		Journal:      journal,
		SpoolResults: true,
	})
	srv.Attach(sched)
	var h http.Handler = srv
	if r.tr != nil {
		h = timedHandler{next: srv, tr: r.tr, prefix: "lab.server."}
	}
	return &labNode{
		dir:     dir,
		url:     url,
		web:     serve(ln, h),
		sched:   sched,
		journal: journal,
		cache:   cache,
	}, nil
}

// close stops the daemon and deletes its journal and cache.
func (n *labNode) close() error {
	err := shutdown(n.sched)
	n.web.stop()
	return errors.Join(err, n.journal.Close(), os.RemoveAll(n.dir))
}

type singleNode struct {
	in   serviceInputs
	plan servicePlan
	// node is the set-up's daemon, which the first iteration runs on;
	// nil once that iteration has started.
	node *labNode
}

func setupSingleNode(r *run) (session, error) {
	plan := singleNodePlan(r.smoke)
	node, err := startLabNode(r, filepath.Join(r.dir, "node-0"))
	if err != nil {
		return nil, err
	}
	s := &singleNode{node: node, in: genInputs(r, plan), plan: plan}
	g := newLoadgen(node.url, nil, jobPoll)
	defer g.close()
	res, err := g.sweep(s.in.warmup)
	if err == nil {
		_, _, err = checkSweep(s.in.warmup, res)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up sweep: %w", err), node.close())
	}
	return s, nil
}

func (s *singleNode) close() error {
	if s.node == nil {
		return nil
	}
	err := s.node.close()
	s.node = nil
	return err
}

// iterResult is what one iteration measured.
type iterResult struct {
	cold, warm   []sweepTime // at most one each
	jobs         []jobSample
	blockMeans   []float64 // mean round trip of each client's block of blockTurns jobs
	simNs        int64     // simulation time of the cold sweep's re-run points
	simN         int
	records      int64  // journal records the job phase appended
	hits, misses uint64 // cache lookups in the job phase
	depthMax     float64
	coldSpan     window // when the cold sweep ran
	jobsSpan     window // when the job phase ran
}

// measure runs iterations, each on a fresh daemon, while the next one is
// expected to end within --seconds.
func (s *singleNode) measure(r *run) error {
	start := time.Now()
	var its []iterResult
	var last time.Duration
	for k := 0; k == 0 || time.Since(start)+last <= r.seconds; k++ {
		began := time.Now()
		node := s.node
		s.node = nil
		if node == nil {
			var err error
			if node, err = startLabNode(r, filepath.Join(r.dir, fmt.Sprintf("node-%d", k))); err != nil {
				return err
			}
		}
		it, err := s.iterate(r, node, k)
		if err = errors.Join(err, node.close()); err != nil {
			return err
		}
		its = append(its, it)
		last = time.Since(began)
	}
	return s.report(r, its)
}

// iterate runs iteration k on node: the cold sweep, the same sweep warm,
// and the closed-loop job phase.
func (s *singleNode) iterate(r *run, node *labNode, k int) (iterResult, error) {
	var it iterResult
	g := newLoadgen(node.url, r.tr, sweepPoll)
	defer g.close()
	stopQueue := sample(func() (float64, error) { return float64(node.sched.Metrics().QueueDepth), nil })

	sw := s.in.sweep
	it.coldSpan.from = time.Now()
	cold, err := g.sweep(sw)
	it.coldSpan.to = time.Now()
	if err == nil {
		it.simNs, it.simN, err = checkSweep(sw, cold)
	}
	r.rep.op(err)
	if err == nil {
		it.cold = append(it.cold, cold.sweepTime)
		warm, err := g.sweep(sw)
		if err == nil && !bytes.Equal(warm.doc, cold.doc) {
			err = fmt.Errorf("warm sweep %s differs from its cold run %s", warm.id, cold.id)
		}
		r.rep.op(err)
		if err == nil {
			it.warm = append(it.warm, warm.sweepTime)
		}
	}
	g.close()

	recs0, cache0 := node.journal.Rec(), node.cache.Stats()
	it.jobsSpan.from = time.Now()
	it.jobs, it.blockMeans = runJobs(r, node.url, s.in, s.plan.jobs, k)
	it.jobsSpan.to = time.Now()
	recs1, cache1 := node.journal.Rec(), node.cache.Stats()
	depths, _ := stopQueue()
	it.depthMax = slices.Max(depths)
	it.records = recs1 - recs0
	it.hits = cache1.Hits - cache0.Hits
	it.misses = cache1.Misses - cache0.Misses
	if len(it.jobs) == 0 {
		return it, errors.New("no closed-loop job completed")
	}
	return it, nil
}

// report turns the iterations into the end-to-end metrics and, when
// traced, the job-path and sweep-path stages.
func (s *singleNode) report(r *run, its []iterResult) error {
	var cold, warm []sweepTime
	var blockMeans, rtts, hitRtts, missRtts []float64
	var events, simEvents uint64
	var simWall, sweepSimNs int64
	var sweepSimN, misses int
	var records int64
	var hits, lookups uint64
	var depthMax float64
	var coldSpans, jobsSpans []window
	for _, it := range its {
		cold = append(cold, it.cold...)
		warm = append(warm, it.warm...)
		blockMeans = append(blockMeans, it.blockMeans...)
		sweepSimNs += it.simNs
		sweepSimN += it.simN
		records += it.records
		hits += it.hits
		lookups += it.hits + it.misses
		depthMax = max(depthMax, it.depthMax)
		coldSpans = append(coldSpans, it.coldSpan)
		jobsSpans = append(jobsSpans, it.jobsSpan)
		for _, j := range it.jobs {
			rtt := ms(j.rtt.Nanoseconds())
			rtts = append(rtts, rtt)
			events += j.events
			if j.hit {
				hitRtts = append(hitRtts, rtt)
			} else {
				missRtts = append(missRtts, rtt)
				misses++
				simWall += j.wallNs
				simEvents += j.events
			}
		}
	}
	if len(cold) == 0 {
		return errors.New("no cold sweep completed")
	}
	// Half the jobs are cache hits, so round trips have two modes of equal
	// weight and their median falls in the gap between them. A block's mean
	// weighs both paths by their exact share, and the median block keeps a
	// few slow seconds of the host from moving the run's number.
	r.rep.dist("op_ms", blockMeans)
	coldRates := sweepRates(cold)
	r.rep.dist("work_per_s", coldRates)

	n := float64(len(rtts))
	r.rep.set("sim.events_per_op", float64(events)/n)
	r.rep.set("sim.ns_per_event", ratio(float64(simWall), float64(simEvents)))
	_, coldRate, _ := quartiles(coldRates)
	_, warmRate, _ := quartiles(sweepRates(warm))
	r.rep.set("lab.warm_over_cold", ratio(warmRate, coldRate))
	mean := sum(rtts) / n
	_, hitP50, _ := quartiles(hitRtts)
	_, missP50, _ := quartiles(missRtts)
	r.rep.set("lab.job.hit_p50_over_mean", hitP50/mean)
	r.rep.set("lab.job.miss_p50_over_mean", missP50/mean)
	r.rep.set("lab.job.p99_over_mean", percentile(rtts, 0.99)/mean)
	r.rep.set("lab.journal.records_per_job", float64(records)/n)
	r.rep.set("lab.cache.hit_rate", ratio(float64(hits), float64(lookups)))
	r.rep.set("lab.queue_depth_max", depthMax)
	if r.tr == nil {
		return nil
	}

	// Where a closed-loop job's time goes. Server spans time each route's
	// handler; a client span's self time is its HTTP overhead (round trip
	// minus handler). Journal and cache stages are the measured per-call
	// costs times the calls a job makes: a cold job appends Started and the
	// fsynced Finished record and writes one cache blob outside any request,
	// while a hit does all of its work inside POST /jobs.
	layer := func(name string) float64 { s, _ := r.rep.get(name); return s.value * 1e3 }
	tot := r.tr.totals(jobsSpans...)
	rtt := float64(totalOf(tot, "job"))
	stages := map[string]float64{
		"lab.share.admit":   float64(totalOf(tot, "lab.server.post_jobs")),
		"lab.share.http":    float64(selfOf(tot, "client.post_jobs") + selfOf(tot, "client.get_result")),
		"lab.share.fetch":   float64(totalOf(tot, "lab.server.get_result")),
		"lab.share.execute": float64(simWall),
		"lab.share.journal": float64(misses) * (layer("lab.journal.append_us") + layer("lab.journal.terminal_append_us")),
		"lab.share.cache":   float64(misses) * layer("lab.cache.put_us"),
	}
	var stageSum float64
	for name, ns := range stages {
		r.rep.set(name, ratio(ns, rtt))
		stageSum += ns
	}
	r.rep.set("lab.stage_sum_ratio", ratio(stageSum, rtt))
	r.rep.set("lab.share.poll", ratio(float64(totalOf(tot, "client.get_job")+totalOf(tot, "client.sleep")), rtt))

	// Where a cold sweep's time goes: handler time of its requests as a
	// share of sweep wall, and per-point worker stages spread over the
	// worker pool. Simulation per point is the mean of the points
	// re-simulated for checking, run alone, so under the sweep's contention
	// the true share is larger.
	tot = r.tr.totals(coldSpans...)
	var wall, points float64
	for _, c := range cold {
		wall += float64(c.wall.Nanoseconds())
		points += float64(c.points)
	}
	perWorker := points / labWorkers / wall
	r.rep.set("lab.sweep.share.admit", ratio(float64(totalOf(tot, "lab.server.post_sweeps")), wall))
	r.rep.set("lab.sweep.share.result", ratio(float64(totalOf(tot, "lab.server.sweep_result")), wall))
	r.rep.set("lab.sweep.share.simulate", ratio(float64(sweepSimNs), float64(sweepSimN))*perWorker)
	r.rep.set("lab.sweep.share.journal", (layer("lab.journal.append_us")+layer("lab.journal.terminal_append_us"))*perWorker)
	r.rep.set("lab.sweep.share.cache", layer("lab.cache.put_us")*perWorker)
	return nil
}

// sweepRates are each sweep's points per second.
func sweepRates(sweeps []sweepTime) []float64 {
	var rates []float64
	for _, s := range sweeps {
		rates = append(rates, ratio(float64(s.points), s.wall.Seconds()))
	}
	return rates
}

// loadgen is the sweep client: raw HTTP on one connection, since lab/client
// has no sweep calls. It polls a sweep's status every poll: sweepPoll in the
// measured phases, and jobPoll for set-up's warm-up sweep, whose time
// setup_s would otherwise report in steps of sweepPoll.
type loadgen struct {
	base string
	hc   *http.Client
	tr   *tracer
	poll time.Duration
}

func newLoadgen(base string, tr *tracer, poll time.Duration) *loadgen {
	return &loadgen{
		base: base,
		tr:   tr,
		poll: poll,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

func (g *loadgen) close() { g.hc.CloseIdleConnections() }

// call sends one request inside a client span.
func (g *loadgen) call(method, path string, body []byte, trace uint64) (int, []byte, error) {
	req, err := http.NewRequest(method, g.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	var status int
	var data []byte
	g.tr.timed("client."+route(req), trace, trace, func(id uint64) {
		if g.tr != nil {
			for k, v := range traceHeaders(trace, id) {
				req.Header.Set(k, v)
			}
		}
		var resp *http.Response
		if resp, err = g.hc.Do(req); err != nil {
			return
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	})
	return status, data, err
}

// sweepTime is how long a sweep of points took, from submit to the last
// byte of its result. Iterations keep only this of their sweeps, so the
// benchmark's own memory does not grow with the number of iterations.
type sweepTime struct {
	points int
	wall   time.Duration
}

// sweepResult is one tracked sweep, submitted and read back.
type sweepResult struct {
	sweepTime
	id   string
	jobs []lab.JobStatus
	doc  []byte
}

// sweep submits sw, polls it every g.poll until every point is done, and
// streams the reassembled result. wall runs from submit to the last byte.
func (g *loadgen) sweep(sw lab.Sweep) (sweepResult, error) {
	var res sweepResult
	body, err := json.Marshal(sw)
	if err != nil {
		return res, err
	}
	trace := g.tr.id()
	start := time.Now()
	status, data, err := g.call(http.MethodPost, "/sweeps", body, trace)
	if err != nil || status != http.StatusAccepted {
		return res, fmt.Errorf("POST /sweeps: status %d: %v %s", status, err, data)
	}
	var sub struct {
		ID     string          `json:"id"`
		Points int             `json:"points"`
		Jobs   []lab.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		return res, fmt.Errorf("POST /sweeps: no tracked sweep in %d-byte answer: %v", len(data), err)
	}
	res.id, res.jobs, res.points = sub.ID, sub.Jobs, sub.Points
	if err := g.waitSweep(res.id, trace); err != nil {
		return res, err
	}
	status, res.doc, err = g.call(http.MethodGet, "/sweeps/"+res.id+"/result", nil, trace)
	if err != nil || status != http.StatusOK {
		return res, fmt.Errorf("GET /sweeps/%s/result: status %d: %v", res.id, status, err)
	}
	end := time.Now()
	g.tr.record("sweep", trace, trace, 0, start, end)
	res.wall = end.Sub(start)
	return res, nil
}

// waitSweep polls a sweep's status until every point is done.
func (g *loadgen) waitSweep(id string, trace uint64) error {
	for {
		status, data, err := g.call(http.MethodGet, "/sweeps/"+id, nil, trace)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("GET /sweeps/%s: status %d: %v", id, status, err)
		}
		var v struct {
			Points int `json:"points"`
			Done   int `json:"done"`
			Failed int `json:"failed"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return fmt.Errorf("GET /sweeps/%s: %w", id, err)
		}
		if v.Failed > 0 {
			return fmt.Errorf("sweep %s: %d of %d points failed", id, v.Failed, v.Points)
		}
		if v.Done == v.Points {
			return nil
		}
		g.tr.timed("client.sleep", trace, trace, func(uint64) { time.Sleep(g.poll) })
	}
}

// checkSweep checks a sweep against the lab's own definitions: every job's
// fingerprint is lab.Fingerprint of its grid point, every point's header is
// in grid order, and every checkEvery-th point's table equals lab.RunSpec's.
// It returns the summed simulation wall time of the points it re-ran.
func checkSweep(sw lab.Sweep, res sweepResult) (simNs int64, simN int, err error) {
	specs, err := sw.Expand()
	if err != nil {
		return 0, 0, err
	}
	if len(res.jobs) != len(specs) || res.points != len(specs) {
		return 0, 0, fmt.Errorf("sweep %s: %d jobs for %d points", res.id, len(res.jobs), len(specs))
	}
	for i, sp := range specs {
		if res.jobs[i].Fingerprint != lab.Fingerprint(sp) {
			return 0, 0, fmt.Errorf("sweep %s point %d: fingerprint %s, want %s", res.id, i+1, res.jobs[i].Fingerprint, lab.Fingerprint(sp))
		}
	}
	tables, err := splitSweep(string(res.doc), specs)
	if err != nil {
		return 0, 0, fmt.Errorf("sweep %s: %w", res.id, err)
	}
	for i := 0; i < len(specs); i += checkEvery {
		want, err := lab.RunSpec(specs[i])
		if err != nil {
			return simNs, simN, err
		}
		simNs += want.WallNs
		simN++
		if tables[i] != withNewline(want.Table) {
			return simNs, simN, fmt.Errorf("sweep %s point %d: table differs from lab.RunSpec", res.id, i+1)
		}
	}
	return simNs, simN, nil
}

// splitSweep cuts a reassembled sweep document into its per-point tables,
// checking each point's header.
func splitSweep(doc string, specs []core.Spec) ([]string, error) {
	tables := make([]string, len(specs))
	pos := 0
	for i, sp := range specs {
		hdr := fmt.Sprintf("--- point %d/%d: %s ---\n", i+1, len(specs), lab.DescribeSpec(sp))
		if !strings.HasPrefix(doc[pos:], hdr) {
			return nil, fmt.Errorf("point %d: header %q missing", i+1, strings.TrimSpace(hdr))
		}
		pos += len(hdr)
		end := len(doc)
		if i+1 < len(specs) {
			k := strings.Index(doc[pos:], fmt.Sprintf("--- point %d/%d: ", i+2, len(specs)))
			if k < 0 {
				return nil, fmt.Errorf("point %d: no header follows", i+1)
			}
			end = pos + k
		}
		tables[i] = doc[pos:end]
		pos = end
	}
	return tables, nil
}

func withNewline(s string) string {
	if strings.HasSuffix(s, "\n") {
		return s
	}
	return s + "\n"
}

// jobSample is one closed-loop job.
type jobSample struct {
	rtt    time.Duration
	hit    bool   // done at submit: served from the cache
	wallNs int64  // Result.WallNs: the producing run's simulation time
	events uint64 // Result.Events
}

// jobClient runs closed-loop jobs through lab/client, the public client.
type jobClient struct {
	cl            *client.Client
	tr            *tracer
	trace, parent uint64 // trace context of the request in flight
}

func newJobClient(base string, tr *tracer) *jobClient {
	c := &jobClient{cl: client.New(base), tr: tr}
	if tr != nil {
		c.cl.Headers = func() map[string]string { return traceHeaders(c.trace, c.parent) }
	}
	return c
}

// span runs fn inside a client span of the current job.
func (c *jobClient) span(name string, fn func()) {
	c.tr.timed(name, c.trace, c.trace, func(id uint64) {
		c.parent = id
		fn()
	})
}

// job submits spec, polls it every jobPoll until it finishes, and fetches
// the result, checking both fingerprints against lab.Fingerprint.
func (c *jobClient) job(spec core.Spec) (jobSample, *core.Result, error) {
	ctx := context.Background()
	c.trace = c.tr.id()
	start := time.Now()
	var st *lab.JobStatus
	var err error
	c.span("client.post_jobs", func() { st, err = c.cl.Submit(ctx, spec) })
	if err != nil {
		return jobSample{}, nil, fmt.Errorf("submit: %w", err)
	}
	hit := st.State == core.JobDone
	for !st.State.Terminal() {
		c.tr.timed("client.sleep", c.trace, c.trace, func(uint64) { time.Sleep(jobPoll) })
		id := st.ID
		c.span("client.get_job", func() { st, err = c.cl.Job(ctx, id) })
		if err != nil {
			return jobSample{}, nil, fmt.Errorf("poll %s: %w", id, err)
		}
	}
	if st.State != core.JobDone {
		return jobSample{}, nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	var res *core.Result
	c.span("client.get_result", func() { res, err = c.cl.Result(ctx, st.ID) })
	if err != nil {
		return jobSample{}, nil, fmt.Errorf("result %s: %w", st.ID, err)
	}
	end := time.Now()
	c.tr.record("job", c.trace, c.trace, 0, start, end)
	if fp := lab.Fingerprint(spec); st.Fingerprint != fp || res.Fingerprint != fp {
		return jobSample{}, nil, fmt.Errorf("job %s: fingerprint %s / %s, want %s", st.ID, st.Fingerprint, res.Fingerprint, fp)
	}
	return jobSample{rtt: end.Sub(start), hit: hit, wallNs: res.WallNs, events: res.Events}, res, nil
}

// blockTurns is the size of the blocks a client's turns come in, each with
// exactly repeatShare repeats.
const blockTurns = 50

// runJobs runs iteration k's n jobs from jobClients closed loops and
// returns them with the mean round trip of every complete block. Each
// client submits new specs from its own list, continuing where iteration
// k-1 left off (the daemon is fresh, so none is a cache hit), and in a
// seeded repeatShare of its turns one of this iteration's earlier specs
// instead. The share is exact in every block of blockTurns turns, so the
// seed moves which turns repeat but never how many. A repeat must return
// the same table as the first run; every checkEvery-th new spec is
// re-simulated after the phase.
func runJobs(r *run, base string, in serviceInputs, n, k int) ([]jobSample, []float64) {
	type check struct {
		spec  core.Spec
		table string
	}
	var mu sync.Mutex
	var samples []jobSample
	var blockMeans []float64
	var checks []check
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jc := newJobClient(base, r.tr)
			rng := r.rng(10 + uint64(jobClients*k+c))
			turns := n / jobClients
			repeat := make([]bool, turns)
			for lo := 0; lo < turns; lo += blockTurns {
				block := repeat[lo:min(lo+blockTurns, turns)]
				for i := range int(float64(len(block)) * repeatShare) {
					block[i] = true
				}
				rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			}
			// The first turn has nothing to repeat: swap it with a new one of
			// its block.
			if first := slices.Index(repeat, false); first > 0 {
				repeat[0], repeat[first] = false, true
			}
			own := in.jobs[c]
			next := k * (turns - int(float64(turns)*repeatShare))
			var hist []core.Spec
			tables := make(map[core.Spec]string)
			var block []float64
			for turn, again := range repeat {
				var spec core.Spec
				if again {
					spec = hist[rng.IntN(len(hist))]
				} else {
					spec = own[next%len(own)]
					next++
					hist = append(hist, spec)
				}
				s, res, err := jc.job(spec)
				if err == nil {
					if want, seen := tables[spec]; !seen {
						tables[spec] = res.Table
						if len(tables)%checkEvery == 1 {
							mu.Lock()
							checks = append(checks, check{spec, res.Table})
							mu.Unlock()
						}
					} else if want != res.Table {
						err = fmt.Errorf("repeat of %s returned a different table", lab.DescribeSpec(spec))
					}
				}
				r.rep.op(err)
				if err == nil {
					block = append(block, ms(s.rtt.Nanoseconds()))
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
				}
				if (turn+1)%blockTurns == 0 || turn+1 == turns {
					if len(block) > 0 {
						mu.Lock()
						blockMeans = append(blockMeans, sum(block)/float64(len(block)))
						mu.Unlock()
					}
					block = block[:0]
				}
			}
		}()
	}
	wg.Wait()
	for _, ck := range checks {
		want, err := lab.RunSpec(ck.spec)
		if err == nil && want.Table != ck.table {
			err = fmt.Errorf("job %s: table differs from lab.RunSpec", lab.DescribeSpec(ck.spec))
		}
		if err != nil {
			r.rep.fail(err)
		}
	}
	return samples, blockMeans
}
