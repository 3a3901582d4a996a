// Command butterflyd serves the experiment lab over HTTP: submit jobs
// against the paper's experiment registry, poll their status, fetch result
// tables, and watch queue/cache metrics. Simulations run concurrently on a
// worker pool; identical jobs are served from the content-addressed result
// cache without re-execution.
//
// The daemon is crash-safe: every job lifecycle transition is appended to a
// write-ahead journal (-journal-dir), so a restart replays the journal,
// restores finished jobs, and requeues whatever the previous process left
// mid-flight — re-execution is safe because every simulation is
// deterministic and the result cache is content-addressed. It is also
// overload-tolerant: a full queue or an over-rate client gets 429 +
// Retry-After instead of a hang, POST bodies are size-capped, and slow or
// idle connections are timed out.
//
// Usage:
//
//	butterflyd                          # listen on :7788, GOMAXPROCS workers
//	butterflyd -addr :9000 -workers 4
//	butterflyd -no-cache                # always execute
//	butterflyd -cache-dir /tmp/labcache
//	butterflyd -journal-dir /tmp/labjournal
//	butterflyd -no-journal              # volatile: forget all jobs on exit
//	butterflyd -rate 20 -burst 40       # per-remote submissions/sec
//	butterflyd -pprof                   # expose /debug/pprof/ (off by default)
//
// API quickstart:
//
//	curl -s localhost:7788/experiments
//	curl -s -X POST localhost:7788/jobs -d '{"experiment":"numa","quick":true}'
//	curl -s localhost:7788/jobs/j0001-xxxxxxxx          # status + queue position
//	curl -s localhost:7788/jobs/j0001-xxxxxxxx/result   # the table
//	curl -s -X POST localhost:7788/sweeps -d '{"base":{"experiment":"numa","quick":true},"axes":[{"field":"nodes","values":["8..128:*2"]}]}'
//	curl -s localhost:7788/metrics
//	curl -s localhost:7788/readyz       # 503 during journal replay and drain
//
// SIGINT/SIGTERM shut down gracefully: /readyz flips to 503 immediately,
// intake stops, queued and in-flight jobs drain (bounded by -drain-timeout)
// while status polling keeps working, then the journal is compacted and the
// process exits.
//
// # Fleet mode
//
// butterflyd also runs as a fleet: one coordinator that places jobs on
// workers by consistent-hashing the spec content-address, and N workers
// that execute them. The coordinator speaks the exact same job API — point
// butterflybench -server (or any client) at it and a sweep fans out across
// the fleet, reassembling byte-identical to a single-node run.
//
//	butterflyd -role coordinator -addr :7788
//	butterflyd -role worker -addr :7790 -join http://127.0.0.1:7788
//	butterflyd -role worker -addr :7791 -join http://127.0.0.1:7788
//
// Robustness: workers heartbeat the coordinator (-heartbeat); a worker
// that misses them for -dead-after has its in-flight jobs reassigned to
// the next ring node (logged as `fleet: reassign ...`, idempotent because
// results are content-addressed); workers probe ring siblings' caches
// before simulating (peer fill); and a SIGKILLed coordinator restarts,
// replays its write-ahead journal, and resumes the sweep under the original
// job IDs. Membership is not journaled: the workers' next heartbeats refill
// the restarted coordinator's ring, and it holds jobs until they do.
//
// # Coordinator failover
//
// A standby replicates the coordinator's journal over HTTP — no shared
// disk — and promotes itself when the primary goes silent:
//
//	butterflyd -role coordinator -addr :7788
//	butterflyd -role standby -addr :7789 -follow http://127.0.0.1:7788
//
// The standby pulls journal records (job lifecycle, sweep identities,
// epochs) into its own journal on its own disk. When the primary stops
// answering at the connection level for -dead-after, the standby durably
// fences a new epoch, replays its replicated journal, and resumes the sweep
// under the original job IDs — reassembled byte-identical to a single-node
// run. Workers learn the standby's URL from heartbeat acks and fail over to
// it, and their first heartbeats there fill its ring; their epoch gates
// answer 412 to any dispatch from the deposed primary, which steps down
// the moment it sees one. Replication lag, epoch, and takeover count are
// on /metrics (and GET /replica/status on a standby that has not yet
// promoted).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
	"butterfly/internal/lab/fleet"
)

func main() {
	var (
		addr         = flag.String("addr", ":7788", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 256, "bounded work queue depth")
		cacheDir     = flag.String("cache-dir", lab.DefaultCacheDir, "content-addressed result cache directory")
		noCache      = flag.Bool("no-cache", false, "disable the result cache (always execute)")
		journalDir   = flag.String("journal-dir", lab.DefaultJournalDir, "write-ahead job journal directory (roles single, coordinator, and standby; a worker keeps no journal)")
		noJournal    = flag.Bool("no-journal", false, "disable the journal (jobs do not survive restarts)")
		rate         = flag.Float64("rate", 50, "per-remote submission rate limit in requests/sec (0 = unlimited)")
		burst        = flag.Int("burst", 100, "per-remote submission burst size")
		maxBody      = flag.Int64("max-body", 1<<20, "maximum POST body size in bytes")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for queued and in-flight jobs")
		pprofOn      = flag.Bool("pprof", false, "expose Go profiling endpoints under /debug/pprof/ (off by default; do not enable on untrusted networks)")

		role      = flag.String("role", "single", `fleet role: "single" (default), "coordinator" (place jobs on workers), "worker" (execute jobs for a coordinator), or "standby" (replicate a coordinator's journal; promote on its death)`)
		joinURL   = flag.String("join", "", "worker: coordinator base URL to join (required with -role worker)")
		followURL = flag.String("follow", "", "standby: primary coordinator base URL to replicate (required with -role standby)")
		advertise = flag.String("advertise", "", "worker/standby: base URL peers reach this daemon on (default derived from -addr on loopback)")
		workerID  = flag.String("worker-id", "", "worker: stable ring identity (default: the advertise host:port)")
		heartbeat = flag.Duration("heartbeat", time.Second, "worker: heartbeat interval")
		deadAfter = flag.Duration("dead-after", 5*time.Second, "coordinator: reassign a worker's jobs after this long without a heartbeat; standby: take over after this long of primary silence")
		dispatch  = flag.Int("dispatch", 16, "coordinator: concurrent remote dispatches (used when -workers is 0)")
	)
	flag.Parse()
	log.SetPrefix("butterflyd: ")
	log.SetFlags(log.LstdFlags)

	switch *role {
	case "single", "coordinator", "worker", "standby":
	default:
		log.Fatalf("-role must be single, coordinator, worker, or standby (got %q)", *role)
	}
	if *role == "worker" && *joinURL == "" {
		log.Fatalf("-role worker requires -join <coordinator URL>")
	}
	if *role == "standby" {
		if *followURL == "" {
			log.Fatalf("-role standby requires -follow <primary coordinator URL>")
		}
		if *noJournal {
			log.Fatalf("-role standby is pointless without a journal: the replicated journal IS the standby")
		}
	}

	// A worker's fleet runtime exists before the listener so its epoch gate
	// can wrap the whole HTTP surface: dispatches from a fenced (replaced)
	// coordinator are rejected with 412 before they reach the job API.
	var fworker *fleet.Worker
	if *role == "worker" {
		self := core.WorkerRecord{ID: *workerID, URL: *advertise}
		if self.URL == "" {
			self.URL = advertiseFromAddr(*addr)
		}
		if self.ID == "" {
			self.ID = idFromURL(self.URL)
		}
		fworker = fleet.NewWorker(fleet.WorkerConfig{
			Self:           self,
			Coordinator:    *joinURL,
			HeartbeatEvery: *heartbeat,
			Logf:           log.Printf,
		})
	}

	// Listen before the journal replay so health probes get answers from
	// the first moment: /healthz is alive, /readyz is 503 until the
	// scheduler is attached.
	srv := lab.NewServer(lab.ServerConfig{
		MaxBodyBytes: *maxBody,
		RatePerSec:   *rate,
		RateBurst:    *burst,
	})
	// Profiling endpoints are mounted on an explicit mux (never the default
	// one) and only when asked for: the lab API stays the whole surface on a
	// stock deployment.
	var handler http.Handler = srv
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}
	if fworker != nil {
		// Outermost: a stale-epoch dispatch is rejected before anything else
		// sees it. Requests without an epoch header pass untouched.
		handler = fworker.Gate().Middleware(handler)
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slow-client hygiene: a peer that trickles its headers, never
		// reads its response, or parks an idle keep-alive cannot pin a
		// connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	var cache *lab.Cache
	if !*noCache {
		cache = lab.OpenCache(*cacheDir)
	}
	// A worker keeps none: the coordinator's journal records fleet jobs.
	var journal *lab.Journal
	if !*noJournal && *role != "worker" {
		var err error
		journal, err = lab.OpenJournal(*journalDir)
		if err != nil {
			// A corrupt journal is an operator decision, not something to
			// silently discard: refuse to start.
			log.Fatalf("journal: %v (repair or remove %s to start fresh)", err, *journalDir)
		}
		if journal.Torn() {
			log.Printf("journal: dropped a torn final record (previous process died mid-append)")
		}
	}
	cfg := lab.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		Cache:      cache,
		Journal:    journal,
	}

	selfURL := *advertise
	if selfURL == "" {
		selfURL = advertiseFromAddr(*addr)
	}

	// buildCoordinator assembles a serving coordinator — used at startup by
	// -role coordinator (takeovers=0) and at promotion time by a standby
	// (takeovers=1, epoch freshly fenced). Returns the coordinator and the
	// scheduler config it drives.
	buildCoordinator := func(epoch, takeovers uint64) (*fleet.Coordinator, lab.Config) {
		ccfg := cfg
		var rep *fleet.Replicator
		if journal != nil {
			rep = fleet.NewReplicator(journal)
		}
		coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
			DeadAfter:  *deadAfter,
			Epoch:      epoch,
			Takeovers:  takeovers,
			SelfURL:    selfURL,
			Replicator: rep,
			Logf:       log.Printf,
		})
		coord.Mount(srv)
		ccfg.Execute = coord.Execute
		if ccfg.Workers == 0 {
			// Dispatch slots are parked on HTTP polls, not CPU; give the
			// coordinator more of them than it has cores.
			ccfg.Workers = *dispatch
		}
		// A coordinator's memory is bounded by its largest single result,
		// not the sum of a sweep: finished tables spool to the cache and
		// sweep reassembly streams them back one point at a time.
		ccfg.SpoolResults = cache != nil
		return coord, ccfg
	}

	// The serving scheduler and coordinator are atomic because a standby
	// creates them on its replication goroutine at takeover time, while
	// main sleeps on signals.
	var schedPtr atomic.Pointer[lab.Scheduler]
	var coordPtr atomic.Pointer[fleet.Coordinator]
	var follower *fleet.Follower

	attach := func(coord *fleet.Coordinator, ccfg lab.Config) {
		sched := lab.NewScheduler(ccfg)
		coordPtr.Store(coord)
		schedPtr.Store(sched)
		srv.Attach(sched)
		if rec := sched.Recovery(); rec.Replayed > 0 {
			log.Printf("journal: replayed %d jobs (%d restored, %d requeued)",
				rec.Replayed, rec.Restored, rec.Requeued)
		}
	}

	// A coordinator's ring starts empty: the jobs the scheduler requeues
	// from the journal wait in Execute until the workers' heartbeats
	// refill it, one or two heartbeat intervals after startup.
	switch *role {
	case "single":
		attach(nil, cfg)
	case "coordinator":
		// The first coordinator on a journal fences epoch 1; a restart
		// inherits whatever epoch the journal last fenced.
		epoch := uint64(0)
		if journal != nil {
			if journal.Epoch() == 0 {
				if _, err := journal.BumpEpoch(); err != nil {
					log.Fatalf("journal: fencing initial epoch: %v", err)
				}
			}
			epoch = journal.Epoch()
		}
		attach(buildCoordinator(epoch, 0))
	case "worker":
		cfg.PeerFill = fworker.PeerFill
		srv.AugmentMetrics(func() any { return fworker.Metrics() })
		attach(nil, cfg)
	case "standby":
		// No scheduler yet: /readyz stays 503 until promotion. The follower
		// replicates the primary's journal into ours; OnTakeover fences the
		// epoch (already durable when it fires), replays the replicated
		// journal, and starts serving — the in-flight sweep resumes under
		// its original job IDs once the workers' heartbeats reach us.
		follower = fleet.NewFollower(fleet.FollowerConfig{
			Self:      core.WorkerRecord{ID: idFromURL(selfURL), URL: selfURL},
			Primary:   *followURL,
			Journal:   journal,
			DeadAfter: *deadAfter,
			Logf:      log.Printf,
			OnTakeover: func(epoch uint64) {
				log.Printf("standby: promoting to coordinator (epoch %d)", epoch)
				attach(buildCoordinator(epoch, 1))
				log.Printf("standby: serving as coordinator on %s (epoch %d)", *addr, epoch)
			},
		})
		follower.Mount(srv)
		follower.Start()
	}

	if fworker != nil {
		fworker.Start()
	}
	if sched := schedPtr.Load(); sched != nil {
		log.Printf("serving %d experiments on %s (role %s, %d workers, queue %d, cache %s, journal %s)",
			len(core.Experiments()), *addr, *role, sched.Workers(), *queueDepth, cacheDesc(cache), journalDesc(journal))
	} else {
		log.Printf("standby on %s following %s (journal %s)", *addr, *followURL, journalDesc(journal))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case got := <-sig:
		log.Printf("%v: draining (timeout %s)", got, *drainTimeout)
	}

	// Drain order matters: readiness flips first (load balancers stop
	// routing; /healthz stays ok — the process is alive, just not taking
	// work), then a worker announces its departure (so the coordinator
	// stops placing new jobs here instead of later mistaking the silence
	// for a death), then the job queue drains while the HTTP listener keeps
	// serving status polls, then the listener closes and the journal
	// compacts.
	srv.BeginDrain()
	if fworker != nil {
		fworker.Leave()
	}
	if follower != nil {
		follower.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	sched := schedPtr.Load()
	var drainErr error
	if sched != nil {
		drainErr = sched.Shutdown(ctx)
	}
	// A worker keeps heartbeating through its own drain — the coordinator
	// must see it alive while it finishes dispatched jobs — and only goes
	// quiet once the queue is empty.
	if fworker != nil {
		fworker.Stop()
	}
	if coord := coordPtr.Load(); coord != nil {
		coord.Close()
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Printf("journal close: %v", err)
		}
	}
	if cache != nil {
		if err := cache.Close(); err != nil {
			log.Printf("cache close: %v", err)
		}
	}
	if drainErr != nil {
		log.Printf("drain incomplete, jobs canceled: %v", drainErr)
		os.Exit(1)
	}
	if sched == nil {
		log.Printf("standby exiting (never promoted)")
		return
	}
	m := sched.Metrics()
	log.Printf("drained: %d completed, %d failed, %d canceled, cache hit rate %.0f%%",
		m.Completed, m.Failed, m.Canceled, 100*m.CacheHitRate)
}

// cacheDesc names the cache for the startup log line.
func cacheDesc(c *lab.Cache) string {
	if c == nil {
		return "off"
	}
	return fmt.Sprintf("%q", c.Dir())
}

// journalDesc names the journal for the startup log line.
func journalDesc(j *lab.Journal) string {
	if j == nil {
		return "off"
	}
	return fmt.Sprintf("%q", j.Dir())
}

// advertiseFromAddr derives a peer-reachable base URL from a listen
// address: a bare ":port" becomes loopback (the single-box fleet case);
// anything with a host keeps it.
func advertiseFromAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// idFromURL derives a stable worker identity from the advertise URL, so a
// worker restarted on the same address reclaims its ring arcs (and the
// cached results parked behind them).
func idFromURL(u string) string {
	return strings.TrimPrefix(strings.TrimPrefix(u, "https://"), "http://")
}
