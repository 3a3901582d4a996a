package lab

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"butterfly/internal/core"
)

// ServerConfig parameterizes the HTTP surface's admission controls.
type ServerConfig struct {
	// MaxBodyBytes caps POST bodies (http.MaxBytesReader); <= 0 means 1 MiB.
	// A spec or sweep is a few hundred bytes — anything near the cap is
	// either a mistake or an attack.
	MaxBodyBytes int64
	// RatePerSec, when > 0, token-bucket rate-limits submissions (POST
	// /jobs, POST /sweeps) per remote host at this sustained rate.
	RatePerSec float64
	// RateBurst is the token-bucket size; <= 0 means 16.
	RateBurst int
}

func (c ServerConfig) maxBody() int64 {
	if c.MaxBodyBytes <= 0 {
		return 1 << 20
	}
	return c.MaxBodyBytes
}

// Server exposes a Scheduler over HTTP — the butterflyd API:
//
//	POST   /jobs            submit a job (body: core.Spec JSON)
//	GET    /jobs            list jobs in submission order
//	GET    /jobs/{id}       status + queue position
//	DELETE /jobs/{id}       cancel
//	GET    /jobs/{id}/result  table text (default) or ?format=json; with
//	                          ?wait=1, held open while the job is unfinished
//	POST   /sweeps          expand + submit a parameter sweep
//	GET    /experiments     the registry
//	GET    /metrics         queue depth, utilization, cache hit rate, jobs/sec
//	GET    /healthz         liveness (ok for the whole process lifetime)
//	GET    /readyz          readiness (503 during journal replay and drain)
//
// No answer reports a job, a sweep, or an outcome before the journal's
// durability watermark covers it: a handler builds its view, then awaits
// the records the view rests on (durable), then writes. A client told that
// a job was accepted or done can therefore count on it surviving a crash
// of the machine, and concurrent answers share one fsync (group commit).
// Once an fsync fails the journal refuses new records: every later POST
// gets 503 and /readyz turns not ready. The answer whose own await met the
// failure is a 500, and a 500 from a POST does not mean the work was
// refused: the job was queued before the await and may still run.
//
// Overload never blocks and never hangs: a full queue or an over-rate
// remote gets 429 with a Retry-After hint, an oversized body gets 413, and
// a server that is still replaying its journal (or draining for shutdown)
// answers 503 on /readyz while /healthz stays up.
type Server struct {
	cfg      ServerConfig
	mux      *http.ServeMux
	limiter  *rateLimiter
	sched    atomic.Pointer[Scheduler]
	draining atomic.Bool
	fleet    atomic.Pointer[func() any]
}

// NewServer wires the handlers. The scheduler is attached separately (see
// Attach) so butterflyd can listen — and answer health probes — while the
// journal replay that builds the scheduler is still running.
func NewServer(cfg ServerConfig) *Server {
	srv := &Server{cfg: cfg, mux: http.NewServeMux()}
	if cfg.RatePerSec > 0 {
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = 16
		}
		srv.limiter = newRateLimiter(cfg.RatePerSec, burst)
	}
	srv.mux.HandleFunc("POST /jobs", srv.submitJob)
	srv.mux.HandleFunc("GET /jobs", srv.listJobs)
	srv.mux.HandleFunc("GET /jobs/{id}", srv.jobStatus)
	srv.mux.HandleFunc("DELETE /jobs/{id}", srv.cancelJob)
	srv.mux.HandleFunc("GET /jobs/{id}/result", srv.jobResult)
	srv.mux.HandleFunc("POST /sweeps", srv.submitSweep)
	srv.mux.HandleFunc("GET /sweeps/{id}", srv.sweepStatus)
	srv.mux.HandleFunc("GET /sweeps/{id}/result", srv.sweepResult)
	srv.mux.HandleFunc("GET /experiments", srv.listExperiments)
	srv.mux.HandleFunc("GET /metrics", srv.metrics)
	srv.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	srv.mux.HandleFunc("GET /cache/{fp}", srv.cacheBlob)
	srv.mux.HandleFunc("GET /readyz", srv.readyz)
	return srv
}

// Handle mounts an extra handler on the server's mux — the hook the fleet
// package uses to add its membership endpoints (/fleet/...) without the
// lab layer knowing about fleets. Call before serving traffic.
func (s *Server) Handle(pattern string, handler http.Handler) {
	s.mux.Handle(pattern, handler)
}

// AugmentMetrics registers a callback whose value lands in the /metrics
// document's "fleet" field — live workers, reassignments, peer-cache hits.
func (s *Server) AugmentMetrics(fn func() any) { s.fleet.Store(&fn) }

// cacheBlob serves one content-addressed result straight from the local
// cache — the peer-fill endpoint ring siblings probe before simulating.
// A miss is 404: the sibling just runs the job itself.
func (s *Server) cacheBlob(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok {
		return
	}
	fp := r.PathValue("fp")
	if sched.Cache() == nil {
		writeError(w, http.StatusNotFound, errors.New("cache disabled"))
		return
	}
	if len(fp) < 8 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad fingerprint %q", fp))
		return
	}
	res, hit := sched.Cache().Get(fp)
	if !hit {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", fp))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// NewServerFor returns a server already attached to sched — the one-step
// constructor tests and in-process embedders use.
func NewServerFor(sched *Scheduler, cfg ServerConfig) *Server {
	srv := NewServer(cfg)
	srv.Attach(sched)
	return srv
}

// Attach publishes the scheduler and flips /readyz to ready.
func (s *Server) Attach(sched *Scheduler) { s.sched.Store(sched) }

// BeginDrain marks the server draining: /readyz turns 503 immediately (so
// load balancers stop routing) while /healthz and the rest of the API stay
// up for clients polling their in-flight jobs.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// scheduler fetches the attached scheduler, answering 503 (retryable) while
// the journal replay that precedes attachment is still running.
func (s *Server) scheduler(w http.ResponseWriter) (*Scheduler, bool) {
	sc := s.sched.Load()
	if sc == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("starting: journal replay in progress"))
		return nil, false
	}
	return sc, true
}

func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	sc := s.sched.Load()
	switch {
	case sc == nil:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("starting: journal replay in progress"))
	case s.draining.Load():
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, errors.New("draining: shutting down"))
	case sc.journalErr() != nil:
		// A failed fsync is sticky: this process takes no more work.
		writeError(w, http.StatusServiceUnavailable, sc.journalErr())
	default:
		fmt.Fprintln(w, "ready")
	}
}

// JobStatus is the wire form of a job's status.
type JobStatus struct {
	ID            string    `json:"id"`
	Fingerprint   string    `json:"fingerprint"`
	Spec          core.Spec `json:"spec"`
	State         State     `json:"state"`
	QueuePosition int       `json:"queue_position,omitempty"`
	CacheHit      bool      `json:"cache_hit,omitempty"`
	Error         string    `json:"error,omitempty"`
	WallMs        int64     `json:"wall_ms,omitempty"`
}

// statusView snapshots a job for the wire from its in-memory header, in one
// hold of j.mu, with the journal record the snapshot rests on (Job.rec). A
// spooled result's header keeps cache_hit and wall time, so a status answer
// never reads the cache and costs the same however many jobs the scheduler
// holds.
func statusView(j *Job) (JobStatus, int64) {
	v := JobStatus{
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		Spec:        j.Spec,
	}
	j.mu.Lock()
	v.State = j.state
	v.QueuePosition = j.queuePositionLocked()
	res, err, rec := j.res, j.err, j.rec
	j.mu.Unlock()
	if res != nil {
		v.CacheHit = res.CacheHit
		v.WallMs = res.WallNs / int64(time.Millisecond)
	}
	if err != nil {
		v.Error = err.Error()
	}
	return v, rec
}

// durable holds an answer until the journal's watermark covers rec, the
// last record the answer's view rests on. Callers build their view first,
// so that record is written by then. It reports false after writing the
// error answer itself: a failed fsync, a closed journal, or a client gone.
func durable(w http.ResponseWriter, r *http.Request, sched *Scheduler, rec int64) bool {
	j := sched.journal
	if j == nil {
		return true
	}
	if err := j.AwaitDurable(r.Context(), rec); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("journal: %w", err))
		return false
	}
	return true
}

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits a JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeSubmitError maps a submission error onto backpressure semantics: a
// full queue is 429 with a Retry-After hint (the client should back off and
// retry — the work was not taken), shutdown is 503, anything else is the
// submitter's fault. A journal whose fsync failed takes no work: 503
// without a Retry-After, since the failure is sticky.
func writeSubmitError(w http.ResponseWriter, sched *Scheduler, err error) {
	switch {
	case errors.Is(err, ErrJournalSync):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterValue(sched.RetryAfterHint()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// retryAfterValue renders a duration as a whole-second Retry-After header
// value, rounding up so "wait 300ms" never becomes "wait 0s".
func retryAfterValue(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// admitPost runs the per-remote rate limit and arms the body-size cap.
// It reports false after writing the 429 itself.
func (s *Server) admitPost(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter != nil {
		if ok, wait := s.limiter.Allow(remoteKey(r.RemoteAddr)); !ok {
			w.Header().Set("Retry-After", retryAfterValue(wait))
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("rate limit: %s exceeded %.3g submissions/sec", remoteKey(r.RemoteAddr), s.cfg.RatePerSec))
			return false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody())
	return true
}

// decodeBody parses a JSON POST body, distinguishing an oversized body
// (413) from a malformed one (400).
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("bad %s: body exceeds %d bytes", what, tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
		}
		return false
	}
	return true
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok || !s.admitPost(w, r) {
		return
	}
	var spec core.Spec
	if !decodeBody(w, r, "spec", &spec) {
		return
	}
	j, err := sched.Submit(spec)
	if err != nil {
		writeSubmitError(w, sched, err)
		return
	}
	v, rec := statusView(j)
	if !durable(w, r, sched, rec) {
		return
	}
	status := http.StatusAccepted
	if v.State == StateDone && v.CacheHit { // served from the cache, not merely finished already
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok {
		return
	}
	jobs := sched.Jobs()
	views := make([]JobStatus, 0, len(jobs))
	var last int64
	for _, j := range jobs {
		v, rec := statusView(j)
		views = append(views, v)
		last = max(last, rec)
	}
	if !durable(w, r, sched, last) {
		return
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok {
		return
	}
	j, found := sched.Lookup(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	v, rec := statusView(j)
	if !durable(w, r, sched, rec) {
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok {
		return
	}
	j, found := sched.Lookup(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	j.Cancel()
	v, rec := statusView(j)
	if !durable(w, r, sched, rec) {
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) jobResult(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok {
		return
	}
	j, found := sched.Lookup(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		awaitEvent(r.Context(), j.Done(), resultHold)
	}
	v, rec := statusView(j)
	if !durable(w, r, sched, rec) {
		return
	}
	switch v.State {
	case StateQueued, StateRunning:
		writeJSON(w, http.StatusConflict, v)
		return
	case StateCanceled:
		// The job will never have a result; 410 tells the client to stop
		// asking (409 would invite another poll).
		writeError(w, http.StatusGone, fmt.Errorf("job %s was canceled", j.ID))
		return
	}
	res, err := j.Result()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, res)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, res.Table)
}

// resultHold bounds how long a held result fetch (?wait=1) waits for an
// unfinished job before answering 409 so the client asks again. It stays
// well under butterflyd's 30 s ReadTimeout — past that deadline the server
// cancels the request — and its 60 s WriteTimeout and client timeout.
var resultHold = 10 * time.Second

// awaitEvent blocks until ch closes, ctx ends, or d passes: how a held
// request waits on an event instead of spinning on a status.
func awaitEvent(ctx context.Context, ch <-chan struct{}, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
	case <-ctx.Done():
	case <-t.C:
	}
}

// sweepResponse is the wire form of a submitted sweep. ID is empty for a
// partial submission (and for a journal hiccup that lost only the sweep
// grouping): the jobs run regardless, but the reassembled document is only
// addressable when the full grid was admitted.
type sweepResponse struct {
	ID     string      `json:"id,omitempty"`
	Points int         `json:"points"`
	Jobs   []JobStatus `json:"jobs"`
}

func (s *Server) submitSweep(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok || !s.admitPost(w, r) {
		return
	}
	var sw Sweep
	if !decodeBody(w, r, "sweep", &sw) {
		return
	}
	id, jobs, err := sched.SubmitSweepTracked(sw)
	if err != nil && len(jobs) == 0 {
		writeSubmitError(w, sched, err)
		return
	}
	resp := sweepResponse{ID: id, Points: len(jobs)}
	for _, j := range jobs {
		v, _ := statusView(j)
		resp.Jobs = append(resp.Jobs, v)
	}
	// Every record written so far covers the sweep's own and its jobs'.
	if !durable(w, r, sched, sched.journalRec()) {
		return
	}
	status := http.StatusAccepted
	if err != nil {
		// Partial submission (queue filled up mid-sweep): report what ran
		// and tell the client when to come back for the rest.
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfterValue(sched.RetryAfterHint()))
	}
	writeJSON(w, status, resp)
}

// sweepView summarizes a tracked sweep's progress.
type sweepView struct {
	ID     string `json:"id"`
	Points int    `json:"points"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	// Jobs are the grid-ordered job IDs — the identity that survives a
	// coordinator failover via the replicated journal.
	Jobs []string `json:"jobs"`
}

// sweepLookup resolves a sweep ID to its record and grid-ordered jobs.
func sweepLookup(w http.ResponseWriter, sched *Scheduler, id string) (core.SweepRecord, []*Job, bool) {
	rec, ok := sched.Sweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such sweep %q", id))
		return rec, nil, false
	}
	jobs := make([]*Job, 0, len(rec.JobIDs))
	for _, jid := range rec.JobIDs {
		j, found := sched.Lookup(jid)
		if !found {
			// A sweep record naming an unknown job means the journal the
			// sweep was replayed from predates the job — a corrupt pairing
			// that should be surfaced, not papered over.
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("sweep %s names unknown job %s", id, jid))
			return rec, nil, false
		}
		jobs = append(jobs, j)
	}
	return rec, jobs, true
}

// sweepViewOf counts a sweep's finished points, and returns the last
// journal record the counts rest on. The sweep's own record needs no wait:
// POST /sweeps, whose answer is how a client learns the sweep's ID,
// awaited it.
func sweepViewOf(rec core.SweepRecord, jobs []*Job) (sweepView, int64) {
	v := sweepView{ID: rec.SweepID, Points: len(jobs), Jobs: rec.JobIDs}
	var last int64
	for _, j := range jobs {
		j.mu.Lock()
		st, jrec := j.state, j.rec
		j.mu.Unlock()
		last = max(last, jrec)
		switch st {
		case StateDone:
			v.Done++
		case StateFailed, StateCanceled:
			v.Failed++
		}
	}
	return v, last
}

func (s *Server) sweepStatus(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok {
		return
	}
	rec, jobs, ok := sweepLookup(w, sched, r.PathValue("id"))
	if !ok {
		return
	}
	view, last := sweepViewOf(rec, jobs)
	if !durable(w, r, sched, last) {
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// sweepResult streams the reassembled sweep document — byte-identical to
// AssembleSweep's output — one point at a time, so a 10k-point sweep whose
// results were spooled to the cache never needs them all in memory at once.
// A sweep with unfinished or failed points answers 409 with the progress
// summary; the client polls until done.
func (s *Server) sweepResult(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok {
		return
	}
	rec, jobs, ok := sweepLookup(w, sched, r.PathValue("id"))
	if !ok {
		return
	}
	view, last := sweepViewOf(rec, jobs)
	if !durable(w, r, sched, last) {
		return
	}
	if view.Done != view.Points {
		writeJSON(w, http.StatusConflict, view)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for i, j := range jobs {
		res, err := j.Result() // loads a spooled table from the cache, one point at a time
		if err != nil || res == nil {
			// Headers are out; all we can do is truncate loudly.
			fmt.Fprintf(w, "--- sweep %s truncated at point %d/%d: %v ---\n", rec.SweepID, i+1, len(jobs), err)
			return
		}
		fmt.Fprintf(w, "--- point %d/%d: %s ---\n", i+1, len(jobs), describeSpec(res.Spec))
		fmt.Fprint(w, res.Table)
		if len(res.Table) == 0 || res.Table[len(res.Table)-1] != '\n' {
			fmt.Fprintln(w)
		}
	}
}

// ExperimentInfo is the wire form of a registry entry.
type ExperimentInfo struct {
	ID            string `json:"id"`
	Title         string `json:"title"`
	Paper         string `json:"paper"`
	ManagesFaults bool   `json:"manages_faults,omitempty"`
}

func (s *Server) listExperiments(w http.ResponseWriter, r *http.Request) {
	exps := core.Experiments()
	views := make([]ExperimentInfo, 0, len(exps))
	for _, e := range exps {
		views = append(views, ExperimentInfo{ID: e.ID, Title: e.Title, Paper: e.Paper, ManagesFaults: e.ManagesFaults})
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	sched, ok := s.scheduler(w)
	if !ok {
		return
	}
	m := sched.Metrics()
	if fn := s.fleet.Load(); fn != nil {
		m.Fleet = (*fn)()
	}
	writeJSON(w, http.StatusOK, m)
}
