package lab

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"butterfly/internal/core"
)

// DefaultJournalDir is where butterflyd keeps its write-ahead job journal,
// next to the result cache under results/.
const DefaultJournalDir = "results/journal"

// journalSchema versions the journal encoding; a snapshot written by a
// different schema refuses to load rather than being misread.
const journalSchema = "butterfly-journal-v1"

// ErrJournalClosed is returned by appends after Close.
var ErrJournalClosed = errors.New("lab: journal closed")

// ErrReplicaGap is returned by AppendReplica when the record does not
// directly follow the journal's last record — the follower missed part of
// the stream (e.g. its torn tail was truncated on restart) and must ask the
// primary for a full state snapshot instead.
var ErrReplicaGap = errors.New("lab: replica record gap")

// Journal is the lab's durable job log: an append-only JSONL file of
// lifecycle records plus a periodically compacted snapshot, both under one
// directory. Opening a journal replays snapshot + tail into an in-memory
// job table the scheduler uses to recover: terminal jobs are restored,
// mid-flight jobs are requeued.
//
// Durability model: every record is a single buffered write of one JSON
// line; terminal records (completed/failed/canceled) are additionally
// fsynced, so an acknowledged result can never be lost to a crash. A torn
// final line (the process died mid-append) is tolerated and dropped on
// replay — the affected job simply replays from its previous state and is
// requeued, which is safe because execution is deterministic and
// idempotent. Any corruption *before* the final record means the file was
// damaged at rest, and replay fails loudly instead of guessing.
type Journal struct {
	dir string

	// CompactEvery is how many appended records accumulate before the
	// journal folds them into the snapshot and truncates the log file
	// (default 4096). Set it before handing the journal to a scheduler.
	CompactEvery int

	// TailMax bounds the in-memory record tail kept for replication
	// (default 4096). The tail survives compaction — followers stream
	// records even after the log file is truncated — and a follower whose
	// ack falls off the tail gets a full state snapshot instead.
	TailMax int

	mu      sync.Mutex
	f       *os.File
	rec     int64 // last record number written (survives compaction)
	appends int   // records since the last compaction
	state   map[string]*core.JobRecord
	order   []string // job IDs by submission order
	maxSeq  int
	torn    bool // replay dropped a truncated final record

	// epoch is the highest coordinator generation fenced into this journal
	// (EventEpoch); takeovers bump it durably before dispatching anything.
	epoch uint64

	// tail holds the most recent records (bounded by TailMax) for
	// streaming to replication followers; tail[0].Rec is the oldest
	// record still streamable.
	tail []core.JournalRecord
	// grew is closed, and replaced, by every record pushed onto the tail,
	// so a caught-up replication pull blocks on the next record instead of
	// polling for it.
	grew chan struct{}

	// workers is the fleet membership table a coordinator journals
	// alongside its jobs: worker ID → record for every worker currently
	// believed up. Single-box daemons never touch it.
	workers map[string]core.WorkerRecord

	// sweeps maps sweep ID → grid-ordered job IDs (EventSweep), so a
	// replacement coordinator can reassemble sweeps it never accepted.
	sweeps     map[string]core.SweepRecord
	sweepOrder []string
}

// journalSnapshot is the compacted on-disk form: every known job at its
// last applied state, plus the record number the snapshot reflects so
// replay can skip already-folded journal lines.
type journalSnapshot struct {
	Schema string           `json:"schema"`
	Rec    int64            `json:"rec"`
	Seq    int              `json:"seq"`
	Jobs   []core.JobRecord `json:"jobs"`
	// Workers is the coordinator's last-known fleet membership (absent for
	// single-box journals and snapshots written before fleets existed).
	Workers []core.WorkerRecord `json:"workers,omitempty"`
	// Epoch is the highest coordinator generation fenced so far (absent
	// before failover existed).
	Epoch uint64 `json:"epoch,omitempty"`
	// Sweeps are the known sweep identities, in submission order.
	Sweeps []core.SweepRecord `json:"sweeps,omitempty"`
}

func (j *Journal) snapshotPath() string { return filepath.Join(j.dir, "snapshot.json") }
func (j *Journal) logPath() string      { return filepath.Join(j.dir, "journal.jsonl") }

// OpenJournal opens (creating if needed) the journal rooted at dir ("" means
// DefaultJournalDir), replays its contents, compacts them into a fresh
// snapshot, and leaves the log open for appending. A corrupt snapshot or a
// corrupt record anywhere but the torn tail is a hard error: the caller
// should refuse to start rather than silently forget jobs.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		dir = DefaultJournalDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lab: journal: %w", err)
	}
	j := &Journal{
		dir: dir, CompactEvery: 4096, TailMax: 4096,
		state:   make(map[string]*core.JobRecord),
		workers: make(map[string]core.WorkerRecord),
		sweeps:  make(map[string]core.SweepRecord),
		grew:    make(chan struct{}),
	}

	if err := j.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := j.replayLog(); err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Compacting on open folds the replayed tail into the snapshot and
	// truncates the log — clearing any tolerated torn tail in the process.
	if err := j.compactLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// loadSnapshot reads snapshot.json if present.
func (j *Journal) loadSnapshot() error {
	b, err := os.ReadFile(j.snapshotPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lab: journal snapshot: %w", err)
	}
	var snap journalSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("lab: journal snapshot %s corrupt: %w", j.snapshotPath(), err)
	}
	if snap.Schema != journalSchema {
		return fmt.Errorf("lab: journal snapshot schema %q, want %q", snap.Schema, journalSchema)
	}
	j.rec = snap.Rec
	j.maxSeq = snap.Seq
	j.epoch = snap.Epoch
	for _, sw := range snap.Sweeps {
		if sw.SweepID == "" {
			return fmt.Errorf("lab: journal snapshot %s corrupt: sweep with no id", j.snapshotPath())
		}
		j.sweeps[sw.SweepID] = sw
		j.sweepOrder = append(j.sweepOrder, sw.SweepID)
	}
	for i := range snap.Jobs {
		r := snap.Jobs[i]
		if r.JobID == "" {
			return fmt.Errorf("lab: journal snapshot %s corrupt: job %d has no id", j.snapshotPath(), i)
		}
		j.state[r.JobID] = &r
		j.order = append(j.order, r.JobID)
	}
	for _, w := range snap.Workers {
		if w.ID == "" {
			return fmt.Errorf("lab: journal snapshot %s corrupt: worker with no id", j.snapshotPath())
		}
		j.workers[w.ID] = w
	}
	return nil
}

// replayLog applies journal.jsonl on top of the snapshot state. Only the
// final, newline-less fragment may be dropped (a torn append); a complete
// line that does not parse, a record-number hole, or an impossible
// transition is corruption and fails the open.
func (j *Journal) replayLog() error {
	data, err := os.ReadFile(j.logPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lab: journal: %w", err)
	}
	// Split off a torn tail: everything after the last newline is an append
	// the dying process never finished.
	if n := bytes.LastIndexByte(data, '\n'); n < 0 {
		j.torn = len(data) > 0
		data = nil
	} else {
		j.torn = n+1 < len(data)
		data = data[:n+1]
	}
	for lineNo, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r core.JournalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("lab: journal %s corrupt at line %d: %w", j.logPath(), lineNo+1, err)
		}
		if r.Rec <= j.rec {
			// Already folded into the snapshot (a crash between snapshot
			// rename and log truncation leaves such records behind).
			continue
		}
		if r.Rec != j.rec+1 {
			return fmt.Errorf("lab: journal %s corrupt at line %d: record %d follows %d (hole torn mid-file)",
				j.logPath(), lineNo+1, r.Rec, j.rec)
		}
		if err := j.applyReplay(r); err != nil {
			return fmt.Errorf("lab: journal %s corrupt at line %d: %w", j.logPath(), lineNo+1, err)
		}
		j.rec = r.Rec
	}
	return nil
}

// applyReplay folds one replayed record into the in-memory job table (or,
// for fleet events, the membership table).
func (j *Journal) applyReplay(r core.JournalRecord) error {
	if r.Event.FleetEvent() {
		return j.applyWorker(r)
	}
	if r.Event.ControlEvent() {
		return j.applyControl(r)
	}
	if r.Event == core.EventSubmitted {
		if r.Spec == nil {
			return fmt.Errorf("submitted record for %s has no spec", r.JobID)
		}
		if _, dup := j.state[r.JobID]; dup {
			return fmt.Errorf("duplicate submission of job %s", r.JobID)
		}
		j.state[r.JobID] = &core.JobRecord{
			JobID: r.JobID, Seq: r.Seq, Spec: *r.Spec,
			Fingerprint: r.Fingerprint, State: core.JobQueued,
		}
		j.order = append(j.order, r.JobID)
		if r.Seq > j.maxSeq {
			j.maxSeq = r.Seq
		}
		return nil
	}
	jr, ok := j.state[r.JobID]
	if !ok {
		return fmt.Errorf("event %q for unknown job %s", r.Event, r.JobID)
	}
	return jr.Apply(r.Event, r.Error)
}

// applyWorker folds one fleet membership event. Deliberately idempotent —
// a down for an unknown worker and an up for a known one are both fine,
// because membership changes race the journal writes that record them.
func (j *Journal) applyWorker(r core.JournalRecord) error {
	if r.Worker == nil || r.Worker.ID == "" {
		return fmt.Errorf("fleet event %q without a worker record", r.Event)
	}
	switch r.Event {
	case core.EventWorkerUp:
		j.workers[r.Worker.ID] = *r.Worker
	case core.EventWorkerDown:
		delete(j.workers, r.Worker.ID)
	}
	return nil
}

// applyControl folds one coordination event: epoch fences only ever rise
// (a stale epoch record is tolerated as a no-op — it can ride in a
// replicated stream that predates the follower's own takeover), and sweep
// records are idempotent by ID for the same reason membership events are.
func (j *Journal) applyControl(r core.JournalRecord) error {
	switch r.Event {
	case core.EventEpoch:
		if r.Epoch == 0 {
			return fmt.Errorf("epoch event without an epoch")
		}
		if r.Epoch > j.epoch {
			j.epoch = r.Epoch
		}
	case core.EventSweep:
		if r.Sweep == nil || r.Sweep.SweepID == "" {
			return fmt.Errorf("sweep event without a sweep record")
		}
		if _, dup := j.sweeps[r.Sweep.SweepID]; !dup {
			j.sweepOrder = append(j.sweepOrder, r.Sweep.SweepID)
		}
		j.sweeps[r.Sweep.SweepID] = *r.Sweep
	}
	return nil
}

// Torn reports whether replay dropped a truncated final record.
func (j *Journal) Torn() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.torn
}

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// MaxSeq returns the highest job sequence number the journal has seen, so a
// recovering scheduler continues numbering where its predecessor stopped.
func (j *Journal) MaxSeq() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxSeq
}

// Jobs returns every known job at its last recorded state, in submission
// (sequence) order.
func (j *Journal) Jobs() []core.JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]core.JobRecord, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, *j.state[id])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// append validates, writes, and commits one record. The in-memory state
// mutates only after the line is handed to the OS, so a failed write leaves
// the journal's view consistent with the file.
func (j *Journal) append(r core.JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrJournalClosed
	}
	// Stage the state transition so an invalid record never reaches disk.
	var staged *core.JobRecord
	if r.Event.FleetEvent() {
		if r.Worker == nil || r.Worker.ID == "" {
			return fmt.Errorf("lab: journal: fleet event %q without a worker record", r.Event)
		}
	} else if r.Event == core.EventEpoch {
		if r.Epoch <= j.epoch {
			return fmt.Errorf("lab: journal: epoch %d not above current %d", r.Epoch, j.epoch)
		}
	} else if r.Event == core.EventSweep {
		if r.Sweep == nil || r.Sweep.SweepID == "" {
			return fmt.Errorf("lab: journal: sweep event without a sweep record")
		}
		if _, dup := j.sweeps[r.Sweep.SweepID]; dup {
			return fmt.Errorf("lab: journal: duplicate sweep %s", r.Sweep.SweepID)
		}
	} else if r.Event == core.EventSubmitted {
		if r.Spec == nil {
			return fmt.Errorf("lab: journal: submitted record for %s has no spec", r.JobID)
		}
		if _, dup := j.state[r.JobID]; dup {
			return fmt.Errorf("lab: journal: duplicate submission of job %s", r.JobID)
		}
		staged = &core.JobRecord{
			JobID: r.JobID, Seq: r.Seq, Spec: *r.Spec,
			Fingerprint: r.Fingerprint, State: core.JobQueued,
		}
	} else {
		cur, ok := j.state[r.JobID]
		if !ok {
			return fmt.Errorf("lab: journal: event %q for unknown job %s", r.Event, r.JobID)
		}
		next := *cur
		if err := next.Apply(r.Event, r.Error); err != nil {
			return fmt.Errorf("lab: journal: %w", err)
		}
		staged = &next
	}

	r.Rec = j.rec + 1
	r.UnixMs = time.Now().UnixMilli()
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("lab: journal: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("lab: journal append: %w", err)
	}
	if r.Event.Terminal() || r.Event == core.EventEpoch {
		// A job's outcome must survive a crash the instant it is
		// acknowledged, and an epoch fence must be durable before the new
		// coordinator dispatches anything; transient records may ride the
		// page cache.
		_ = j.f.Sync()
	}
	j.rec = r.Rec
	switch {
	case r.Event.FleetEvent():
		_ = j.applyWorker(r) // validated above; idempotent by design
	case r.Event.ControlEvent():
		_ = j.applyControl(r) // validated above
	default:
		j.state[r.JobID] = staged
	}
	if r.Event == core.EventSubmitted {
		j.order = append(j.order, r.JobID)
		if r.Seq > j.maxSeq {
			j.maxSeq = r.Seq
		}
	}
	j.pushTail(r)
	j.appends++
	if j.CompactEvery > 0 && j.appends >= j.CompactEvery {
		if err := j.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// pushTail keeps the bounded in-memory record tail replication streams
// from. Callers hold j.mu.
func (j *Journal) pushTail(r core.JournalRecord) {
	max := j.TailMax
	if max <= 0 {
		max = 1
	}
	j.tail = append(j.tail, r)
	if len(j.tail) > max {
		// Drop the oldest half in one copy so a hot journal is not
		// memmoving the tail on every append.
		keep := max/2 + 1
		j.tail = append(j.tail[:0], j.tail[len(j.tail)-keep:]...)
	}
	close(j.grew)
	j.grew = make(chan struct{})
}

// Submitted journals a new job, durably, before it is enqueued.
func (j *Journal) Submitted(id string, seq int, spec core.Spec, fp string) error {
	return j.append(core.JournalRecord{Event: core.EventSubmitted, JobID: id, Seq: seq, Spec: &spec, Fingerprint: fp})
}

// Started journals a job leaving the queue for a worker.
func (j *Journal) Started(id string) error {
	return j.append(core.JournalRecord{Event: core.EventStarted, JobID: id})
}

// Finished journals a job reaching a terminal state.
func (j *Journal) Finished(id string, st core.JobState, errText string) error {
	var ev core.JournalEvent
	switch st {
	case core.JobDone:
		ev = core.EventCompleted
	case core.JobFailed:
		ev = core.EventFailed
	case core.JobCanceled:
		ev = core.EventCanceled
	default:
		return fmt.Errorf("lab: journal: Finished with non-terminal state %q", st)
	}
	return j.append(core.JournalRecord{Event: ev, JobID: id, Error: errText})
}

// Interrupted journals a recovery requeue: the job was mid-flight (or done
// but uncached) when the previous process died.
func (j *Journal) Interrupted(id string) error {
	return j.append(core.JournalRecord{Event: core.EventInterrupted, JobID: id})
}

// WorkerUp journals a fleet worker joining (or rejoining) the coordinator.
func (j *Journal) WorkerUp(w core.WorkerRecord) error {
	return j.append(core.JournalRecord{Event: core.EventWorkerUp, Worker: &w})
}

// WorkerDown journals a fleet worker leaving (missed heartbeats or an
// explicit departure).
func (j *Journal) WorkerDown(w core.WorkerRecord) error {
	return j.append(core.JournalRecord{Event: core.EventWorkerDown, Worker: &w})
}

// Workers returns the last-known fleet membership, sorted by worker ID — a
// restarted coordinator probes these before any worker happens to
// heartbeat again.
func (j *Journal) Workers() []core.WorkerRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]core.WorkerRecord, 0, len(j.workers))
	for _, w := range j.workers {
		out = append(out, w)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// SweepSubmitted journals a sweep's identity: its ID and grid-ordered job
// IDs, durably tied to the jobs it expanded to.
func (j *Journal) SweepSubmitted(id string, jobIDs []string) error {
	return j.append(core.JournalRecord{Event: core.EventSweep,
		Sweep: &core.SweepRecord{SweepID: id, JobIDs: jobIDs}})
}

// Sweeps returns every known sweep identity in submission order.
func (j *Journal) Sweeps() []core.SweepRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]core.SweepRecord, 0, len(j.sweepOrder))
	for _, id := range j.sweepOrder {
		out = append(out, j.sweeps[id])
	}
	return out
}

// Epoch returns the highest coordinator generation fenced into the journal
// (0 before any coordinator claimed it).
func (j *Journal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// BumpEpoch durably fences a new coordinator generation — current epoch
// plus one, fsynced before it returns — and returns the new epoch. A
// standby calls this exactly once at takeover, before dispatching anything,
// so the old primary's later dispatches are recognizably stale.
func (j *Journal) BumpEpoch() (uint64, error) {
	j.mu.Lock()
	next := j.epoch + 1
	j.mu.Unlock()
	if err := j.append(core.JournalRecord{Event: core.EventEpoch, Epoch: next}); err != nil {
		return 0, err
	}
	return next, nil
}

// Rec returns the last record number written.
func (j *Journal) Rec() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// WaitAfter blocks until the journal holds a record numbered above rec, ctx
// ends, or d passes.
func (j *Journal) WaitAfter(ctx context.Context, rec int64, d time.Duration) {
	j.mu.Lock()
	grew, past := j.grew, j.rec > rec
	j.mu.Unlock()
	if !past {
		awaitEvent(ctx, grew, d)
	}
}

// RecordsAfter returns up to max records with Rec > after, in order, for
// streaming to a replication follower. ok is false when the tail no longer
// reaches back to after+1 (the follower is too far behind — e.g. it just
// started, or the tail was bounded past its ack) and the caller must send a
// full state snapshot instead.
func (j *Journal) RecordsAfter(after int64, max int) (recs []core.JournalRecord, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after >= j.rec {
		return nil, true
	}
	if len(j.tail) == 0 || j.tail[0].Rec > after+1 {
		return nil, false
	}
	start := int(after + 1 - j.tail[0].Rec)
	end := len(j.tail)
	if max > 0 && end-start > max {
		end = start + max
	}
	recs = make([]core.JournalRecord, end-start)
	copy(recs, j.tail[start:end])
	return recs, true
}

// ReplicaState captures the full journal state for a follower that cannot
// be served from the record tail.
func (j *Journal) ReplicaState() core.ReplicaState {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := core.ReplicaState{Schema: journalSchema, Rec: j.rec, Seq: j.maxSeq, Epoch: j.epoch}
	st.Jobs = make([]core.JobRecord, 0, len(j.order))
	for _, id := range j.order {
		st.Jobs = append(st.Jobs, *j.state[id])
	}
	for _, id := range sortedWorkerIDs(j.workers) {
		st.Workers = append(st.Workers, j.workers[id])
	}
	for _, id := range j.sweepOrder {
		st.Sweeps = append(st.Sweeps, j.sweeps[id])
	}
	return st
}

// InstallReplicaState replaces the journal's contents with a primary's
// state snapshot and persists it — how a follower bootstraps (or recovers
// from a gap) before streaming resumes. Refuses to move backwards: a
// snapshot older than what is already replicated here means the "primary"
// is stale, not this follower.
func (j *Journal) InstallReplicaState(st core.ReplicaState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrJournalClosed
	}
	if st.Schema != journalSchema {
		return fmt.Errorf("lab: replica state schema %q, want %q", st.Schema, journalSchema)
	}
	if st.Rec < j.rec {
		return fmt.Errorf("lab: replica state at record %d behind local journal at %d", st.Rec, j.rec)
	}
	j.rec = st.Rec
	j.maxSeq = st.Seq
	if st.Epoch > j.epoch {
		j.epoch = st.Epoch
	}
	j.state = make(map[string]*core.JobRecord, len(st.Jobs))
	j.order = j.order[:0]
	for i := range st.Jobs {
		r := st.Jobs[i]
		if r.JobID == "" {
			return fmt.Errorf("lab: replica state job %d has no id", i)
		}
		j.state[r.JobID] = &r
		j.order = append(j.order, r.JobID)
	}
	j.workers = make(map[string]core.WorkerRecord, len(st.Workers))
	for _, w := range st.Workers {
		j.workers[w.ID] = w
	}
	j.sweeps = make(map[string]core.SweepRecord, len(st.Sweeps))
	j.sweepOrder = j.sweepOrder[:0]
	for _, sw := range st.Sweeps {
		j.sweeps[sw.SweepID] = sw
		j.sweepOrder = append(j.sweepOrder, sw.SweepID)
	}
	j.tail = nil
	return j.compactLocked()
}

// AppendReplica appends one record received from the replication stream,
// preserving its original record number (the follower's journal is a
// faithful copy of the primary's, so a promoted follower's own appends
// continue the same numbering). Returns ErrReplicaGap when the record does
// not directly follow the local journal.
func (j *Journal) AppendReplica(r core.JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrJournalClosed
	}
	if r.Rec <= j.rec {
		return nil // duplicate delivery; already replicated
	}
	if r.Rec != j.rec+1 {
		return fmt.Errorf("%w: record %d does not follow %d", ErrReplicaGap, r.Rec, j.rec)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("lab: replica append: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("lab: replica append: %w", err)
	}
	if r.Event.Terminal() || r.Event == core.EventEpoch {
		_ = j.f.Sync()
	}
	if err := j.applyReplay(r); err != nil {
		// The stream was validated on the primary; an impossible
		// transition here means the copies diverged.
		return fmt.Errorf("lab: replica append: %w", err)
	}
	j.rec = r.Rec
	j.pushTail(r)
	j.appends++
	if j.CompactEvery > 0 && j.appends >= j.CompactEvery {
		if err := j.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked folds the full job table into snapshot.json (atomically, via
// temp file + rename) and truncates the log. A crash between the two steps
// is safe: the snapshot's record number makes the leftover log lines
// no-ops on the next replay.
func (j *Journal) compactLocked() error {
	snap := journalSnapshot{Schema: journalSchema, Rec: j.rec, Seq: j.maxSeq, Epoch: j.epoch}
	snap.Jobs = make([]core.JobRecord, 0, len(j.order))
	for _, id := range j.order {
		snap.Jobs = append(snap.Jobs, *j.state[id])
	}
	for _, id := range sortedWorkerIDs(j.workers) {
		snap.Workers = append(snap.Workers, j.workers[id])
	}
	for _, id := range j.sweepOrder {
		snap.Sweeps = append(snap.Sweeps, j.sweeps[id])
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("lab: journal compact: %w", err)
	}
	tmp, err := os.CreateTemp(j.dir, ".snapshot.*")
	if err != nil {
		return fmt.Errorf("lab: journal compact: %w", err)
	}
	_, werr := tmp.Write(append(b, '\n'))
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lab: journal compact: %w", errors.Join(werr, serr, cerr))
	}
	if err := os.Rename(tmp.Name(), j.snapshotPath()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lab: journal compact: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(j.logPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		return fmt.Errorf("lab: journal compact: %w", err)
	}
	j.f = f
	j.appends = 0
	return nil
}

// sortedWorkerIDs orders the membership table for deterministic snapshots.
func sortedWorkerIDs(m map[string]core.WorkerRecord) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Close compacts one last time (a clean shutdown leaves only a snapshot)
// and releases the log file. Further appends return ErrJournalClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.compactLocked()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	return err
}
