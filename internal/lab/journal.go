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
// Durability model: appending a record only writes its JSON line; no
// append waits for the disk. Durability is one watermark, "every record
// through N is on disk", which AwaitDurable waits on. The first waiter
// that finds no fsync in progress issues one, outside the journal's lock,
// and each fsync covers every record written before it began, so
// concurrent waiters share it (group commit) and a record nobody waits for
// costs no fsync of its own. Compaction moves the watermark too, once its
// snapshot and the directory entry naming it are on disk. Whoever tells a
// client about a record awaits the watermark first:
// the server before every answer, Finished and BumpEpoch before they
// return. A torn final line (the process died mid-append) is tolerated and
// dropped on replay — the affected job simply replays from its previous
// state and is requeued, which is safe because execution is deterministic
// and idempotent. Any corruption *before* the final record means the file
// was damaged at rest, and replay fails loudly instead of guessing.
type Journal struct {
	dir string
	fs  journalFS

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
	f       logFile
	rec     int64  // last record number written (survives compaction)
	written uint64 // records this process wrote
	appends int    // records since the last compaction
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

	// sweeps maps sweep ID → grid-ordered job IDs (EventSweep), so a
	// replacement coordinator can reassemble sweeps it never accepted.
	sweeps     map[string]core.SweepRecord
	sweepOrder []string

	// The durability watermark: every record through durable is on disk.
	// syncing is set while one waiter fsyncs the log for all of them.
	// synced is closed, and replaced, each time that fsync ends or the
	// journal closes, waking every AwaitDurable caller at once. syncErr is
	// sticky: after a failed fsync the kernel may have dropped the pages,
	// so nothing past durable can be promised again, and the journal
	// refuses new records.
	durable int64
	syncing bool
	synced  chan struct{}
	syncErr error
	syncs   uint64 // fsyncs issued: log, snapshot, and directory syncs
}

// ErrJournalSync wraps the sticky error of a failed journal fsync.
var ErrJournalSync = errors.New("lab: journal sync failed")

// journalFS is the file system as the journal's durability rests on it:
// the log it appends to, and the directory sync that makes a renamed
// snapshot, and the log's own name, survive a power loss. osFS in
// production; tests substitute one that loses what was not synced.
type journalFS interface {
	// openLog truncates (creating if needed) the log at path and opens it
	// for appending.
	openLog(path string) (logFile, error)
	syncDir(dir string) error
}

// logFile is the journal's log as the journal uses it: an *os.File in
// production.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) openLog(path string) (logFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

func (j *Journal) snapshotPath() string { return filepath.Join(j.dir, "snapshot.json") }
func (j *Journal) logPath() string      { return filepath.Join(j.dir, "journal.jsonl") }

// OpenJournal opens (creating if needed) the journal rooted at dir ("" means
// DefaultJournalDir), replays its contents, compacts them into a fresh
// snapshot, and leaves the log open for appending. A corrupt snapshot or a
// corrupt record anywhere but the torn tail is a hard error: the caller
// should refuse to start rather than silently forget jobs.
func OpenJournal(dir string) (*Journal, error) {
	return openJournal(dir, osFS{})
}

// openJournal is OpenJournal on the file system fs.
func openJournal(dir string, fs journalFS) (*Journal, error) {
	if dir == "" {
		dir = DefaultJournalDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lab: journal: %w", err)
	}
	j := &Journal{
		dir: dir, fs: fs, CompactEvery: 4096, TailMax: 4096,
		state:  make(map[string]*core.JobRecord),
		sweeps: make(map[string]core.SweepRecord),
		grew:   make(chan struct{}),
		synced: make(chan struct{}),
	}

	if err := j.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := j.replayLog(); err != nil {
		return nil, err
	}
	// The log exists before the first compaction, so that compaction's
	// directory sync also makes the log's name durable.
	f, err := os.OpenFile(j.logPath(), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lab: journal: %w", err)
	}
	f.Close()
	j.mu.Lock()
	defer j.mu.Unlock()
	// Compacting on open folds the replayed tail into the snapshot and
	// truncates the log — clearing any tolerated torn tail in the process.
	if err := j.compactLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// loadSnapshot installs snapshot.json, if present: the same state image a
// replication follower installs from its primary.
func (j *Journal) loadSnapshot() error {
	b, err := os.ReadFile(j.snapshotPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lab: journal snapshot: %w", err)
	}
	var st core.ReplicaState
	if err = json.Unmarshal(b, &st); err == nil {
		err = j.installLocked(st)
	}
	if err != nil {
		return fmt.Errorf("lab: journal snapshot %s corrupt: %w", j.snapshotPath(), err)
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
		staged, err := j.stageLocked(r)
		if err != nil {
			return fmt.Errorf("lab: journal %s corrupt at line %d: %w", j.logPath(), lineNo+1, err)
		}
		j.applyLocked(r, staged)
	}
	return nil
}

// stageLocked checks one record against the current state without changing
// anything, and returns the job's next record for job events (nil for the
// rest). It is the one gate every record passes — replayed, appended, or
// replicated — so nothing replay would refuse can reach disk.
//
// Epoch and sweep records are deliberately idempotent here: a stale epoch
// and a re-sent sweep fold as no-ops, because they can ride a replicated
// stream that predates the follower's own takeover. The stricter rules for
// this process's own writes live in append. The legacy membership records
// of older journals fold as no-ops too.
func (j *Journal) stageLocked(r core.JournalRecord) (*core.JobRecord, error) {
	switch r.Event {
	case core.EventWorkerUp, core.EventWorkerDown:
		return nil, nil
	case core.EventEpoch:
		if r.Epoch == 0 {
			return nil, fmt.Errorf("epoch event without an epoch")
		}
		return nil, nil
	case core.EventSweep:
		if r.Sweep == nil || r.Sweep.SweepID == "" {
			return nil, fmt.Errorf("sweep event without a sweep record")
		}
		return nil, nil
	case core.EventSubmitted:
		if r.Spec == nil {
			return nil, fmt.Errorf("submitted record for %s has no spec", r.JobID)
		}
		if _, dup := j.state[r.JobID]; dup {
			return nil, fmt.Errorf("duplicate submission of job %s", r.JobID)
		}
		return &core.JobRecord{JobID: r.JobID, Seq: r.Seq, Spec: *r.Spec,
			Fingerprint: r.Fingerprint, State: core.JobQueued}, nil
	}
	cur, ok := j.state[r.JobID]
	if !ok {
		return nil, fmt.Errorf("event %q for unknown job %s", r.Event, r.JobID)
	}
	next := *cur
	if err := next.Apply(r.Event, r.Error); err != nil {
		return nil, err
	}
	return &next, nil
}

// applyLocked folds one staged record into the tables and advances the
// record number.
func (j *Journal) applyLocked(r core.JournalRecord, staged *core.JobRecord) {
	switch r.Event {
	case core.EventWorkerUp, core.EventWorkerDown:
		// Legacy membership: nothing to fold, only the record number.
	case core.EventEpoch:
		j.epoch = max(j.epoch, r.Epoch)
	case core.EventSweep:
		if _, dup := j.sweeps[r.Sweep.SweepID]; !dup {
			j.sweepOrder = append(j.sweepOrder, r.Sweep.SweepID)
		}
		j.sweeps[r.Sweep.SweepID] = *r.Sweep
	case core.EventSubmitted:
		j.order = append(j.order, r.JobID)
		j.maxSeq = max(j.maxSeq, r.Seq)
		fallthrough
	default:
		j.state[r.JobID] = staged
	}
	j.rec = r.Rec
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

// append numbers and writes one record of this process's own, and returns
// its record number; it does not wait for the disk. Two rules bind only
// local writes, because a replicated stream may legitimately carry what
// they forbid: an epoch fence must rise, and a sweep ID must be new. After
// a failed fsync it refuses every record with the sync error: nothing it
// wrote could be promised durable.
func (j *Journal) append(r core.JournalRecord) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.syncErr != nil {
		return 0, j.syncErr
	}
	if r.Event == core.EventEpoch && r.Epoch <= j.epoch {
		return 0, fmt.Errorf("lab: journal: epoch %d not above current %d", r.Epoch, j.epoch)
	}
	if r.Event == core.EventSweep && r.Sweep != nil {
		if _, dup := j.sweeps[r.Sweep.SweepID]; dup {
			return 0, fmt.Errorf("lab: journal: duplicate sweep %s", r.Sweep.SweepID)
		}
	}
	r.Rec = j.rec + 1
	r.UnixMs = time.Now().UnixMilli()
	return r.Rec, j.commitLocked(r)
}

// commitLocked is the journal's one write path, shared by local appends and
// replicated ones: stage the record, write its line, fold it into the
// tables, publish it to the replication tail, and compact when due. It
// never fsyncs the log — AwaitDurable does that, outside j.mu, for whoever
// waits on the watermark — so no writer waits on the disk while holding
// the journal's lock. The tables change only after the line is handed to the
// OS, so a refused record or a failed write leaves the journal's view
// consistent with the file.
func (j *Journal) commitLocked(r core.JournalRecord) error {
	if j.f == nil {
		return ErrJournalClosed
	}
	staged, err := j.stageLocked(r)
	if err != nil {
		return fmt.Errorf("lab: journal: %w", err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("lab: journal: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("lab: journal append: %w", err)
	}
	j.applyLocked(r, staged)
	j.pushTail(r)
	j.written++
	j.appends++
	if j.CompactEvery > 0 && j.appends >= j.CompactEvery {
		return j.compactLocked()
	}
	return nil
}

// AwaitDurable blocks until every record through rec is on disk, and
// returns nil then. It returns early with ctx's error, with the sync error
// once an fsync has failed, or with ErrJournalClosed when the journal
// closed before covering rec. Waiters share fsyncs (group commit): the
// first one to find no fsync in progress issues one for all, and each
// covers every record written before it began, so K concurrent waiters
// cost one or two fsyncs between them, not K. The waiter that issues an
// fsync sees ctx only once the fsync ends.
func (j *Journal) AwaitDurable(ctx context.Context, rec int64) error {
	j.mu.Lock()
	for {
		var err error
		switch {
		case rec <= j.durable:
		case j.syncErr != nil:
			err = j.syncErr
		case j.f == nil:
			err = ErrJournalClosed
		case !j.syncing:
			j.syncLocked()
			continue
		default:
			synced := j.synced
			j.mu.Unlock()
			select {
			case <-synced:
			case <-ctx.Done():
				return ctx.Err()
			}
			j.mu.Lock()
			continue
		}
		j.mu.Unlock()
		return err
	}
}

// syncLocked fsyncs the log for every waiter: it releases j.mu for the
// fsync, so appends go on while the disk works, then advances the
// watermark to the last record written before the fsync began and wakes
// every waiter. Callers hold j.mu, and find syncing false.
func (j *Journal) syncLocked() {
	j.syncing = true
	f, target := j.f, j.rec
	j.mu.Unlock()
	err := f.Sync()
	j.mu.Lock()
	j.syncing = false
	j.syncs++
	switch {
	case j.f != f:
		// Compaction replaced the log while this fsync ran, and its
		// snapshot, already durable, holds target.
	case err != nil:
		j.syncErr = fmt.Errorf("%w: %w", ErrJournalSync, err)
	default:
		j.durable = max(j.durable, target)
	}
	j.wakeLocked()
}

// wakeLocked wakes every AwaitDurable caller to re-read the watermark.
// Callers hold j.mu.
func (j *Journal) wakeLocked() {
	close(j.synced)
	j.synced = make(chan struct{})
}

// JournalStats are the journal's durability gauges. Records is how many
// records this process wrote and Syncs how many fsyncs it issued (log,
// snapshot, and directory syncs); Records over Syncs is the group commit's
// yield. DurableLagRecs is the records written but not yet on disk: what a
// power loss now would lose. The journal fsyncs only when an answer waits,
// so a standing lag is normal, not a disk falling behind: a started
// record, and a terminal record no client has asked about yet, stay in it
// until the next awaited fsync or compaction (every CompactEvery records).
// SyncError is the sticky error of a failed fsync, after which the journal
// takes no new records and the server reports not ready.
type JournalStats struct {
	Syncs          uint64 `json:"syncs"`
	Records        uint64 `json:"records"`
	DurableLagRecs int64  `json:"durable_lag_recs"`
	SyncError      string `json:"sync_error,omitempty"`
}

// Stats snapshots the journal's durability gauges.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{Syncs: j.syncs, Records: j.written, DurableLagRecs: j.rec - j.durable}
	if j.syncErr != nil {
		st.SyncError = j.syncErr.Error()
	}
	return st
}

// Err returns the sticky error of a failed fsync, or nil.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncErr
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

// Submitted journals a new job before it is enqueued. It returns once the
// record is written; the answer that acknowledges the job awaits its
// durability (AwaitDurable).
func (j *Journal) Submitted(id string, seq int, spec core.Spec, fp string) error {
	_, err := j.submitted(id, seq, spec, fp)
	return err
}

// submitted is Submitted returning the record's number.
func (j *Journal) submitted(id string, seq int, spec core.Spec, fp string) (int64, error) {
	return j.append(core.JournalRecord{Event: core.EventSubmitted, JobID: id, Seq: seq, Spec: &spec, Fingerprint: fp})
}

// Started journals a job leaving the queue for a worker.
func (j *Journal) Started(id string) error {
	_, err := j.append(core.JournalRecord{Event: core.EventStarted, JobID: id})
	return err
}

// Finished journals a job reaching a terminal state and returns once the
// record is on disk.
func (j *Journal) Finished(id string, st core.JobState, errText string) error {
	rec, err := j.finished(id, st, errText)
	if err != nil {
		return err
	}
	return j.AwaitDurable(context.Background(), rec)
}

// finished writes a job's terminal record without waiting for the disk and
// returns its record number: the scheduler's path, so a worker takes its
// next job while the record's fsync is still ahead.
func (j *Journal) finished(id string, st core.JobState, errText string) (int64, error) {
	var ev core.JournalEvent
	switch st {
	case core.JobDone:
		ev = core.EventCompleted
	case core.JobFailed:
		ev = core.EventFailed
	case core.JobCanceled:
		ev = core.EventCanceled
	default:
		return 0, fmt.Errorf("lab: journal: Finished with non-terminal state %q", st)
	}
	return j.append(core.JournalRecord{Event: ev, JobID: id, Error: errText})
}

// Interrupted journals a recovery requeue: the job was mid-flight (or done
// but uncached) when the previous process died.
func (j *Journal) Interrupted(id string) error {
	_, err := j.append(core.JournalRecord{Event: core.EventInterrupted, JobID: id})
	return err
}

// SweepSubmitted journals a sweep's identity: its ID and grid-ordered job
// IDs, tied to the jobs it expanded to. Like Submitted, it returns once the
// record is written, and the answer that acknowledges the sweep awaits its
// durability.
func (j *Journal) SweepSubmitted(id string, jobIDs []string) error {
	_, err := j.append(core.JournalRecord{Event: core.EventSweep,
		Sweep: &core.SweepRecord{SweepID: id, JobIDs: jobIDs}})
	return err
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
	rec, err := j.append(core.JournalRecord{Event: core.EventEpoch, Epoch: next})
	if err == nil {
		err = j.AwaitDurable(context.Background(), rec)
	}
	if err != nil {
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
// be served from the record tail — the same image compaction writes to
// snapshot.json.
func (j *Journal) ReplicaState() core.ReplicaState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stateLocked()
}

// stateLocked builds the journal's state image: every job at its last
// applied state in submission order and sweeps in submission order,
// stamped with the record number it reflects.
func (j *Journal) stateLocked() core.ReplicaState {
	st := core.ReplicaState{Schema: journalSchema, Rec: j.rec, Seq: j.maxSeq, Epoch: j.epoch,
		Jobs: make([]core.JobRecord, 0, len(j.order))}
	for _, id := range j.order {
		st.Jobs = append(st.Jobs, *j.state[id])
	}
	for _, id := range j.sweepOrder {
		st.Sweeps = append(st.Sweeps, j.sweeps[id])
	}
	return st
}

// installLocked replaces the journal's tables with a state image. The whole
// image is checked before anything changes, so a refused image leaves the
// journal exactly as it was. The epoch never falls.
func (j *Journal) installLocked(st core.ReplicaState) error {
	if st.Schema != journalSchema {
		return fmt.Errorf("schema %q, want %q", st.Schema, journalSchema)
	}
	state := make(map[string]*core.JobRecord, len(st.Jobs))
	order := make([]string, 0, len(st.Jobs))
	for i := range st.Jobs {
		r := st.Jobs[i]
		if r.JobID == "" {
			return fmt.Errorf("job %d has no id", i)
		}
		state[r.JobID] = &r
		order = append(order, r.JobID)
	}
	sweeps := make(map[string]core.SweepRecord, len(st.Sweeps))
	var sweepOrder []string
	for _, sw := range st.Sweeps {
		if sw.SweepID == "" {
			return errors.New("sweep with no id")
		}
		sweeps[sw.SweepID] = sw
		sweepOrder = append(sweepOrder, sw.SweepID)
	}
	j.rec, j.maxSeq, j.epoch = st.Rec, st.Seq, max(j.epoch, st.Epoch)
	j.state, j.order = state, order
	j.sweeps, j.sweepOrder = sweeps, sweepOrder
	j.tail = nil
	return nil
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
	if st.Rec < j.rec {
		return fmt.Errorf("lab: replica state at record %d behind local journal at %d", st.Rec, j.rec)
	}
	if err := j.installLocked(st); err != nil {
		return fmt.Errorf("lab: replica state: %w", err)
	}
	return j.compactLocked()
}

// AppendReplica appends one record received from the replication stream,
// preserving its original record number (the follower's journal is a
// faithful copy of the primary's, so a promoted follower's own appends
// continue the same numbering). A record this journal's state refuses —
// the copies diverged — is refused before it is written. Returns
// ErrReplicaGap when the record does not directly follow the local journal.
func (j *Journal) AppendReplica(r core.JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if r.Rec <= j.rec {
		return nil // duplicate delivery; already replicated
	}
	if r.Rec != j.rec+1 {
		return fmt.Errorf("%w: record %d does not follow %d", ErrReplicaGap, r.Rec, j.rec)
	}
	return j.commitLocked(r)
}

// compactLocked folds the state image into snapshot.json (atomically, via
// temp file + fsync + rename), fsyncs the directory so the rename itself
// survives a power loss, and only then truncates the log. A crash anywhere
// in between is safe: until the directory sync the old snapshot and the
// whole log still hold every record, and after it the snapshot's record
// number makes any leftover log lines no-ops on the next replay. The
// durable snapshot holds every record written, so it advances the
// durability watermark to j.rec. Its two fsyncs are the only ones the
// journal issues under j.mu, once every CompactEvery records.
func (j *Journal) compactLocked() error {
	b, err := json.Marshal(j.stateLocked())
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
	j.syncs++
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lab: journal compact: %w", errors.Join(werr, serr, cerr))
	}
	if err := os.Rename(tmp.Name(), j.snapshotPath()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lab: journal compact: %w", err)
	}
	err = j.fs.syncDir(j.dir)
	j.syncs++
	if err != nil {
		// The log is left whole, so it still holds every record whichever
		// snapshot a crash brings back.
		return fmt.Errorf("lab: journal compact: %w", err)
	}
	if j.rec > j.durable {
		j.durable = j.rec
		j.wakeLocked()
	}
	if j.f != nil {
		j.f.Close()
	}
	f, err := j.fs.openLog(j.logPath())
	if err != nil {
		j.f = nil
		return fmt.Errorf("lab: journal compact: %w", err)
	}
	j.f = f
	j.appends = 0
	return nil
}

// Close compacts one last time (a clean shutdown leaves only a snapshot),
// releases the log file, and wakes every AwaitDurable caller. Further
// appends return ErrJournalClosed, and so does AwaitDurable for a record
// the final snapshot does not hold.
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
	j.wakeLocked()
	return err
}
