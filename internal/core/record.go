package core

import "fmt"

// JobState is a job's lifecycle phase as recorded in the lab's durable
// journal. The lab package aliases these states for its in-memory jobs, so
// the wire, the journal, and the scheduler agree on one vocabulary.
type JobState string

// Job lifecycle states. Queued and Running are transient; Done, Failed, and
// Canceled are terminal.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JournalEvent is one kind of lifecycle transition appended to the journal.
type JournalEvent string

// Journal events. EventInterrupted is written only during recovery: it marks
// a job that the previous process left queued-or-running (or completed
// without a retrievable cached result) and that the restarted scheduler is
// requeuing — safe because every simulation is deterministic and re-execution
// through the content-addressed cache is idempotent.
const (
	EventSubmitted   JournalEvent = "submitted"
	EventStarted     JournalEvent = "started"
	EventCompleted   JournalEvent = "completed"
	EventFailed      JournalEvent = "failed"
	EventCanceled    JournalEvent = "canceled"
	EventInterrupted JournalEvent = "interrupted"
)

// Legacy fleet membership events. Older coordinators journaled worker
// arrivals and departures; membership now lives only in the coordinator's
// heartbeat directory. Replay and replication still accept both kinds, as
// no-ops that advance the record number, so an older journal opens.
const (
	EventWorkerUp   JournalEvent = "worker-up"
	EventWorkerDown JournalEvent = "worker-down"
)

// Coordination events. EventEpoch fences coordinator generations: each
// takeover durably bumps a monotonically increasing epoch before the new
// primary dispatches anything, and workers reject dispatches stamped with a
// lower epoch. EventSweep records a sweep's identity — its grid-ordered job
// IDs — so a failed-over coordinator can still reassemble the sweep it never
// submitted itself.
const (
	EventEpoch JournalEvent = "epoch"
	EventSweep JournalEvent = "sweep"
)

// Terminal reports whether the event ends a job's life (and therefore must
// be flushed durably before the journal acknowledges it).
func (e JournalEvent) Terminal() bool {
	return e == EventCompleted || e == EventFailed || e == EventCanceled
}

// JournalRecord is one append-only line in the lab's write-ahead job
// journal. Rec is a strictly increasing record number spanning compactions —
// replay uses it to skip records the snapshot already reflects and to detect
// holes torn out of the middle of the file.
type JournalRecord struct {
	Rec   int64        `json:"rec"`
	Event JournalEvent `json:"event"`
	JobID string       `json:"job_id"`
	// Seq, Spec, and Fingerprint travel only on EventSubmitted, which fully
	// describes the job; later events reference it by ID alone.
	Seq         int    `json:"seq,omitempty"`
	Spec        *Spec  `json:"spec,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Error carries the failure message on EventFailed.
	Error string `json:"error,omitempty"`
	// Epoch travels only on EventEpoch: the coordinator generation this
	// record fences in. Strictly increasing across takeovers.
	Epoch uint64 `json:"epoch,omitempty"`
	// Sweep travels only on EventSweep.
	Sweep *SweepRecord `json:"sweep,omitempty"`
	// UnixMs timestamps the record (wall clock; informational only — replay
	// depends on order, never on time).
	UnixMs int64 `json:"unix_ms,omitempty"`
}

// SweepRecord names one sweep durably: the journal keeps the grid-ordered
// job IDs so the streaming reassembly endpoint survives coordinator
// replacement — the standby can serve a sweep it never accepted.
type SweepRecord struct {
	SweepID string   `json:"sweep_id"`
	JobIDs  []string `json:"job_ids"`
}

// JobRecord is the compacted per-job state a journal snapshot stores: the
// submission record folded together with the job's last known state.
type JobRecord struct {
	JobID       string   `json:"job_id"`
	Seq         int      `json:"seq"`
	Spec        Spec     `json:"spec"`
	Fingerprint string   `json:"fingerprint"`
	State       JobState `json:"state"`
	Error       string   `json:"error,omitempty"`
}

// Apply advances the record's state by one journal event, enforcing the
// lifecycle state machine; an impossible transition means the journal is
// corrupt (or was edited) and replay must refuse it.
func (r *JobRecord) Apply(ev JournalEvent, errText string) error {
	switch ev {
	case EventStarted:
		if r.State != JobQueued {
			return r.badTransition(ev)
		}
		r.State = JobRunning
	case EventCompleted:
		// Queued → done is legal: a cache hit completes a job at submit
		// time without it ever starting.
		if r.State != JobQueued && r.State != JobRunning {
			return r.badTransition(ev)
		}
		r.State = JobDone
	case EventFailed:
		if r.State != JobQueued && r.State != JobRunning {
			return r.badTransition(ev)
		}
		r.State = JobFailed
		r.Error = errText
	case EventCanceled:
		if r.State != JobQueued && r.State != JobRunning {
			return r.badTransition(ev)
		}
		r.State = JobCanceled
	case EventInterrupted:
		// Recovery requeues jobs found mid-flight, and done jobs whose
		// cached result blob is gone; failed/canceled jobs stay terminal.
		if r.State == JobFailed || r.State == JobCanceled {
			return r.badTransition(ev)
		}
		r.State = JobQueued
	default:
		return fmt.Errorf("core: unknown journal event %q for job %s", ev, r.JobID)
	}
	return nil
}

func (r *JobRecord) badTransition(ev JournalEvent) error {
	return fmt.Errorf("core: journal event %q invalid for job %s in state %q", ev, r.JobID, r.State)
}
