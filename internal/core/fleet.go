package core

// Fleet record types: the durable and wire forms of butterflyd's
// multi-process mode, where one coordinator places jobs on a ring of
// workers by spec content-address. They live in core — like the job
// journal records — so the journal, the HTTP layer, and the fleet
// runtime agree on one vocabulary without import cycles.

// WorkerRecord identifies one fleet worker. Membership is not durable: a
// coordinator learns its workers, and a restarted or promoted one re-learns
// them, from their heartbeats alone.
type WorkerRecord struct {
	// ID is the worker's stable name on the ring; placement hashes it, so
	// a worker that restarts under the same ID reclaims the same arcs.
	ID string `json:"id"`
	// URL is the base URL the coordinator (and ring siblings) reach the
	// worker's job API on.
	URL string `json:"url"`
}

// HeartbeatRequest is a worker's periodic liveness report, carrying the
// counters the coordinator aggregates into fleet metrics. A heartbeat is
// also the only way into the fleet: the coordinator admits any worker it
// hears from, so one that lost its memory (or never had it) re-learns the
// fleet from the traffic.
type HeartbeatRequest struct {
	Worker WorkerRecord `json:"worker"`
	// Arrival marks the beats a worker process sends until its first ack:
	// a (re)arrival, which cancels a drain its previous run announced.
	Arrival bool `json:"arrival,omitempty"`
	// PeerHits counts jobs this worker resolved from a ring sibling's
	// cache instead of simulating.
	PeerHits uint64 `json:"peer_hits"`
	// Simulated counts jobs this worker actually executed.
	Simulated uint64 `json:"simulated"`
}

// LeaveRequest is a worker's explicit deregistration on planned shutdown
// (SIGTERM): the coordinator downs it immediately and quietly, instead of
// reassigning its work when the heartbeat deadline expires.
type LeaveRequest struct {
	Worker WorkerRecord `json:"worker"`
}

// FleetView is the coordinator's answer to heartbeats and leaves: the
// current live membership, from which every worker derives the same ring
// the coordinator places by.
type FleetView struct {
	Workers []WorkerRecord `json:"workers"`
	// Epoch is the answering coordinator's generation. Workers adopt the
	// highest epoch they have seen and reject dispatches below it.
	Epoch uint64 `json:"epoch,omitempty"`
	// Coordinators lists the coordinator endpoints a worker may heartbeat,
	// the active primary first, then known standbys — how workers learn
	// where to fail over before the primary dies.
	Coordinators []string `json:"coordinators,omitempty"`
}

// ReplicaPullRequest is a standby asking the primary for journal records it
// has not yet replicated. AfterRec doubles as the acknowledgement: the
// primary knows everything up to and including AfterRec is durable on this
// follower, which is what the replication-lag gauge measures.
type ReplicaPullRequest struct {
	FollowerID  string `json:"follower_id"`
	FollowerURL string `json:"follower_url,omitempty"`
	AfterRec    int64  `json:"after_rec"`
	// FullState forces a snapshot transfer (set after a gap — e.g. the
	// follower's log was torn and truncated below the primary's tail).
	FullState bool `json:"full_state,omitempty"`
}

// ReplicaPullResponse carries either the next batch of journal records or,
// when the follower is too far behind the primary's in-memory tail, a full
// state snapshot to install before streaming resumes.
type ReplicaPullResponse struct {
	Records []JournalRecord `json:"records,omitempty"`
	State   *ReplicaState   `json:"state,omitempty"`
}

// ReplicaState is a journal's full state image: what compaction writes to
// snapshot.json, and what a primary sends to bootstrap a follower that
// joined (or fell) too far behind the record stream.
type ReplicaState struct {
	Schema string        `json:"schema"`
	Rec    int64         `json:"rec"`
	Seq    int           `json:"seq"`
	Epoch  uint64        `json:"epoch,omitempty"`
	Jobs   []JobRecord   `json:"jobs"`
	Sweeps []SweepRecord `json:"sweeps,omitempty"`
}

// FollowerHealth is one standby's row in the primary's replication metrics.
type FollowerHealth struct {
	ID            string `json:"id"`
	URL           string `json:"url,omitempty"`
	AckedRec      int64  `json:"acked_rec"`
	LagRecs       int64  `json:"lag_recs"`
	LastPullAgeMs int64  `json:"last_pull_age_ms"`
}

// WorkerHealth is one worker's row in the coordinator's fleet metrics.
type WorkerHealth struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	// Draining marks a planned departure in progress: alive for in-flight
	// work, excluded from new placements.
	Draining       bool   `json:"draining,omitempty"`
	HeartbeatAgeMs int64  `json:"heartbeat_age_ms"`
	PeerHits       uint64 `json:"peer_hits"`
	Simulated      uint64 `json:"simulated"`
}

// FleetMetrics is the fleet block of a coordinator's /metrics document.
type FleetMetrics struct {
	Role           string `json:"role"`
	Epoch          uint64 `json:"epoch"`
	Takeovers      uint64 `json:"takeovers"`
	LiveWorkers    int    `json:"live_workers"`
	KnownWorkers   int    `json:"known_workers"`
	ReassignedJobs uint64 `json:"reassigned_jobs"`
	PeerHits       uint64 `json:"peer_hits"`
	Simulated      uint64 `json:"simulated"`
	MaxBeatAgeMs   int64  `json:"max_heartbeat_age_ms"`
	// ReplicationLagRecs is the worst follower lag in journal records
	// (primary's last record minus the follower's acked record).
	ReplicationLagRecs int64            `json:"replication_lag_recs"`
	Followers          []FollowerHealth `json:"followers,omitempty"`
	Workers            []WorkerHealth   `json:"workers,omitempty"`
}

// StandbyMetrics is the fleet block of a not-yet-promoted standby's
// /metrics (and /replica/status) document.
type StandbyMetrics struct {
	Role    string `json:"role"`
	Primary string `json:"primary"`
	Epoch   uint64 `json:"epoch"`
	// AckedRec is the record number this standby's last pull sent the
	// primary; every record up to it was fsynced here before it was sent.
	AckedRec int64 `json:"acked_rec"`
	// LastSyncAgeMs is time since the last successful pull (-1 before the
	// first).
	LastSyncAgeMs int64 `json:"last_sync_age_ms"`
}

// WorkerMetrics is the fleet block of a worker's /metrics document.
type WorkerMetrics struct {
	Role        string `json:"role"`
	ID          string `json:"id"`
	Coordinator string `json:"coordinator"`
	// Coordinators is the failover list learned from heartbeat acks.
	Coordinators []string `json:"coordinators,omitempty"`
	// Epoch is the highest coordinator generation this worker has seen;
	// dispatches stamped below it are rejected.
	Epoch     uint64 `json:"epoch"`
	RingSize  int    `json:"ring_size"`
	PeerHits  uint64 `json:"peer_hits"`
	Simulated uint64 `json:"simulated"`
	// LastAckAgeMs is how stale the worker's view of the fleet is: time
	// since the coordinator last acknowledged a heartbeat (-1 before the
	// first ack).
	LastAckAgeMs int64 `json:"last_ack_age_ms"`
}
