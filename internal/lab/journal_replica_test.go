package lab

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"butterfly/internal/core"
)

// TestJournalReplayMembershipEdgeCases: a replicated stream from an older
// primary may carry worker-up/worker-down records — duplicates, a down for
// an ID never seen up — on the wire. AppendReplica takes each as a no-op
// that advances the record number, writes it through, and the follower's
// journal replays it on reopen.
func TestJournalReplayMembershipEdgeCases(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	wire := `[
  {"rec":1,"event":"worker-up","job_id":"","worker":{"id":"wA","url":"http://a"}},
  {"rec":2,"event":"worker-up","job_id":"","worker":{"id":"wA","url":"http://a"}},
  {"rec":3,"event":"worker-down","job_id":"","worker":{"id":"ghost","url":"http://ghost"}},
  {"rec":4,"event":"submitted","job_id":"j0001-a","seq":1,"spec":{"experiment":"numa","quick":true},"fingerprint":"fp-a"},
  {"rec":5,"event":"worker-down","job_id":"","worker":{"id":"wA","url":"http://a"}}
]`
	var recs []core.JournalRecord
	if err := json.Unmarshal([]byte(wire), &recs); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.AppendReplica(r); err != nil {
			t.Fatalf("replicating legacy record %d (%s): %v", r.Rec, r.Event, err)
		}
	}
	if j.Rec() != 5 {
		t.Errorf("Rec = %d after replicating 5 records", j.Rec())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay the same records from the log itself, not the snapshot.
	if err := os.Remove(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatal(err)
	}
	var log string
	for _, r := range recs {
		log += jline(t, r)
	}
	writeLog(t, dir, log)
	re, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("legacy membership records must replay cleanly, got: %v", err)
	}
	defer re.Close()
	if re.Rec() != 5 {
		t.Errorf("Rec = %d after replaying 5 records", re.Rec())
	}
	if jobs := re.Jobs(); len(jobs) != 1 || jobs[0].JobID != "j0001-a" {
		t.Errorf("membership records disturbed the job table: %+v", jobs)
	}
}

// TestReplicaAppendDuplicateAndGap: duplicate delivery from the stream is a
// silent no-op (the record is already replicated); a record that skips
// ahead is ErrReplicaGap, the signal to resync via snapshot; a record this
// copy's state refuses (the copies diverged) is refused before it reaches
// the log, so the journal still reopens.
func TestReplicaAppendDuplicateAndGap(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	spec := specNuma()
	rec1 := core.JournalRecord{Rec: 1, Event: core.EventSubmitted, JobID: "j0001-a", Seq: 1, Spec: &spec, Fingerprint: "fp-a"}
	if err := j.AppendReplica(rec1); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendReplica(rec1); err != nil {
		t.Fatalf("duplicate delivery errored: %v", err)
	}
	if j.Rec() != 1 {
		t.Fatalf("Rec = %d after duplicate, want 1", j.Rec())
	}
	gap := core.JournalRecord{Rec: 3, Event: core.EventStarted, JobID: "j0001-a"}
	if err := j.AppendReplica(gap); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap append error = %v, want ErrReplicaGap", err)
	}
	// The gap left no trace: record 2 still applies.
	if err := j.AppendReplica(core.JournalRecord{Rec: 2, Event: core.EventStarted, JobID: "j0001-a"}); err != nil {
		t.Fatalf("in-order append after a rejected gap: %v", err)
	}

	// Diverged: this copy already has the job running.
	diverged := core.JournalRecord{Rec: 3, Event: core.EventStarted, JobID: "j0001-a"}
	if err := j.AppendReplica(diverged); err == nil || errors.Is(err, ErrReplicaGap) {
		t.Fatalf("diverged append error = %v, want a refusal", err)
	}
	if j.Rec() != 2 {
		t.Fatalf("Rec = %d after a refused record, want 2", j.Rec())
	}
	// Reopen the live log as a crash would leave it: the refused record
	// must not be on disk to poison replay.
	re, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("journal refuses to reopen after a diverged record: %v", err)
	}
	defer re.Close()
	if re.Rec() != 2 {
		t.Errorf("reopened Rec = %d, want 2", re.Rec())
	}
}

// TestReplicaTornTailTruncatesAndResyncs: the standby died mid-append to
// its replicated log. On restart the torn final record is truncated (not a
// refusal to start), the journal reports the last complete record, and the
// stream resumes from there — re-delivery of the truncated record is just
// the next in-order append.
func TestReplicaTornTailTruncatesAndResyncs(t *testing.T) {
	spec := specNuma()
	dir := t.TempDir()
	content := jline(t, core.JournalRecord{Rec: 1, Event: core.EventEpoch, Epoch: 1}) +
		jline(t, core.JournalRecord{Rec: 2, Event: core.EventSubmitted, JobID: "j0001-a", Seq: 1, Spec: &spec, Fingerprint: "fp-a"}) +
		`{"rec":3,"event":"start` // died replicating record 3
	writeLog(t, dir, content)

	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("torn replicated log must truncate, not refuse startup: %v", err)
	}
	defer j.Close()
	if !j.Torn() {
		t.Error("Torn() = false after dropping the torn record")
	}
	if j.Rec() != 2 {
		t.Fatalf("Rec = %d after truncation, want 2 (the last complete record)", j.Rec())
	}
	if j.Epoch() != 1 {
		t.Errorf("Epoch = %d after replay, want 1", j.Epoch())
	}

	// Resync: the follower's next pull asks for records after 2, and the
	// primary re-sends record 3 — which now applies in order.
	if err := j.AppendReplica(core.JournalRecord{Rec: 3, Event: core.EventStarted, JobID: "j0001-a"}); err != nil {
		t.Fatalf("resync append after truncation: %v", err)
	}
	jobs := j.Jobs()
	if len(jobs) != 1 || jobs[0].State != core.JobRunning {
		t.Fatalf("jobs after resync = %+v, want one running job", jobs)
	}
}

// TestReplicaStateInstallGuards: a state snapshot with the wrong schema, or
// one older than what is already replicated locally, must be refused — a
// stale "primary" cannot rewind a follower.
func TestReplicaStateInstallGuards(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	spec := specNuma()
	for rec := int64(1); rec <= 3; rec++ {
		r := core.JournalRecord{Rec: rec, Event: core.EventSubmitted,
			JobID: string(rune('a'+rec)) + "-job", Seq: int(rec), Spec: &spec, Fingerprint: "fp"}
		if err := j.AppendReplica(r); err != nil {
			t.Fatal(err)
		}
	}

	if err := j.InstallReplicaState(core.ReplicaState{Schema: "other-schema-v9", Rec: 10}); err == nil {
		t.Error("wrong-schema state installed")
	}
	if err := j.InstallReplicaState(core.ReplicaState{Schema: "butterfly-journal-v1", Rec: 1}); err == nil {
		t.Error("backwards state installed")
	}
	// An image with a nameless entry would write a snapshot the next open
	// refuses; it is refused whole, before anything changes.
	for _, bad := range []struct {
		name string
		st   core.ReplicaState
	}{
		{"sweep with no id", core.ReplicaState{Sweeps: []core.SweepRecord{{JobIDs: []string{"b-job"}}}}},
		{"job with no id", core.ReplicaState{Jobs: []core.JobRecord{{Seq: 9, Spec: spec, State: core.JobQueued}}}},
	} {
		bad.st.Schema, bad.st.Rec = "butterfly-journal-v1", 10+j.Rec()
		if err := j.InstallReplicaState(bad.st); err == nil {
			t.Errorf("state with a %s installed", bad.name)
		}
		if j.Rec() != 3 || len(j.Jobs()) != 3 {
			t.Errorf("rejected install (%s) moved the journal to rec=%d jobs=%d, want 3/3",
				bad.name, j.Rec(), len(j.Jobs()))
		}
	}

	st := core.ReplicaState{Schema: "butterfly-journal-v1", Rec: 7, Seq: 5, Epoch: 2,
		Jobs: []core.JobRecord{{JobID: "j0009-x", Seq: 5, Spec: spec, Fingerprint: "fp-x", State: core.JobQueued}}}
	if err := j.InstallReplicaState(st); err != nil {
		t.Fatal(err)
	}
	if j.Rec() != 7 || j.Epoch() != 2 || j.MaxSeq() != 5 {
		t.Errorf("after install: rec=%d epoch=%d seq=%d, want 7/2/5", j.Rec(), j.Epoch(), j.MaxSeq())
	}
	if jobs := j.Jobs(); len(jobs) != 1 || jobs[0].JobID != "j0009-x" {
		t.Errorf("jobs after install = %+v", jobs)
	}
}

// TestJournalEpochRules: epochs only rise through the validated append path
// (BumpEpoch), survive reopen, and a stale epoch record arriving in a
// replicated stream is tolerated as a no-op.
func TestJournalEpochRules(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := j.BumpEpoch(); err != nil || e != 1 {
		t.Fatalf("first BumpEpoch = (%d, %v), want (1, nil)", e, err)
	}
	if e, err := j.BumpEpoch(); err != nil || e != 2 {
		t.Fatalf("second BumpEpoch = (%d, %v), want (2, nil)", e, err)
	}
	// A stale epoch in the replica stream (possible when the stream predates
	// this follower's own takeover) is a no-op, not an error.
	if err := j.AppendReplica(core.JournalRecord{Rec: j.Rec() + 1, Event: core.EventEpoch, Epoch: 1}); err != nil {
		t.Fatalf("stale replicated epoch errored: %v", err)
	}
	if j.Epoch() != 2 {
		t.Errorf("stale replicated epoch lowered the fence to %d", j.Epoch())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 2 {
		t.Errorf("epoch %d after reopen, want 2", re.Epoch())
	}
}

// TestRecordsAfterTailSemantics: the bounded tail streams what it holds and
// signals snapshot-needed when asked to reach further back.
func TestRecordsAfterTailSemantics(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.TailMax = 4
	spec := specNuma()
	for i := 1; i <= 10; i++ {
		id := string(rune('a'+i)) + "-job"
		if err := j.Submitted(id, i, spec, "fp-"+id); err != nil {
			t.Fatal(err)
		}
	}

	if recs, ok := j.RecordsAfter(10, 100); !ok || recs != nil {
		t.Errorf("caught-up follower: recs=%v ok=%v, want nil/true", recs, ok)
	}
	if _, ok := j.RecordsAfter(0, 100); ok {
		t.Error("tail claims to reach back to record 1 with TailMax=4")
	}
	recs, ok := j.RecordsAfter(8, 100)
	if !ok || len(recs) != 2 || recs[0].Rec != 9 || recs[1].Rec != 10 {
		t.Errorf("RecordsAfter(8) = %+v ok=%v, want records 9,10", recs, ok)
	}
	// max bounds the batch.
	recs, ok = j.RecordsAfter(8, 1)
	if !ok || len(recs) != 1 || recs[0].Rec != 9 {
		t.Errorf("RecordsAfter(8, max=1) = %+v ok=%v, want just record 9", recs, ok)
	}
}

// TestReplicaConvergesToPrimaryImage: a follower fed a mixed record stream
// through AppendReplica — with compaction every 3 records on both sides and
// one snapshot install mid-stream — ends with the primary's state image,
// and both write byte-identical snapshot.json files. A snapshot written in
// the field order older builds used still opens to the same state.
func TestReplicaConvergesToPrimaryImage(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	primary, err := OpenJournal(primDir)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenJournal(folDir)
	if err != nil {
		t.Fatal(err)
	}
	primary.CompactEvery, follower.CompactEvery = 3, 3

	// ship moves what the follower lacks over the wire encoding.
	ship := func() {
		t.Helper()
		recs, ok := primary.RecordsAfter(follower.Rec(), 0)
		if !ok {
			t.Fatalf("primary tail no longer reaches record %d", follower.Rec()+1)
		}
		b, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		var wire []core.JournalRecord
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Fatal(err)
		}
		for _, r := range wire {
			if err := follower.AppendReplica(r); err != nil {
				t.Fatalf("replicating record %d (%s): %v", r.Rec, r.Event, err)
			}
		}
	}
	spec := specNuma()
	steps := []func() error{
		func() error { _, err := primary.BumpEpoch(); return err },
		func() error { return primary.Submitted("j0001-a", 1, spec, "fp-a") },
		func() error { return primary.Submitted("j0002-b", 2, spec, "fp-b") },
		func() error { return primary.SweepSubmitted("s0001", []string{"j0001-a", "j0002-b"}) },
		func() error { return primary.Started("j0001-a") },
		func() error { return primary.Finished("j0001-a", core.JobDone, "") },
		func() error { return primary.Started("j0002-b") },
		func() error { return primary.Finished("j0002-b", core.JobFailed, "boom") },
		func() error { return primary.Submitted("j0003-c", 3, spec, "fp-c") },
		func() error { _, err := primary.BumpEpoch(); return err },
		func() error { return primary.Interrupted("j0003-c") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("primary step %d: %v", i, err)
		}
		if i == len(steps)/2 {
			// Mid-stream resync: the follower installs the primary's image
			// instead of streaming the records it lacks.
			if err := follower.InstallReplicaState(primary.ReplicaState()); err != nil {
				t.Fatal(err)
			}
			continue
		}
		ship()
	}

	want := primary.ReplicaState()
	if got := follower.ReplicaState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower image diverged:\n got %+v\nwant %+v", got, want)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	primSnap, err := os.ReadFile(filepath.Join(primDir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	folSnap, err := os.ReadFile(filepath.Join(folDir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(primSnap, folSnap) {
		t.Fatalf("snapshot.json differs:\nprimary  %s\nfollower %s", primSnap, folSnap)
	}

	// The same image in the older on-disk form (indented, epoch after the
	// tables, and the membership table older coordinators kept) opens to the
	// same state.
	old := struct {
		Schema  string              `json:"schema"`
		Rec     int64               `json:"rec"`
		Seq     int                 `json:"seq"`
		Jobs    []core.JobRecord    `json:"jobs"`
		Workers []core.WorkerRecord `json:"workers,omitempty"`
		Epoch   uint64              `json:"epoch,omitempty"`
		Sweeps  []core.SweepRecord  `json:"sweeps,omitempty"`
	}{want.Schema, want.Rec, want.Seq, want.Jobs, []core.WorkerRecord{{ID: "wA", URL: "http://a"}}, want.Epoch, want.Sweeps}
	b, err := json.MarshalIndent(old, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	oldDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(oldDir, "snapshot.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenJournal(oldDir)
	if err != nil {
		t.Fatalf("old-order snapshot refused: %v", err)
	}
	defer re.Close()
	if got := re.ReplicaState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("old-order snapshot opened to\n %+v\nwant %+v", got, want)
	}
}
