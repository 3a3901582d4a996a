package lab

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"butterfly/internal/core"
)

// jline renders one journal record the way the journal writes it.
func jline(t *testing.T, r core.JournalRecord) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// writeLog writes a raw journal.jsonl (no snapshot) into dir.
func writeLog(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func specNuma() core.Spec { return core.Spec{Experiment: "numa", Quick: true} }

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Submitted("j0001-aaaa", 1, specNuma(), "fp-a"))
	must(j.Started("j0001-aaaa"))
	must(j.Finished("j0001-aaaa", core.JobDone, ""))
	must(j.Submitted("j0002-bbbb", 2, specNuma(), "fp-b"))
	must(j.Started("j0002-bbbb"))
	must(j.Finished("j0002-bbbb", core.JobFailed, "boom"))
	must(j.Submitted("j0003-cccc", 3, specNuma(), "fp-c"))
	must(j.Finished("j0003-cccc", core.JobCanceled, ""))
	must(j.Submitted("j0004-dddd", 4, specNuma(), "fp-d"))
	must(j.Started("j0004-dddd")) // left running: a crash victim
	must(j.Close())

	re, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Torn() {
		t.Error("clean journal reported a torn record")
	}
	if got := re.MaxSeq(); got != 4 {
		t.Errorf("MaxSeq = %d, want 4", got)
	}
	jobs := re.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("replayed %d jobs, want 4", len(jobs))
	}
	want := []struct {
		id    string
		state core.JobState
		err   string
	}{
		{"j0001-aaaa", core.JobDone, ""},
		{"j0002-bbbb", core.JobFailed, "boom"},
		{"j0003-cccc", core.JobCanceled, ""},
		{"j0004-dddd", core.JobRunning, ""},
	}
	for i, w := range want {
		got := jobs[i]
		if got.JobID != w.id || got.State != w.state || got.Error != w.err {
			t.Errorf("job %d = {%s %s %q}, want {%s %s %q}",
				i, got.JobID, got.State, got.Error, w.id, w.state, w.err)
		}
		if got.Seq != i+1 || got.Spec.Experiment != "numa" {
			t.Errorf("job %d lost submission data: %+v", i, got)
		}
	}
}

// TestJournalCompaction drives the automatic fold: with CompactEvery=4 the
// log is repeatedly truncated into the snapshot, record numbers keep
// climbing across compactions, and a reopen sees the union.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.CompactEvery = 4
	const n = 10
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j%04d-compact", i+1)
		if err := j.Submitted(id, i+1, specNuma(), fmt.Sprintf("fp-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := j.Started(id); err != nil {
			t.Fatal(err)
		}
		if err := j.Finished(id, core.JobDone, ""); err != nil {
			t.Fatal(err)
		}
	}
	// 30 records at CompactEvery=4: the live log must stay short.
	if fi, err := os.Stat(filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Fatal(err)
	} else if fi.Size() > 4*1024 {
		t.Errorf("log never compacted: %d bytes", fi.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	jobs := re.Jobs()
	if len(jobs) != n {
		t.Fatalf("replayed %d jobs, want %d", len(jobs), n)
	}
	for _, r := range jobs {
		if r.State != core.JobDone {
			t.Errorf("job %s replayed as %s, want done", r.JobID, r.State)
		}
	}
	if re.MaxSeq() != n {
		t.Errorf("MaxSeq = %d, want %d", re.MaxSeq(), n)
	}
}

// TestJournalTornFinalRecord: a truncated last line (the process died
// mid-append) is tolerated — replay drops it, reports Torn, and the job
// simply resumes from its previous state.
func TestJournalTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	spec := specNuma()
	content := jline(t, core.JournalRecord{Rec: 1, Event: core.EventSubmitted, JobID: "j0001-torn", Seq: 1, Spec: &spec, Fingerprint: "fp"}) +
		jline(t, core.JournalRecord{Rec: 2, Event: core.EventStarted, JobID: "j0001-torn"}) +
		`{"rec":3,"event":"comp` // the crash happened here
	writeLog(t, dir, content)

	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got: %v", err)
	}
	defer j.Close()
	if !j.Torn() {
		t.Error("Torn() = false after dropping a truncated record")
	}
	jobs := j.Jobs()
	if len(jobs) != 1 || jobs[0].State != core.JobRunning {
		t.Fatalf("jobs after torn replay = %+v, want one running job", jobs)
	}

	// The open compacted: a reopen is clean, no lingering torn flag.
	j.Close()
	re, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Torn() {
		t.Error("torn flag survived compaction")
	}
}

// TestJournalMidFileCorruption: damage anywhere before the final record is
// not a torn append — it means the file was corrupted at rest, and the open
// must fail loudly rather than silently forget jobs.
func TestJournalMidFileCorruption(t *testing.T) {
	spec := specNuma()
	sub := func(rec int64, id string, seq int) string {
		return jline(t, core.JournalRecord{Rec: rec, Event: core.EventSubmitted, JobID: id, Seq: seq, Spec: &spec, Fingerprint: "fp"})
	}

	cases := []struct {
		name    string
		content string
		wantSub string
	}{
		{
			name:    "garbage line mid-file",
			content: sub(1, "j0001-a", 1) + "{{{ not json }}}\n" + sub(3, "j0003-c", 3),
			wantSub: "corrupt",
		},
		{
			name:    "record number hole",
			content: sub(1, "j0001-a", 1) + sub(3, "j0003-c", 3),
			wantSub: "hole",
		},
		{
			name: "impossible transition",
			content: sub(1, "j0001-a", 1) +
				jline(t, core.JournalRecord{Rec: 2, Event: core.EventCompleted, JobID: "j0001-a"}) +
				jline(t, core.JournalRecord{Rec: 3, Event: core.EventStarted, JobID: "j0001-a"}),
			wantSub: "invalid",
		},
		{
			name:    "event for unknown job",
			content: jline(t, core.JournalRecord{Rec: 1, Event: core.EventStarted, JobID: "j9999-ghost"}),
			wantSub: "unknown job",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeLog(t, dir, tc.content)
			_, err := OpenJournal(dir)
			if err == nil {
				t.Fatal("corrupt journal opened without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestJournalCorruptSnapshot: an unreadable or wrong-schema snapshot is a
// hard error, not a silent fresh start.
func TestJournalCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt snapshot: err = %v", err)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "snapshot.json"), []byte(`{"schema":"other-v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir2); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema: err = %v", err)
	}
}

// TestJournalAppendAfterClose.
func TestJournalAppendAfterClose(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Submitted("j0001-late", 1, specNuma(), "fp"); err != ErrJournalClosed {
		t.Errorf("append after close: %v, want ErrJournalClosed", err)
	}
}

// TestSchedulerRecoveryRestoresAndRequeues is the in-process version of the
// crash chaos test: a scheduler runs jobs against a journal + cache, the
// "process" dies (journal reopened without a clean scheduler drain), and a
// new scheduler must restore the finished work and requeue the rest —
// preserving IDs, sequence numbers, and results.
func TestSchedulerRecoveryRestoresAndRequeues(t *testing.T) {
	dir := t.TempDir()
	cache := OpenCache(filepath.Join(dir, "cache"))

	j, err := OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewScheduler(Config{Workers: 2, Cache: cache, Journal: j})
	done, err := s1.Submit(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := done.Wait()
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := s1.Submit(core.Spec{Experiment: "spread"})
	if err != nil {
		t.Fatal(err)
	}
	canceled.Cancel()
	waitState(t, canceled, StateCanceled)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash aftermath: journal Submitted+Started for a job the
	// dead process never finished.
	spec3 := core.Spec{Experiment: "numa", Quick: true, Nodes: 32}
	if err := j.Submitted("j0099-crashed", 99, spec3, Fingerprint(spec3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Started("j0099-crashed"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directories.
	j2, err := OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewScheduler(Config{Workers: 2, Cache: OpenCache(filepath.Join(dir, "cache")), Journal: j2})
	t.Cleanup(func() {
		s2.Shutdown(context.Background())
		j2.Close()
	})

	rec := s2.Recovery()
	if rec.Replayed != 3 || rec.Restored != 2 || rec.Requeued != 1 {
		t.Errorf("recovery stats = %+v, want replayed 3, restored 2, requeued 1", rec)
	}

	// The done job is back, same ID, same bytes, no re-execution needed.
	jd, ok := s2.Lookup(done.ID)
	if !ok {
		t.Fatalf("done job %s lost across restart", done.ID)
	}
	res2, err := jd.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Table != res1.Table {
		t.Error("restored result table diverges from pre-crash result")
	}

	// The canceled job is back and stays terminal — never re-run.
	jc, ok := s2.Lookup(canceled.ID)
	if !ok {
		t.Fatalf("canceled job %s lost across restart", canceled.ID)
	}
	if _, err := jc.Wait(); err != ErrCanceled {
		t.Errorf("canceled job replayed with err %v, want ErrCanceled", err)
	}

	// The crashed mid-flight job was requeued and completes on the new
	// scheduler, byte-identical to a clean run.
	jr, ok := s2.Lookup("j0099-crashed")
	if !ok {
		t.Fatal("crashed job not requeued")
	}
	res3, err := jr.Wait()
	if err != nil {
		t.Fatalf("requeued job: %v", err)
	}
	clean, err := RunSpec(spec3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Table != clean.Table {
		t.Error("recovered run diverges from clean run")
	}

	// Sequence numbering continues past the journal's high-water mark.
	next, err := s2.Submit(core.Spec{Experiment: "numa", Quick: true, Nodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(next.ID, "j0100-") {
		t.Errorf("post-recovery job ID %s does not continue the sequence", next.ID)
	}
	if _, err := next.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerRecoveryGrowsQueueForBacklog: a journal holding more queued
// jobs than the configured queue depth must not deadlock or reject its own
// recovery — the queue grows to hold the backlog.
func TestSchedulerRecoveryGrowsQueueForBacklog(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 6
	for i := 0; i < backlog; i++ {
		spec := core.Spec{Experiment: "numa", Quick: true, Nodes: 16 * (i + 1)}
		if err := j.Submitted(fmt.Sprintf("j%04d-backlog", i+1), i+1, spec, Fingerprint(spec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(Config{Workers: 2, QueueDepth: 2, Journal: j2})
	t.Cleanup(func() {
		s.Shutdown(context.Background())
		j2.Close()
	})
	if got := s.Recovery().Requeued; got != backlog {
		t.Fatalf("requeued %d, want %d", got, backlog)
	}
	for _, job := range s.Jobs() {
		if _, err := job.Wait(); err != nil {
			t.Errorf("backlog job %s: %v", job.ID, err)
		}
	}
}

// TestJournalCompactionRacesAppends: compaction folding the table into the
// snapshot while lifecycle records land from concurrent schedulers must
// lose nothing. CompactEvery=3 forces a compaction mid-stream constantly;
// under -race this also proves the locking.
func TestJournalCompactionRacesAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.CompactEvery = 3

	const goroutines = 8
	const jobsEach = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				id := fmt.Sprintf("j%02d%02d-race", g, i)
				seq := g*jobsEach + i + 1
				if err := j.Submitted(id, seq, specNuma(), fmt.Sprintf("fp-%s", id)); err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
				if err := j.Started(id); err != nil {
					t.Errorf("start %s: %v", id, err)
					return
				}
				if err := j.Finished(id, core.JobDone, ""); err != nil {
					t.Errorf("finish %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	// Sweep identities race the job stream too, as they do on a live
	// coordinator.
	const sweeps = 20
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sweeps; i++ {
			if err := j.SweepSubmitted(fmt.Sprintf("s%04d", i), []string{fmt.Sprintf("j%02d%02d-race", i%goroutines, i%jobsEach)}); err != nil {
				t.Errorf("sweep: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("reopen after racing compactions: %v", err)
	}
	defer re.Close()
	jobs := re.Jobs()
	if len(jobs) != goroutines*jobsEach {
		t.Fatalf("replayed %d jobs, want %d", len(jobs), goroutines*jobsEach)
	}
	for _, r := range jobs {
		if r.State != core.JobDone {
			t.Errorf("job %s replayed as %s, want done", r.JobID, r.State)
		}
	}
	if re.MaxSeq() != goroutines*jobsEach {
		t.Errorf("MaxSeq = %d, want %d", re.MaxSeq(), goroutines*jobsEach)
	}
	if got := len(re.Sweeps()); got != sweeps {
		t.Errorf("replayed %d sweeps, want %d", got, sweeps)
	}
}

// TestJournalStaleLogAfterSnapshotRename: a crash between the snapshot
// rename and the log truncation leaves the old log on disk. Its records
// are already folded into the snapshot — replay must skip them (by record
// number) and apply only the fresh tail.
func TestJournalStaleLogAfterSnapshotRename(t *testing.T) {
	dir := t.TempDir()
	spec := specNuma()
	snap := fmt.Sprintf(`{"schema":%q,"rec":3,"seq":1,"jobs":[{"job_id":"j0001-old","seq":1,"spec":{"experiment":"numa","quick":true},"fingerprint":"fp-old","state":"done"}]}`, journalSchema)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	// Log: records 1-3 are the stale pre-compaction history of j0001-old
	// (including its submission — a duplicate if wrongly replayed); 4-5 are
	// the fresh tail for a new job.
	content := jline(t, core.JournalRecord{Rec: 1, Event: core.EventSubmitted, JobID: "j0001-old", Seq: 1, Spec: &spec, Fingerprint: "fp-old"}) +
		jline(t, core.JournalRecord{Rec: 2, Event: core.EventStarted, JobID: "j0001-old"}) +
		jline(t, core.JournalRecord{Rec: 3, Event: core.EventCompleted, JobID: "j0001-old"}) +
		jline(t, core.JournalRecord{Rec: 4, Event: core.EventSubmitted, JobID: "j0002-new", Seq: 2, Spec: &spec, Fingerprint: "fp-new"}) +
		jline(t, core.JournalRecord{Rec: 5, Event: core.EventStarted, JobID: "j0002-new"})
	writeLog(t, dir, content)

	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("stale-log replay must succeed, got: %v", err)
	}
	defer j.Close()
	jobs := j.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if jobs[0].JobID != "j0001-old" || jobs[0].State != core.JobDone {
		t.Errorf("snapshot job = %+v, want j0001-old done", jobs[0])
	}
	if jobs[1].JobID != "j0002-new" || jobs[1].State != core.JobRunning {
		t.Errorf("tail job = %+v, want j0002-new running", jobs[1])
	}
}

// TestJournalTornSnapshotTempIgnored: a crash mid-compaction leaves a
// half-written .snapshot.* temp file behind. It was never renamed into
// place, so the open must ignore it and replay the intact state.
func TestJournalTornSnapshotTempIgnored(t *testing.T) {
	dir := t.TempDir()
	spec := specNuma()
	writeLog(t, dir,
		jline(t, core.JournalRecord{Rec: 1, Event: core.EventSubmitted, JobID: "j0001-a", Seq: 1, Spec: &spec, Fingerprint: "fp"}))
	if err := os.WriteFile(filepath.Join(dir, ".snapshot.1234"), []byte(`{"schema":"butterfly-jo`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("torn snapshot temp file broke the open: %v", err)
	}
	defer j.Close()
	if jobs := j.Jobs(); len(jobs) != 1 || jobs[0].JobID != "j0001-a" {
		t.Fatalf("jobs = %+v, want the one intact job", jobs)
	}
}

// TestJournalWorkerMembershipRoundTrip: a journal written when fleet
// membership was journaled — worker-up/worker-down lines in the log and a
// "workers" table in the snapshot — still opens. The membership records
// fold as no-ops that advance the record number; jobs, sweeps, and the
// epoch come back intact, and the compacted snapshot drops the table.
func TestJournalWorkerMembershipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := fmt.Sprintf(`{
  "schema": %q,
  "rec": 4,
  "seq": 1,
  "epoch": 1,
  "jobs": [{"job_id":"j0001-a","seq":1,"spec":{"experiment":"numa","quick":true},"fingerprint":"fp-a","state":"done"}],
  "workers": [{"id":"wA","url":"http://a"},{"id":"wB","url":"http://b"}],
  "sweeps": [{"sweep_id":"s0001","job_ids":["j0001-a"]}]
}
`, journalSchema)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	writeLog(t, dir,
		`{"rec":5,"event":"worker-up","job_id":"","worker":{"id":"wC","url":"http://c"},"unix_ms":1}`+"\n"+
			`{"rec":6,"event":"submitted","job_id":"j0002-b","seq":2,"spec":{"experiment":"numa","quick":true},"fingerprint":"fp-b","unix_ms":2}`+"\n"+
			`{"rec":7,"event":"worker-down","job_id":"","worker":{"id":"wA","url":"http://a"},"unix_ms":3}`+"\n"+
			`{"rec":8,"event":"started","job_id":"j0002-b","unix_ms":4}`+"\n"+
			`{"rec":9,"event":"worker-down","job_id":"","worker":{"id":"ghost","url":"http://ghost"},"unix_ms":5}`+"\n")

	check := func(j *Journal) {
		t.Helper()
		if j.Rec() != 9 {
			t.Errorf("Rec = %d, want 9: legacy records must still advance it", j.Rec())
		}
		if j.Epoch() != 1 || j.MaxSeq() != 2 {
			t.Errorf("epoch %d, max seq %d; want 1, 2", j.Epoch(), j.MaxSeq())
		}
		jobs := j.Jobs()
		if len(jobs) != 2 || jobs[0].JobID != "j0001-a" || jobs[0].State != core.JobDone ||
			jobs[1].JobID != "j0002-b" || jobs[1].State != core.JobRunning {
			t.Errorf("jobs = %+v, want j0001-a done and j0002-b running", jobs)
		}
		if sw := j.Sweeps(); len(sw) != 1 || sw[0].SweepID != "s0001" {
			t.Errorf("sweeps = %+v, want [s0001]", sw)
		}
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("journal with membership records refused: %v", err)
	}
	check(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"workers"`) {
		t.Errorf("compacted snapshot still carries a membership table:\n%s", b)
	}
	re, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re)
}
