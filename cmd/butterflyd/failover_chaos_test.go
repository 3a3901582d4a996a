package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
	"butterfly/internal/lab/client"
)

// getJSON decodes one GET endpoint into out, reporting non-2xx as an error
// via the returned status code.
func getJSON(base, path string, out any) (int, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// sweepProgress is the slice of the GET /sweeps/{id} document this test
// reads.
type sweepProgress struct {
	ID     string   `json:"id"`
	Points int      `json:"points"`
	Done   int      `json:"done"`
	Failed int      `json:"failed"`
	Jobs   []string `json:"jobs"`
}

// TestFailoverChaos is the coordinator's version of TestFleetChaos: a
// primary coordinator replicates its journal to a standby over HTTP (no
// shared disk), two workers run a sweep, and the primary is SIGKILLed
// mid-sweep. The standby must detect the silence, fence a new epoch,
// promote itself, re-learn the workers from its replicated journal, and
// finish the sweep — same sweep ID, same grid-ordered job IDs, reassembled
// document byte-identical to an in-process run.
func TestFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	bin := buildDaemon(t)
	stateDir := t.TempDir()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Primary coordinator: its own journal and cache.
	primAddr := freeAddr(t)
	primURL := "http://" + primAddr
	primLog := filepath.Join(stateDir, "primary.log")
	prim := startDaemon(t, bin, primAddr,
		filepath.Join(stateDir, "prim-journal"), filepath.Join(stateDir, "prim-cache"), primLog,
		"-role", "coordinator", "-dead-after", "2s", "-workers", "8")
	primKilled := false
	defer func() {
		if !primKilled {
			prim.cmd.Process.Kill()
			prim.cmd.Wait()
		}
		if t.Failed() {
			prim.dumpLog(t)
		}
	}()

	// Standby: separate journal and cache directories — the whole point is
	// that no disk is shared; everything it knows arrived over the wire.
	sbAddr := freeAddr(t)
	sbURL := "http://" + sbAddr
	sbLog := filepath.Join(stateDir, "standby.log")
	sb := startDaemon(t, bin, sbAddr,
		filepath.Join(stateDir, "sb-journal"), filepath.Join(stateDir, "sb-cache"), sbLog,
		"-role", "standby", "-follow", primURL, "-dead-after", "2s", "-workers", "8")
	sbDone := false
	defer func() {
		if !sbDone {
			sb.cmd.Process.Kill()
			sb.cmd.Wait()
		}
		if t.Failed() {
			sb.dumpLog(t)
		}
	}()

	// Two workers joined to the primary. They learn the standby's address
	// from heartbeat acks — that list is their failover plan.
	workers := make([]*daemon, 2)
	workerURLs := make([]string, 2)
	for i := range workers {
		addr := freeAddr(t)
		workerURLs[i] = "http://" + addr
		logPath := filepath.Join(stateDir, "worker"+string(rune('A'+i))+".log")
		workers[i] = startDaemon(t, bin, addr,
			filepath.Join(stateDir, "unused-journal"), filepath.Join(stateDir, "wcache"+string(rune('A'+i))), logPath,
			"-role", "worker", "-join", primURL, "-heartbeat", "250ms")
	}
	defer func() {
		for _, w := range workers {
			w.cmd.Process.Signal(syscall.SIGTERM)
		}
		for _, w := range workers {
			w.cmd.Wait()
			if t.Failed() {
				w.dumpLog(t)
			}
		}
	}()

	c := client.New(primURL)
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("primary never ready: %v", err)
	}
	waitLiveWorkers(t, ctx, primURL, 2)

	// The standby must be replicating (primary sees one follower with zero
	// lag) and both workers must know both coordinators before any chaos —
	// otherwise there is nothing to fail over to.
	poll := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if ctx.Err() != nil {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	poll("primary to report a caught-up follower", func() bool {
		m, err := fleetStatus(t, primURL)
		return err == nil && len(m.Followers) == 1 && m.Followers[0].LagRecs == 0
	})
	var sbStatus core.StandbyMetrics
	if code, err := getJSON(sbURL, "/replica/status", &sbStatus); err != nil || code != http.StatusOK {
		t.Fatalf("standby /replica/status = %d, %v", code, err)
	}
	if sbStatus.Role != "standby" || sbStatus.Primary != primURL {
		t.Fatalf("standby status = %+v", sbStatus)
	}
	for _, wu := range workerURLs {
		wu := wu
		poll("worker "+wu+" to learn the failover list", func() bool {
			var doc struct {
				Fleet core.WorkerMetrics `json:"fleet"`
			}
			code, err := getJSON(wu, "/metrics", &doc)
			return err == nil && code == http.StatusOK && len(doc.Fleet.Coordinators) >= 2 && doc.Fleet.Epoch >= 1
		})
	}

	// An 8-point sweep through the primary.
	const sweepBody = `{"base":{"experiment":"numa","quick":true},"axes":[{"field":"nodes","values":["16..2048:*2"]}]}`
	var submitted struct {
		ID     string          `json:"id"`
		Points int             `json:"points"`
		Jobs   []lab.JobStatus `json:"jobs"`
	}
	resp, err := http.Post(primURL+"/sweeps", "application/json", bytes.NewBufferString(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps = %d, %v", resp.StatusCode, err)
	}
	if submitted.ID == "" || submitted.Points != 8 {
		t.Fatalf("sweep = %+v, want 8 tracked points", submitted)
	}
	originalIDs := make([]string, len(submitted.Jobs))
	for i, j := range submitted.Jobs {
		originalIDs[i] = j.ID
	}

	// Mid-sweep — some points done, not all — SIGKILL the primary. No
	// drain, no handoff message: the standby only has silence to go on.
	// The tight poll keeps the kill inside the sweep on fast machines.
	for {
		var p sweepProgress
		code, err := getJSON(primURL, "/sweeps/"+submitted.ID, &p)
		if err == nil && code == http.StatusOK && p.Done >= 2 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for a couple of sweep points to finish")
		}
		time.Sleep(time.Millisecond)
	}
	if err := prim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	prim.cmd.Wait()
	primKilled = true

	// The standby notices, fences a new epoch, and promotes: its /fleet
	// endpoint (coordinator-only) starts answering with a takeover counted.
	var promoted core.FleetMetrics
	poll("standby takeover", func() bool {
		m, err := fleetStatus(t, sbURL)
		if err != nil || m.Takeovers != 1 {
			return false
		}
		promoted = m
		return true
	})
	if promoted.Epoch < 2 {
		t.Errorf("promoted epoch = %d, want >= 2 (primary fenced 1)", promoted.Epoch)
	}
	// The promoted coordinator starts with an empty ring; the workers'
	// heartbeats, failing over from the dead primary, fill it.
	promotedAt := time.Now()
	waitLiveWorkers(t, ctx, sbURL, 2)
	t.Logf("ring refill: both workers live %v after the promotion was seen",
		time.Since(promotedAt).Round(time.Millisecond))

	// The sweep survived under its identity: same sweep ID, same
	// grid-ordered job IDs, replicated — not recomputed — by the standby.
	var after sweepProgress
	if code, err := getJSON(sbURL, "/sweeps/"+submitted.ID, &after); err != nil || code != http.StatusOK {
		t.Fatalf("promoted standby GET /sweeps/%s = %d, %v", submitted.ID, code, err)
	}
	if len(after.Jobs) != len(originalIDs) {
		t.Fatalf("promoted sweep has %d jobs, want %d", len(after.Jobs), len(originalIDs))
	}
	for i, id := range originalIDs {
		if after.Jobs[i] != id {
			t.Fatalf("job ID %d drifted across failover: %s -> %s", i, id, after.Jobs[i])
		}
	}

	// The standby finishes the sweep and streams the reassembled document.
	var doc string
	poll("promoted standby to finish the sweep", func() bool {
		resp, err := http.Get(sbURL + "/sweeps/" + submitted.ID + "/result")
		if err != nil {
			return false
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		doc = string(body)
		return true
	})

	// Byte-identical to a clean in-process run of the same sweep.
	sched := lab.NewScheduler(lab.Config{Workers: 2})
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		sched.Shutdown(sctx)
	}()
	var sw lab.Sweep
	if err := json.Unmarshal([]byte(sweepBody), &sw); err != nil {
		t.Fatal(err)
	}
	refJobs, err := sched.SubmitSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range refJobs {
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := lab.AssembleSweep(refJobs)
	if err != nil {
		t.Fatal(err)
	}
	if doc != want {
		t.Errorf("failover sweep document diverges from in-process run (%d vs %d bytes)", len(doc), len(want))
	}

	// The takeover left its structured trail.
	if b, err := os.ReadFile(sbLog); err == nil {
		if !strings.Contains(string(b), "replica: takeover") {
			t.Error("standby log has no replica: takeover line despite a promotion")
		}
	}

	// SIGTERM drains the promoted coordinator cleanly.
	if err := sb.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := sb.cmd.Wait(); err != nil {
		t.Errorf("promoted standby clean shutdown exited non-zero: %v", err)
	}
	sbDone = true
}
