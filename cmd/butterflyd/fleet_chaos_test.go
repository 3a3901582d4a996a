package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab/client"
)

// fleetStatus fetches the coordinator's GET /fleet document.
func fleetStatus(t *testing.T, base string) (core.FleetMetrics, error) {
	t.Helper()
	var m core.FleetMetrics
	resp, err := http.Get(base + "/fleet")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// waitLiveWorkers polls GET /fleet until the coordinator reports n live
// workers.
func waitLiveWorkers(t *testing.T, ctx context.Context, base string, n int) {
	t.Helper()
	for {
		if m, err := fleetStatus(t, base); err == nil && m.LiveWorkers >= n {
			return
		}
		if ctx.Err() != nil {
			t.Fatalf("coordinator never reported %d live workers", n)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitCompleted polls coordinator metrics until at least n jobs completed.
func waitCompleted(t *testing.T, ctx context.Context, c *client.Client, n uint64, what string) {
	t.Helper()
	for {
		m, err := c.Metrics(ctx)
		if err == nil && m.Completed >= n {
			return
		}
		if ctx.Err() != nil {
			t.Fatalf("never reached %d completed jobs before %s", n, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitLogLine polls a daemon's log file until it holds substr.
func waitLogLine(t *testing.T, ctx context.Context, path, substr string) {
	t.Helper()
	for {
		if b, err := os.ReadFile(path); err == nil && strings.Contains(string(b), substr) {
			return
		}
		if ctx.Err() != nil {
			t.Fatalf("%s never logged %q", path, substr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFleetChaos is the fleet's version of TestCrashRecovery: a
// registry-wide sweep runs across a coordinator and three workers; one
// worker is SIGKILLed mid-sweep, then the coordinator itself is SIGKILLed
// and restarted on the same journal directory (and the same address, which
// is fleet configuration — workers keep heartbeating it). Every job must
// complete under its original ID with output byte-identical to the
// sequential in-process driver.
func TestFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	bin := buildDaemon(t)
	stateDir := t.TempDir()
	coordJournal := filepath.Join(stateDir, "coord-journal")
	coordCache := filepath.Join(stateDir, "coord-cache")
	coordLog := filepath.Join(stateDir, "coordinator.log")

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	coordAddr := freeAddr(t)
	coordURL := "http://" + coordAddr
	coord := startDaemon(t, bin, coordAddr, coordJournal, coordCache, coordLog,
		"-role", "coordinator", "-dead-after", "2s", "-workers", "8")
	coordKilled := false
	defer func() {
		if !coordKilled {
			coord.cmd.Process.Kill()
			coord.cmd.Wait()
		}
	}()

	// Three workers, volatile (no journal): their durability is the fleet's
	// problem, which is the point of the exercise.
	workers := make([]*daemon, 3)
	for i := range workers {
		addr := freeAddr(t)
		logPath := filepath.Join(stateDir, "worker"+string(rune('A'+i))+".log")
		workers[i] = startDaemon(t, bin, addr,
			filepath.Join(stateDir, "unused-journal"), filepath.Join(stateDir, "wcache"+string(rune('A'+i))), logPath,
			"-role", "worker", "-join", coordURL, "-heartbeat", "250ms")
	}
	workerKilled := false
	defer func() {
		for i, w := range workers {
			if i == 1 && workerKilled {
				continue
			}
			w.cmd.Process.Signal(syscall.SIGTERM)
		}
		for i, w := range workers {
			if i == 1 && workerKilled {
				continue
			}
			w.cmd.Wait()
			if t.Failed() {
				w.dumpLog(t)
			}
		}
	}()
	dumpOnFail := func(d *daemon) {
		if t.Failed() {
			d.dumpLog(t)
		}
	}
	defer dumpOnFail(coord)

	c := client.New(coordURL)
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("coordinator never ready: %v", err)
	}
	waitLiveWorkers(t, ctx, coordURL, 3)

	// Submit the full registry as quick specs through the coordinator.
	specs := make([]core.Spec, 0)
	for _, e := range core.Experiments() {
		specs = append(specs, core.Spec{Experiment: e.ID, Quick: true})
	}
	ids := make([]string, len(specs))
	fps := make([]string, len(specs))
	for i, spec := range specs {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Experiment, err)
		}
		ids[i] = st.ID
		fps[i] = st.Fingerprint
	}

	// Mid-sweep, SIGKILL one worker. Its in-flight jobs must be reassigned
	// to the surviving ring nodes.
	waitCompleted(t, ctx, c, 3, "worker kill")
	if err := workers[1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	workers[1].cmd.Wait()
	workerKilled = true

	// A little deeper in, SIGKILL the coordinator itself — once it has
	// logged the worker's death. Nothing else will: membership is not
	// journaled, and the dead worker never heartbeats the restarted one.
	waitCompleted(t, ctx, c, 6, "coordinator kill")
	waitLogLine(t, ctx, coordLog, "fleet: worker-down")
	if m, err := c.Metrics(ctx); err == nil {
		t.Logf("killing the coordinator with %d of %d jobs completed", m.Completed, len(specs))
	}
	if err := coord.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	coord.cmd.Wait()
	coordKilled = true

	// Restart it on the same journal, cache, and address. The journal
	// replays job state; the ring starts empty and fills as the two
	// surviving workers' heartbeats arrive (the dead one never does);
	// requeued jobs wait for it, then re-dispatch under their original IDs.
	restarted := time.Now()
	coord2 := startDaemon(t, bin, coordAddr, coordJournal, coordCache, coordLog,
		"-role", "coordinator", "-dead-after", "2s", "-workers", "8")
	coord2Done := false
	defer func() {
		if !coord2Done {
			coord2.cmd.Process.Kill()
			coord2.cmd.Wait()
		}
	}()
	defer dumpOnFail(coord2)

	c2 := client.New(coordURL)
	if err := c2.WaitReady(ctx); err != nil {
		t.Fatalf("restarted coordinator never ready: %v", err)
	}
	ready := time.Now()
	waitLiveWorkers(t, ctx, coordURL, 2)
	t.Logf("ring refill: restarted coordinator ready %v after launch, both survivors live %v after ready (heartbeat 250ms)",
		ready.Sub(restarted).Round(time.Millisecond), time.Since(ready).Round(time.Millisecond))

	// Every pre-crash job completes, byte-identical to the quick golden,
	// under the fingerprint it was submitted with.
	clean := goldenTables(t)
	for i, id := range ids {
		res, err := c2.WaitResult(ctx, id)
		if err != nil {
			t.Fatalf("job %s (%s) after fleet chaos: %v", id, specs[i].Experiment, err)
		}
		if res.Table != clean[specs[i].Experiment] {
			t.Errorf("experiment %s: fleet table diverges from quick.golden", specs[i].Experiment)
		}
		if res.Fingerprint != fps[i] {
			t.Errorf("experiment %s: fingerprint drifted across the fleet (%s -> %s)",
				specs[i].Experiment, fps[i], res.Fingerprint)
		}
	}

	// The restarted coordinator sees exactly the two survivors.
	waitLiveWorkers(t, ctx, coordURL, 2)
	if m, err := fleetStatus(t, coordURL); err != nil || m.LiveWorkers != 2 {
		t.Errorf("fleet status after chaos = %+v (err %v), want 2 live workers", m, err)
	}

	// SIGTERM drains the restarted coordinator cleanly.
	if err := coord2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := coord2.cmd.Wait(); err != nil {
		t.Errorf("coordinator clean shutdown exited non-zero: %v", err)
	}
	coord2Done = true
}
