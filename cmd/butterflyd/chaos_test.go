package main

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab/client"
)

// buildDaemon compiles butterflyd once into a temp dir and returns the
// binary path.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "butterflyd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for the daemon to take.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// goldenTables reads each experiment's quick-scale table, keyed by id, from
// the module's testdata/quick.golden: what a clean run of the registry prints.
func goldenTables(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[string]string)
	for _, sec := range strings.Split(string(b), "\n===== ")[1:] {
		id, _, _ := strings.Cut(sec, ":")
		_, tables[id], _ = strings.Cut(sec, "\n\n")
	}
	return tables
}

// daemon wraps one butterflyd subprocess and its log capture.
type daemon struct {
	cmd     *exec.Cmd
	logPath string
}

// startDaemon launches butterflyd on addr with the given state directories.
// Extra flags are appended last, so they override the defaults (Go's flag
// package keeps the final occurrence).
func startDaemon(t *testing.T, bin, addr, journalDir, cacheDir, logPath string, extra ...string) *daemon {
	t.Helper()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-addr", addr,
		"-journal-dir", journalDir,
		"-cache-dir", cacheDir,
		"-workers", "2",
		"-queue", "64",
		"-drain-timeout", "30s",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("start butterflyd: %v", err)
	}
	logf.Close() // the child holds its own descriptor
	return &daemon{cmd: cmd, logPath: logPath}
}

// dumpLog attaches the daemon's log to the test output on failure.
func (d *daemon) dumpLog(t *testing.T) {
	t.Helper()
	if b, err := os.ReadFile(d.logPath); err == nil && len(b) > 0 {
		t.Logf("butterflyd log:\n%s", b)
	}
}

// TestCrashRecovery is the chaos scenario the journal exists for: kill the
// daemon with SIGKILL mid-batch, restart it on the same journal and cache
// directories, and require every submitted job to complete with results
// byte-identical to a clean run (the quick golden).
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	bin := buildDaemon(t)
	stateDir := t.TempDir()
	journalDir := filepath.Join(stateDir, "journal")
	cacheDir := filepath.Join(stateDir, "cache")
	logPath := filepath.Join(stateDir, "butterflyd.log")

	addr := freeAddr(t)
	d := startDaemon(t, bin, addr, journalDir, cacheDir, logPath)
	defer func() {
		if t.Failed() {
			d.dumpLog(t)
		}
	}()
	killed := false
	defer func() {
		if !killed {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	}()

	c := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("daemon never ready: %v", err)
	}

	// Submit the full registry as quick specs.
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

	// Let the batch get partway through, then pull the plug.
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if m.Completed >= 2 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("daemon never completed 2 jobs before kill deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no Close
		t.Fatal(err)
	}
	d.cmd.Wait()
	killed = true

	// Restart on the same journal and cache. A different port proves
	// recovery depends only on the on-disk state.
	addr2 := freeAddr(t)
	d2 := startDaemon(t, bin, addr2, journalDir, cacheDir, logPath)
	defer func() {
		if t.Failed() {
			d2.dumpLog(t)
		}
	}()
	terminated := false
	defer func() {
		if !terminated {
			d2.cmd.Process.Kill()
			d2.cmd.Wait()
		}
	}()

	c2 := client.New("http://" + addr2)
	if err := c2.WaitReady(ctx); err != nil {
		t.Fatalf("restarted daemon never ready: %v", err)
	}

	// Every pre-crash job must reach done on the restarted daemon — the
	// journal preserved IDs, the cache or a deterministic re-run supplies
	// results.
	clean := goldenTables(t)
	for i, id := range ids {
		res, err := c2.WaitResult(ctx, id)
		if err != nil {
			t.Fatalf("job %s (%s) after restart: %v", id, specs[i].Experiment, err)
		}
		if res.Table != clean[specs[i].Experiment] {
			t.Errorf("experiment %s: recovered table diverges from clean run", specs[i].Experiment)
		}
		// The fingerprint the restarted daemon reports must be the one the
		// job was submitted under — recovery preserves identity. (It is NOT
		// comparable to this test binary's lab.Fingerprint: the code-version
		// salt differs between a VCS-stamped daemon build and a test build.)
		if res.Fingerprint != fps[i] {
			t.Errorf("experiment %s: fingerprint drifted across restart (%s -> %s)",
				specs[i].Experiment, fps[i], res.Fingerprint)
		}
	}

	// SIGTERM drains cleanly: exit status 0.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Wait(); err != nil {
		t.Errorf("clean shutdown exited non-zero: %v", err)
	}
	terminated = true
}

// TestDaemonBackpressureSmoke floods a small daemon queue well past
// capacity and requires the overflow to be sheddable load: immediate 429 +
// Retry-After at the raw HTTP level, full completion through the retrying
// client.
func TestDaemonBackpressureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test skipped in -short mode")
	}
	bin := buildDaemon(t)
	stateDir := t.TempDir()
	logPath := filepath.Join(stateDir, "butterflyd.log")
	addr := freeAddr(t)

	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-journal-dir", filepath.Join(stateDir, "journal"),
		"-cache-dir", filepath.Join(stateDir, "cache"),
		"-workers", "1",
		"-queue", "2",
	)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logf.Close()
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			if b, err := os.ReadFile(logPath); err == nil {
				t.Logf("butterflyd log:\n%s", b)
			}
		}
	}()

	c := client.New("http://" + addr)
	c.MaxAttempts = 60
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("daemon never ready: %v", err)
	}

	// 4x queue capacity of distinct long-enough jobs, submitted through the
	// retrying client: all must eventually land.
	const burst = 8 // 4x the -queue 2 capacity
	ids := make([]string, burst)
	for i := 0; i < burst; i++ {
		spec := core.Spec{Experiment: "numa", Quick: true, Nodes: 16 * (i + 1)}
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		if _, err := c.WaitResult(ctx, id); err != nil {
			t.Errorf("burst job %d: %v", i, err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != burst {
		t.Errorf("completed %d of %d burst jobs", m.Completed, burst)
	}
}
