package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// rssMB is this process's resident set, in MiB, from /proc/self/statm.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("resident set: short /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// sample calls fn now and every 5 ms after, on its own goroutine, until the
// returned stop function is called; stop waits for the goroutine and
// returns the values and the first error.
func sample(fn func() (float64, error)) (stop func() ([]float64, error)) {
	done := make(chan struct{})
	type result struct {
		xs  []float64
		err error
	}
	out := make(chan result)
	go func() {
		var res result
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			x, err := fn()
			if err == nil {
				res.xs = append(res.xs, x)
			} else if res.err == nil {
				res.err = err
			}
			select {
			case <-done:
				out <- res
				return
			case <-t.C:
			}
		}
	}()
	return func() ([]float64, error) {
		close(done)
		res := <-out
		return res.xs, res.err
	}
}

// host is the metadata every ledger row carries: a wall-clock number means
// nothing without the machine that produced it.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	FSType     string `json:"fs_type"`
}

// hostInfo describes this host; dir names the filesystem the run wrote to.
func hostInfo(dir string) host {
	return host{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FSType:     fsType(dir),
	}
}

// fsType finds the type of the filesystem holding dir in /proc/mounts (the
// longest mount point that prefixes it), or "unknown".
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}
