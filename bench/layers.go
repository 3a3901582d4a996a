package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/lab"
	"butterfly/internal/machine"
	"butterfly/internal/sim"
	"butterfly/internal/switchnet"
)

// measureLayers times single calls into each layer's public API, alone, on
// this host: engine handoff and Charge, a remote reference and a calendar
// sweep, a switch transit, journal appends, cache writes and reads, one
// small simulation, and one loopback HTTP round trip. Every traced run
// measures all of them, whatever its workload, so they read as the layers'
// unit costs next to that workload's attribution; the job-path stage
// estimates multiply them by the calls a job makes.
func measureLayers(r *run) error {
	scale := 1
	if r.smoke {
		scale = 50
	}
	n := func(x int) int { return max(x/scale, 1) }
	dir := filepath.Join(r.dir, "layers")
	j, err := lab.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	cache := lab.OpenCache(filepath.Join(dir, "cache"))
	proto, err := lab.RunSpec(core.Spec{Experiment: "numa", Quick: true})
	if err != nil {
		return err
	}
	seq := 0
	nodes := 0
	var started []string
	// startJobs journals calls submitted-and-started jobs, untimed, for the
	// terminal-append batch to finish.
	startJobs := func(calls int) error {
		started = started[:0]
		for k := 0; k < calls; k++ {
			seq++
			id := fmt.Sprintf("j%06d", seq)
			spec := core.Spec{Experiment: "numa", Quick: true, Nodes: 16 + seq%1024}
			if err := j.Submitted(id, seq, spec, lab.Fingerprint(spec)); err != nil {
				return err
			}
			if err := j.Started(id); err != nil {
				return err
			}
			started = append(started, id)
		}
		return nil
	}

	micros := []struct {
		name    string
		scale   float64 // nanoseconds per reported unit
		calls   int
		prepare func(calls int) error // untimed, before each batch
		fn      func(calls int) error
	}{
		{"sim.handoff_ns", 1, n(20000), nil, func(calls int) error {
			// Two processes on alternating ticks: every Advance hands the
			// engine to the other process's goroutine.
			e := sim.New()
			for i := 0; i < 2; i++ {
				e.Spawn("pingpong", i, func(p *sim.Proc) {
					for k := 0; k < calls/2; k++ {
						p.Advance(10)
					}
				})
			}
			return e.Run()
		}},
		{"sim.charge_ns", 1, n(1000000), nil, func(calls int) error {
			e := sim.New()
			e.Spawn("charger", 0, func(p *sim.Proc) {
				for k := 0; k < calls; k++ {
					p.Charge(10)
				}
			})
			return e.Run()
		}},
		{"machine.remote_read_ns", 1, n(20000), nil, func(calls int) error {
			m := machine.New(machine.DefaultConfig(128))
			m.Spawn("reader", 0, func(p *sim.Proc) {
				for k := 0; k < calls; k++ {
					m.Read(p, 64, 1)
				}
			})
			return m.E.Run()
		}},
		{"machine.sweep_ns", 1, n(2000), nil, func(calls int) error {
			m := machine.New(machine.DefaultConfig(16))
			refs := []machine.Ref{{Node: 1, Words: 1}, {Node: 2, Words: 2}}
			m.Spawn("sweeper", 0, func(p *sim.Proc) {
				for k := 0; k < calls; k++ {
					m.Sweep(p, 64, 1000, refs)
				}
			})
			return m.E.Run()
		}},
		{"switchnet.transit_ns", 1, n(50000), nil, func(calls int) error {
			net := switchnet.New(switchnet.DefaultConfig(256))
			var t int64
			for k := 0; k < calls; k++ {
				src := k % 256
				t = net.Transit(t, src, (src*37+11)%256, 4)
				if k%1024 == 0 {
					net.Prune(t)
				}
			}
			return nil
		}},
		{"lab.journal.append_us", 1e3, n(400), nil, func(calls int) error {
			// Submitted and Started: the records written without fsync.
			return startJobs(calls / 2)
		}},
		{"lab.journal.terminal_append_us", 1e3, n(100), startJobs, func(calls int) error {
			// Finished: the fsynced record.
			for _, id := range started {
				if err := j.Finished(id, core.JobDone, ""); err != nil {
					return err
				}
			}
			return nil
		}},
		{"lab.cache.put_us", 1e3, n(200), nil, func(calls int) error {
			for k := 0; k < calls; k++ {
				nodes++
				res := *proto
				res.Spec.Nodes = nodes
				res.Fingerprint = lab.Fingerprint(res.Spec)
				if err := cache.Put(&res); err != nil {
					return err
				}
			}
			return nil
		}},
		{"lab.cache.get_us", 1e3, n(200), nil, func(calls int) error {
			for k := 0; k < calls; k++ {
				spec := proto.Spec
				spec.Nodes = 1 + k%max(nodes, 1)
				if _, ok := cache.Get(lab.Fingerprint(spec)); !ok {
					return fmt.Errorf("cache miss on a blob just written")
				}
			}
			return nil
		}},
		{"lab.runner.simulate_us", 1e3, n(50), nil, func(calls int) error {
			for k := 0; k < calls; k++ {
				if _, err := lab.RunSpec(core.Spec{Experiment: "numa", Quick: true, Nodes: 16 + k%64}); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, m := range micros {
		v, err := perCall(m.calls, m.prepare, m.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		r.rep.set(m.name, v/m.scale)
	}
	rtt, err := httpRTT(n(400))
	if err != nil {
		return fmt.Errorf("lab.http.rtt_us: %w", err)
	}
	r.rep.set("lab.http.rtt_us", rtt/1e3)
	return nil
}

// batches is how many times each microbenchmark runs; the median batch
// gives the per-call cost.
const batches = 5

// perCall runs fn batches times with calls calls, each batch after an
// untimed prepare when there is one, and returns the median nanoseconds
// per call.
func perCall(calls int, prepare, fn func(calls int) error) (float64, error) {
	var per []float64
	for b := 0; b < batches; b++ {
		if prepare != nil {
			if err := prepare(calls); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := fn(calls); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	_, med, _ := quartiles(per)
	return med, nil
}

// httpRTT is the median nanoseconds of a GET /healthz round trip to a lab
// server on loopback, over one kept-alive connection.
func httpRTT(calls int) (float64, error) {
	ln, url, err := listen()
	if err != nil {
		return 0, err
	}
	web := serve(ln, lab.NewServer(lab.ServerConfig{}))
	defer web.stop()
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	return perCall(calls, nil, func(calls int) error {
		for k := 0; k < calls; k++ {
			resp, err := hc.Get(url + "/healthz")
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil
	})
}
