package lab

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/fault"
	"butterfly/internal/machine"
	"butterfly/internal/probe"
	"butterfly/internal/sim"
	"butterfly/internal/workload"
)

// Execution errors, classified so retry policy can reuse the fault
// taxonomy: timeouts are the one wall-clock-dependent (hence retryable)
// failure; everything a deterministic simulation produces — including
// injected *fault.RefError terminations surfacing as experiment errors —
// would recur identically on a retry and is therefore permanent.
var (
	// ErrTimeout marks a job whose wall-clock budget expired; its engines
	// were interrupted mid-run.
	ErrTimeout = errors.New("lab: job timed out")
	// ErrCanceled marks a job canceled by the submitter, either while
	// queued or mid-run.
	ErrCanceled = errors.New("lab: job canceled")
)

// executeOnce runs one attempt of the spec on the calling goroutine. It is
// the one place a spec becomes a configured run: machine-config transform,
// fault injector, probe, and workload scope. The worker must be the only
// user of machine.ScopeHooks on this goroutine. Tables go to a private
// buffer and probe reports to the result, so concurrent jobs never
// interleave output. Every observer sees every machine after the lab's own
// hooks have armed it. The attempt stops when ctx ends or the spec's
// timeout expires: every engine it has booted, and every one it boots
// after that, is interrupted, and the error is the context's cause.
func executeOnce(ctx context.Context, exp core.Experiment, spec core.Spec, observe []func(*machine.Machine)) (res *core.Result, err error) {
	faultCfg, err := spec.FaultConfig()
	if err != nil {
		return nil, err
	}
	inject := faultCfg.Enabled() && !exp.ManagesFaults
	if spec.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, time.Duration(spec.TimeoutMs)*time.Millisecond, ErrTimeout)
		defer cancel()
	}

	type probedMachine struct {
		m  *machine.Machine
		pr *probe.Probe
	}
	var engines []*sim.Engine
	var probed []probedMachine
	var stops []func() bool
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	// The workload directive rides a goroutine scope, like the machine
	// hooks: two lab workers can run different workloads concurrently.
	wlRelease := workload.Scope(spec.Workload)
	defer wlRelease()
	release := machine.ScopeHooks(spec.ConfigTransform(), func(m *machine.Machine) {
		// Engines run by the lab trap process panics: a hostile or
		// out-of-range spec fails the job, not the daemon.
		m.E.TrapPanics()
		stops = append(stops, context.AfterFunc(ctx, m.E.Interrupt))
		engines = append(engines, m.E)
		if inject {
			m.AttachFaults(fault.NewInjector(*faultCfg))
		}
		if spec.Probe {
			pr := probe.New(nil)
			m.AttachProbe(pr)
			probed = append(probed, probedMachine{m: m, pr: pr})
		}
		for _, fn := range observe {
			fn(m)
		}
	})
	defer release()
	defer func() {
		// An experiment that panics on the worker goroutine (e.g. a machine
		// override out of an experiment's tolerated range) fails the job,
		// not the service.
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("lab: experiment %s panicked: %v", spec.Experiment, r)
		}
	}()

	var table bytes.Buffer
	start := time.Now()
	runErr := exp.Run(&table, spec.Quick)
	wall := time.Since(start)

	if runErr != nil && ctx.Err() != nil {
		// The run was torn down from outside; the partial table is garbage.
		return nil, context.Cause(ctx)
	}
	if runErr != nil {
		return nil, runErr
	}

	res = &core.Result{
		Spec:     spec,
		Table:    table.String(),
		Machines: len(engines),
		WallNs:   wall.Nanoseconds(),
	}
	for _, e := range engines {
		res.VTimeNs += e.Now()
		res.Events += e.Stats().Events
	}
	if spec.Probe {
		var rep strings.Builder
		for i, pm := range probed {
			fmt.Fprintf(&rep, "[probe] %s machine %d/%d\n", spec.Experiment, i+1, len(probed))
			pm.pr.Metrics().WriteReport(&rep, pm.m.E.Now(), 8)
			rep.WriteString("\n")
		}
		res.ProbeReport = rep.String()
	}
	return res, nil
}

// runSpec executes a validated spec with its retry/timeout policy and
// returns the finished result (Attempts set) or the final error. When ctx
// ends, the running attempt is interrupted and runSpec returns ctx's cause.
// The observers see every machine of every attempt (see executeOnce).
func runSpec(ctx context.Context, spec core.Spec, observe []func(*machine.Machine)) (*core.Result, error) {
	exp, ok := core.Lookup(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("lab: unknown experiment %q", spec.Experiment)
	}
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		res, err := executeOnce(ctx, exp, spec, observe)
		if err == nil {
			res.Attempts = attempt
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		if !errors.Is(err, ErrTimeout) || attempt > spec.Retries {
			return nil, fmt.Errorf("attempt %d: %w", attempt, err)
		}
	}
}

// RunSpec executes one spec synchronously on the calling goroutine, outside
// any scheduler — butterflybench's in-process backend runs every experiment
// through it. The spec is validated first. Each observer sees every machine
// the run builds, after the lab has attached the spec's faults and probe;
// the CLI reads per-engine counters for -timing (parks, windows, barrier
// time, per-partition compute) and redirects -trace-out's probe event
// streams through it.
func RunSpec(spec core.Spec, observe ...func(*machine.Machine)) (*core.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res, err := runSpec(context.Background(), spec, observe)
	if err != nil {
		return nil, err
	}
	res.Fingerprint = Fingerprint(spec)
	return res, nil
}
