package lab

import (
	"fmt"
	"strconv"
	"strings"

	"butterfly/internal/core"
)

// Axis is one dimension of a parameter sweep: a spec field and the values
// it takes. Values are strings so a grid serializes naturally; numeric
// fields additionally accept range shorthand:
//
//	"8..12"      → 8 9 10 11 12
//	"8..64:+8"   → 8 16 24 ... 64   (additive step)
//	"8..128:*2"  → 8 16 32 64 128   (multiplicative step, Gustafson-style
//	                                  P sweeps)
type Axis struct {
	// Field is the spec field to vary: "experiment", "quick", "preset",
	// "nodes", "topology", or "fault_seed".
	Field string `json:"field"`
	// Values are the points along this axis, in order.
	Values []string `json:"values"`
}

// Sweep expands a base spec across a grid of axis values into independent
// jobs. Expansion is row-major — the last axis varies fastest — and the
// per-point results reassemble in exactly that order, so a sweep's table is
// deterministic no matter how the points were scheduled.
type Sweep struct {
	Base core.Spec `json:"base"`
	Axes []Axis    `json:"axes"`
}

// sweepFields maps axis names to spec-field setters.
var sweepFields = map[string]func(*core.Spec, string) error{
	"experiment": func(s *core.Spec, v string) error {
		s.Experiment = v
		return nil
	},
	"quick": func(s *core.Spec, v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("quick value %q: %w", v, err)
		}
		s.Quick = b
		return nil
	},
	"preset": func(s *core.Spec, v string) error {
		s.Preset = v
		return nil
	},
	"nodes": func(s *core.Spec, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("nodes value %q: %w", v, err)
		}
		s.Nodes = n
		return nil
	},
	"topology": func(s *core.Spec, v string) error {
		s.Topology = v
		return nil
	},
	"fault_seed": func(s *core.Spec, v string) error {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("fault_seed value %q: %w", v, err)
		}
		s.FaultSeed = &n
		return nil
	},
}

// expandValues resolves range shorthand in an axis's value list.
func expandValues(vals []string) ([]string, error) {
	var out []string
	for _, v := range vals {
		lo, hi, step, mul, isRange, err := parseRange(v)
		if err != nil {
			return nil, err
		}
		if !isRange {
			out = append(out, v)
			continue
		}
		for x := lo; x <= hi; {
			out = append(out, strconv.FormatInt(x, 10))
			if mul {
				x *= step
			} else {
				x += step
			}
		}
	}
	return out, nil
}

// parseRange recognizes "lo..hi", "lo..hi:+k", and "lo..hi:*k".
func parseRange(v string) (lo, hi, step int64, mul, isRange bool, err error) {
	body, stepPart, hasStep := strings.Cut(v, ":")
	loS, hiS, ok := strings.Cut(body, "..")
	if !ok {
		return 0, 0, 0, false, false, nil
	}
	lo, err1 := strconv.ParseInt(loS, 10, 64)
	hi, err2 := strconv.ParseInt(hiS, 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, 0, false, false, nil // not a range; treat as literal
	}
	step = 1
	if hasStep {
		switch {
		case strings.HasPrefix(stepPart, "*"):
			mul = true
			step, err = strconv.ParseInt(stepPart[1:], 10, 64)
		case strings.HasPrefix(stepPart, "+"):
			step, err = strconv.ParseInt(stepPart[1:], 10, 64)
		default:
			step, err = strconv.ParseInt(stepPart, 10, 64)
		}
		if err != nil {
			return 0, 0, 0, false, false, fmt.Errorf("lab: bad range step in %q", v)
		}
	}
	if lo > hi || step <= 0 || (mul && (step < 2 || lo < 1)) {
		return 0, 0, 0, false, false, fmt.Errorf("lab: bad range %q", v)
	}
	return lo, hi, step, mul, true, nil
}

// Expand materializes the grid into validated specs in row-major order.
func (sw Sweep) Expand() ([]core.Spec, error) {
	if len(sw.Axes) == 0 {
		if err := sw.Base.Validate(); err != nil {
			return nil, err
		}
		return []core.Spec{sw.Base}, nil
	}
	expanded := make([][]string, len(sw.Axes))
	for i, ax := range sw.Axes {
		if _, ok := sweepFields[ax.Field]; !ok {
			return nil, fmt.Errorf("lab: unknown sweep axis %q", ax.Field)
		}
		vals, err := expandValues(ax.Values)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("lab: sweep axis %q has no values", ax.Field)
		}
		expanded[i] = vals
	}
	specs := []core.Spec{sw.Base}
	for i, ax := range sw.Axes {
		next := make([]core.Spec, 0, len(specs)*len(expanded[i]))
		for _, base := range specs {
			for _, v := range expanded[i] {
				sp := base
				if err := sweepFields[ax.Field](&sp, v); err != nil {
					return nil, fmt.Errorf("lab: axis %q: %w", ax.Field, err)
				}
				next = append(next, sp)
			}
		}
		specs = next
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("lab: sweep point %d: %w", i, err)
		}
	}
	return specs, nil
}

// SubmitSweep expands the sweep and submits every point, returning the jobs
// in grid order. Validation is all-or-nothing: nothing is submitted unless
// the whole grid expands cleanly (individual submissions can still fail on
// a full queue, in which case the already-submitted prefix keeps running
// and the error reports how far submission got).
func (s *Scheduler) SubmitSweep(sw Sweep) ([]*Job, error) {
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	jobs := make([]*Job, 0, len(specs))
	for i, sp := range specs {
		j, err := s.Submit(sp)
		if err != nil {
			return jobs, fmt.Errorf("lab: sweep point %d/%d: %w", i+1, len(specs), err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// SubmitSweepTracked submits the sweep and records its identity — a sweep
// ID bound to the grid-ordered job IDs — in the journal (when one is
// configured; POST /sweeps answers once the record is on disk). The identity is what lets GET /sweeps/{id}/result stream
// the reassembled document later, from this process or from a standby that
// replicated the journal and took over. Partial submissions (queue filled
// mid-sweep) get no identity: the submitted prefix keeps running as plain
// jobs and the client resubmits the sweep when admission reopens —
// idempotent, since every point is content-addressed.
func (s *Scheduler) SubmitSweepTracked(sw Sweep) (string, []*Job, error) {
	jobs, err := s.SubmitSweep(sw)
	if err != nil {
		return "", jobs, err
	}
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	s.mu.Lock()
	s.sweepSeq++
	id := fmt.Sprintf("s%04d", s.sweepSeq)
	rec := core.SweepRecord{SweepID: id, JobIDs: ids}
	if s.journal != nil {
		if jerr := s.journal.SweepSubmitted(id, ids); jerr != nil {
			// The jobs are durable and running; only the sweep grouping was
			// lost. Hand the jobs back without an ID rather than failing
			// work that is already in flight.
			s.sweepSeq--
			s.mu.Unlock()
			return "", jobs, nil
		}
	}
	s.sweeps[id] = rec
	s.mu.Unlock()
	return id, jobs, nil
}

// Sweep returns a tracked sweep's identity record.
func (s *Scheduler) Sweep(id string) (core.SweepRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.sweeps[id]
	return rec, ok
}

// AssembleSweep waits for a sweep's jobs and reassembles their tables into
// one document in grid order, each point introduced by a header naming the
// varied fields. The per-point results carry their own structured data;
// this is the human-readable composite.
func AssembleSweep(jobs []*Job) (string, error) {
	results, err := WaitAll(jobs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "--- point %d/%d: %s ---\n", i+1, len(results), describeSpec(r.Spec))
		b.WriteString(r.Table)
		if !strings.HasSuffix(r.Table, "\n") {
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

// DescribeSpec renders the spec fields a sweep can vary, compactly — the
// per-point header text both AssembleSweep and the streaming reassembly
// endpoint emit, exported so tests can construct expected documents.
func DescribeSpec(sp core.Spec) string { return describeSpec(sp) }

// describeSpec renders the spec fields a sweep can vary, compactly.
func describeSpec(sp core.Spec) string {
	parts := []string{sp.Experiment}
	if sp.Quick {
		parts = append(parts, "quick")
	}
	if sp.Preset != "" {
		parts = append(parts, "preset="+sp.Preset)
	}
	if sp.Nodes > 0 {
		parts = append(parts, fmt.Sprintf("nodes=%d", sp.Nodes))
	}
	if sp.Topology != "" {
		parts = append(parts, "topology="+sp.Topology)
	}
	if sp.FaultSeed != nil {
		parts = append(parts, fmt.Sprintf("fault_seed=%d", *sp.FaultSeed))
	}
	return strings.Join(parts, " ")
}
