// Package fault is a deterministic, schedule-driven fault injector for the
// simulated Butterfly. It mirrors internal/probe's integration style: the
// machine layer holds a nil-checked pointer, attached via
// machine.AttachFaults, and every hot-path check is a single pointer test
// when no injector is present.
//
// Three fault classes are modelled, matching the operating reality of the
// real 128-node Butterfly-I (dead nodes configured out by operators, switch
// packets dropped on collision and recovered by PNC retry with randomized
// backoff, and memory parity errors surfacing as Chrysalis exceptions):
//
//   - Node failures at a scheduled virtual time: the node's memory module
//     starts rejecting references and its processes are killed.
//   - Transient switch-packet drops, recovered by bounded randomized
//     retry/backoff; a reference whose retries are exhausted fails.
//   - Memory-module parity errors on individual references.
//
// All randomness is drawn from a single seeded rand.PCG stream in simulation
// dispatch order, so a given (seed, schedule, workload) triple yields a
// bit-identical event sequence — the determinism the golden suite pins.
//
// Failed references surface as a *RefError panic, the software analogue of a
// hardware trap: it implements sim.Terminator, so an unhandled one
// terminates only the raising process. chrysalis.Catch converts RefError
// into a catchable *ThrowError; non-Chrysalis code can use CatchRef.
package fault

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"

	"butterfly/internal/sim"
)

// Kind classifies a reference failure.
type Kind uint8

const (
	// NodeDown: the reference targeted a failed node. Permanent.
	NodeDown Kind = iota
	// PacketLoss: the switch dropped the packet and PNC retry was exhausted.
	PacketLoss
	// Parity: the memory module returned a parity error. Transient.
	Parity
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NodeDown:
		return "node-down"
	case PacketLoss:
		return "packet-loss"
	case Parity:
		return "parity"
	}
	return "unknown"
}

// RefError is the panic value raised when a memory reference fails. It
// implements error and sim.Terminator: a process that does not catch it (via
// chrysalis.Catch or CatchRef) is terminated, the rest of the simulation
// continues.
type RefError struct {
	Kind Kind  // what failed
	Node int   // the node whose memory was targeted
	Time int64 // virtual time of the failure
}

// Error implements the error interface.
func (e *RefError) Error() string {
	return fmt.Sprintf("fault: %s on node %d at t=%dns", e.Kind, e.Node, e.Time)
}

// TerminatesProcess implements sim.Terminator: an uncaught reference fault
// kills only the process that issued the reference.
func (e *RefError) TerminatesProcess() bool { return true }

// CatchRef converts a *RefError panic into an error return. Use as
//
//	func remoteWork() (err error) {
//	    defer fault.CatchRef(&err)
//	    ... remote references ...
//	}
//
// Other panic values propagate unchanged.
func CatchRef(errp *error) {
	switch r := recover().(type) {
	case nil:
	case *RefError:
		*errp = r
	default:
		panic(r)
	}
}

// NodeFailure schedules one node death at a virtual time.
type NodeFailure struct {
	Node int   // node to kill
	At   int64 // virtual time (ns) at which it dies
}

// Config is a complete fault schedule plus the knobs of the retry model.
type Config struct {
	// Seed initialises the PCG stream all probabilistic draws come from.
	Seed uint64
	// Failures lists scheduled node deaths (any order; applied by time).
	Failures []NodeFailure
	// DropProb is the per-reference probability that the switch drops the
	// packet (each retry is a fresh draw). Zero disables drops.
	DropProb float64
	// ParityProb is the per-reference probability of a memory parity error.
	// Zero disables parity faults.
	ParityProb float64
	// MaxRetries bounds PNC retransmissions of a dropped packet before the
	// reference fails with PacketLoss. Defaults to DefaultMaxRetries.
	MaxRetries int
	// BackoffNs is the base randomized-backoff unit between retries.
	// Defaults to DefaultBackoffNs.
	BackoffNs int64
}

// Defaults for the retry model, loosely matching the PNC's bounded
// exponential backoff.
const (
	DefaultMaxRetries = 8
	DefaultBackoffNs  = 10 * sim.Microsecond
)

// normalize fills zero-valued knobs with their defaults.
func (c *Config) normalize() {
	if c.MaxRetries <= 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.BackoffNs <= 0 {
		c.BackoffNs = DefaultBackoffNs
	}
}

// Enabled reports whether the config injects any fault at all.
func (c *Config) Enabled() bool {
	return c != nil && (len(c.Failures) > 0 || c.DropProb > 0 || c.ParityProb > 0)
}

// ParseConfig parses a fault schedule from a -faults flag value. A spec
// starting with '@' names a file to read; otherwise the spec itself is the
// schedule. The format is line-oriented (';' also separates directives, '#'
// starts a comment):
//
//	seed N            # PCG seed (the -fault-seed flag overrides)
//	kill NODE @ TIME  # node NODE dies at virtual time TIME (e.g. 20ms)
//	drop P            # per-reference packet-drop probability
//	parity P          # per-reference parity-error probability
//	retries N         # max PNC retransmissions before a reference fails
//	backoff DUR       # base randomized-backoff unit (e.g. 10us)
//
// Durations accept ns, us, ms and s suffixes (bare numbers are nanoseconds).
func ParseConfig(spec string) (*Config, error) {
	if strings.HasPrefix(spec, "@") {
		b, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("fault schedule: %w", err)
		}
		spec = string(b)
	}
	cfg := &Config{Seed: 1}
	split := func(r rune) bool { return r == ';' || r == '\n' || r == '\r' }
	for _, line := range strings.FieldsFunc(spec, split) {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "seed":
			err = expectArgs(fields, 1, func() error {
				v, e := strconv.ParseUint(fields[1], 10, 64)
				cfg.Seed = v
				return e
			})
		case "kill":
			// "kill N @ DUR" or "kill N DUR"
			args := fields[1:]
			if len(args) == 3 && args[1] == "@" {
				args = []string{args[0], args[2]}
			}
			if len(args) != 2 {
				err = fmt.Errorf("want `kill NODE @ TIME`")
				break
			}
			node, e1 := strconv.Atoi(args[0])
			at, e2 := sim.ParseDuration(args[1])
			if e1 != nil {
				err = e1
			} else if e2 != nil {
				err = e2
			} else if node < 0 {
				err = fmt.Errorf("negative node %d", node)
			} else {
				cfg.Failures = append(cfg.Failures, NodeFailure{Node: node, At: at})
			}
		case "drop":
			err = expectArgs(fields, 1, func() error {
				v, e := parseProb(fields[1])
				cfg.DropProb = v
				return e
			})
		case "parity":
			err = expectArgs(fields, 1, func() error {
				v, e := parseProb(fields[1])
				cfg.ParityProb = v
				return e
			})
		case "retries":
			err = expectArgs(fields, 1, func() error {
				v, e := strconv.Atoi(fields[1])
				cfg.MaxRetries = v
				return e
			})
		case "backoff":
			err = expectArgs(fields, 1, func() error {
				v, e := sim.ParseDuration(fields[1])
				cfg.BackoffNs = v
				return e
			})
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("fault schedule: %q: %v", strings.TrimSpace(line), err)
		}
	}
	cfg.normalize()
	return cfg, nil
}

func expectArgs(fields []string, n int, apply func() error) error {
	if len(fields) != n+1 {
		return fmt.Errorf("want %d argument(s), got %d", n, len(fields)-1)
	}
	return apply()
}

func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("probability %v out of [0,1]", v)
	}
	return v, nil
}

// Stats counts injected faults, for reports and tests.
type Stats struct {
	NodesFailed  int    // scheduled node deaths executed
	Drops        uint64 // packets dropped (each retry that happened)
	Retransmits  uint64 // successful retransmissions after a drop
	DropFailures uint64 // references that exhausted MaxRetries
	ParityErrors uint64 // parity faults raised
}

// Injector holds the runtime state of one machine's fault schedule. Create
// with NewInjector and attach with machine.AttachFaults; all methods are
// called from simulation context (one process at a time), never concurrently.
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	deadAt []int64 // per node: virtual time of death, MaxInt64 while alive
	stats  Stats
	bound  bool
}

// NewInjector creates an injector for the given schedule. The config is
// copied; zero-valued retry knobs get defaults.
func NewInjector(cfg Config) *Injector {
	cfg.normalize()
	return &Injector{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0xb0))}
}

// Config returns the injector's (normalized) schedule.
func (f *Injector) Config() Config { return f.cfg }

// Stats returns a copy of the fault counters.
func (f *Injector) Stats() Stats { return f.stats }

// Bind arms the injector on an engine modelling a machine with the given
// node count: it spawns a daemon process (on node 0, which must never be in
// the kill schedule) that executes each scheduled node failure at its
// virtual time — marking the node dead, invoking onDeath (the machine layer
// fails the node's memory module there), and killing every process bound to
// the node. Bind panics if called twice or if the schedule kills node 0.
func (f *Injector) Bind(e *sim.Engine, nodes int, onDeath func(node int)) {
	if f.bound {
		panic("fault: Injector bound twice")
	}
	f.bound = true
	f.deadAt = make([]int64, nodes)
	for i := range f.deadAt {
		f.deadAt[i] = math.MaxInt64
	}
	failures := make([]NodeFailure, 0, len(f.cfg.Failures))
	for _, nf := range f.cfg.Failures {
		if nf.Node == 0 {
			panic("fault: schedule kills node 0 (the daemon node)")
		}
		if nf.Node >= nodes {
			continue // schedule written for a bigger machine; ignore
		}
		failures = append(failures, nf)
	}
	sort.SliceStable(failures, func(i, j int) bool {
		if failures[i].At != failures[j].At {
			return failures[i].At < failures[j].At
		}
		return failures[i].Node < failures[j].Node
	})
	if len(failures) == 0 {
		return
	}
	e.Spawn("fault-daemon", 0, func(p *sim.Proc) {
		for _, nf := range failures {
			if d := nf.At - p.LocalNow(); d > 0 {
				p.Advance(d)
			}
			f.failNode(e, nf.Node, onDeath)
		}
	})
}

// failNode executes one node death: marks the node's memory dead, notifies
// the machine layer, and kills every live process bound to the node.
func (f *Injector) failNode(e *sim.Engine, node int, onDeath func(int)) {
	if f.deadAt[node] != math.MaxInt64 {
		return // already dead
	}
	f.deadAt[node] = e.Now()
	f.stats.NodesFailed++
	if onDeath != nil {
		onDeath(node)
	}
	for _, p := range e.Procs() {
		if p.Node == node && !p.Done() && p != e.Running() {
			e.Kill(p)
		}
	}
	if pr := e.Probe(); pr != nil {
		pr.Fault(e.Now(), -1, node, "node-down")
	}
}

// NodeDead reports whether node is dead at virtual time now.
func (f *Injector) NodeDead(node int, now int64) bool {
	return f.deadAt != nil && now >= f.deadAt[node]
}

// DropsEnabled reports whether packet-drop injection is active.
func (f *Injector) DropsEnabled() bool { return f.cfg.DropProb > 0 }

// ParityEnabled reports whether parity-error injection is active.
func (f *Injector) ParityEnabled() bool { return f.cfg.ParityProb > 0 }

// PacketAttempts draws the fate of one switch transaction. It returns the
// extra virtual time consumed by retransmissions and backoff, the total
// number of send attempts, and whether the transaction ultimately got
// through (ok=false means MaxRetries were exhausted: raise PacketLoss).
// Backoff is bounded-exponential with a randomized term, after the PNC.
func (f *Injector) PacketAttempts() (extraNs int64, attempts int, ok bool) {
	attempts = 1
	for f.rng.Float64() < f.cfg.DropProb {
		f.stats.Drops++
		if attempts > f.cfg.MaxRetries {
			f.stats.DropFailures++
			return extraNs, attempts, false
		}
		shift := attempts - 1
		if shift > 8 {
			shift = 8
		}
		extraNs += f.cfg.BackoffNs<<shift + f.rng.Int64N(f.cfg.BackoffNs)
		attempts++
		f.stats.Retransmits++
	}
	return extraNs, attempts, true
}

// ParityHit draws whether one memory reference suffers a parity error.
func (f *Injector) ParityHit() bool {
	if f.rng.Float64() < f.cfg.ParityProb {
		f.stats.ParityErrors++
		return true
	}
	return false
}
