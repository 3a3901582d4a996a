// Package workload generates deterministic open-loop request traffic for
// the Butterfly services: arrival streams (Poisson, bursty/MMPP, diurnal
// ramp) drawn from a seeded PCG so the same config always yields the same
// byte-identical stream, service adapters that inject those arrivals into
// the existing runtimes (Lynx RPC echo, Uniform System task generator, the
// hot-spot shared counter), and directive-string configuration in the
// internal/fault grammar so a workload travels through core.Spec, the lab
// cache fingerprint, and `butterflybench -workload` as one string.
//
// Open-loop is the load model that matters for a service: arrivals are
// scheduled by the generator's clock, not gated on previous completions,
// so a saturated server faces a growing backlog exactly as a production
// fleet would — and latency is measured from the *scheduled* arrival time,
// which makes the numbers immune to coordinated omission. Because arrival
// times are virtual nanoseconds inside the simulation, the whole stochastic
// apparatus stays deterministic: the generator's PCG stream is part of the
// experiment's physics, not of the host's entropy.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"butterfly/internal/sim"
)

// Pattern selects the arrival process.
type Pattern string

// Arrival patterns.
const (
	// Poisson: exponential i.i.d. gaps at Rate — the memoryless baseline.
	Poisson Pattern = "poisson"
	// Bursty: a two-state MMPP alternating between Rate (calm) and
	// BurstRate (burst) with exponentially distributed dwell times.
	Bursty Pattern = "bursty"
	// Diurnal: a Poisson process thinned against a triangular rate profile
	// ramping 0.25x -> 1.75x Rate and back over the duration (mean 1.0x) —
	// a day of traffic compressed into the run.
	Diurnal Pattern = "diurnal"
)

// Config describes one workload. The zero value is not runnable; start
// from Default and overlay directives with Parse.
type Config struct {
	// Pattern is the arrival process.
	Pattern Pattern
	// Rate is the offered load in requests per second of virtual time
	// (the calm-state rate for Bursty, the mean rate for Diurnal).
	Rate float64
	// BurstRate is the burst-state rate for Bursty (default 4x Rate).
	BurstRate float64
	// BurstDwellNs / CalmDwellNs are the mean state dwell times for Bursty.
	BurstDwellNs int64
	CalmDwellNs  int64
	// Seed seeds the PCG behind every probabilistic draw.
	Seed uint64
	// DurationNs is the traffic horizon: no arrivals at or beyond it.
	DurationNs int64
	// Sources is how many injector processes split the stream (round-robin
	// by arrival index).
	Sources int
	// Servers is how many server processes the adapter provisions (where
	// the service has that degree of freedom).
	Servers int
	// WindowNs is the SLO reporting/verdict window width.
	WindowNs int64
	// Detail switches the experiment output from the summary block to the
	// full per-window SLO table.
	Detail bool
}

// Default is the baseline workload every experiment starts from.
func Default() Config {
	return Config{
		Pattern:      Poisson,
		Rate:         4000,
		BurstDwellNs: 5_000_000,  // 5 ms
		CalmDwellNs:  15_000_000, // 15 ms
		Seed:         1,
		DurationNs:   80_000_000, // 80 ms
		Sources:      2,
		Servers:      4,
		WindowNs:     10_000_000, // 10 ms
	}
}

// Validate rejects configs the generators cannot honor.
func (c Config) Validate() error {
	switch c.Pattern {
	case Poisson, Bursty, Diurnal:
	default:
		return fmt.Errorf("workload: unknown pattern %q (valid: poisson, bursty, diurnal)", c.Pattern)
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("workload: rate must be > 0, got %v", c.Rate)
	}
	if c.Pattern == Bursty {
		if !(c.BurstRate >= 0) {
			return fmt.Errorf("workload: burst-rate must be >= 0, got %v", c.BurstRate)
		}
		if c.BurstDwellNs <= 0 || c.CalmDwellNs <= 0 {
			return fmt.Errorf("workload: bursty needs positive burst-dwell and calm-dwell")
		}
	}
	if c.DurationNs <= 0 {
		return fmt.Errorf("workload: duration must be > 0, got %dns", c.DurationNs)
	}
	if c.Sources <= 0 {
		return fmt.Errorf("workload: sources must be > 0, got %d", c.Sources)
	}
	if c.Servers <= 0 {
		return fmt.Errorf("workload: servers must be > 0, got %d", c.Servers)
	}
	if c.WindowNs <= 0 {
		return fmt.Errorf("workload: window must be > 0, got %dns", c.WindowNs)
	}
	return nil
}

// Parse overlays a directive string onto base, in the internal/fault
// grammar: directives separated by ';' or newlines, '#' comments, e.g.
//
//	"pattern bursty; rate 6000; burst-rate 24000; seed 7; duration 60ms"
//
// Directives: pattern P, rate R, burst-rate R, burst-dwell DUR,
// calm-dwell DUR, seed N, duration DUR, sources N, servers N, window DUR,
// detail. Durations accept ns/us/ms/s suffixes (bare numbers are
// nanoseconds).
func Parse(spec string, base Config) (Config, error) {
	c := base
	for _, raw := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == '\n' }) {
		if i := strings.IndexByte(raw, '#'); i >= 0 {
			raw = raw[:i]
		}
		d := strings.TrimSpace(raw)
		if d == "" {
			continue
		}
		fields := strings.Fields(d)
		key := fields[0]
		arg := func() (string, error) {
			if len(fields) != 2 {
				return "", fmt.Errorf("workload: directive %q wants exactly one argument", d)
			}
			return fields[1], nil
		}
		var err error
		switch key {
		case "pattern":
			var a string
			if a, err = arg(); err == nil {
				c.Pattern = Pattern(a)
			}
		case "rate":
			err = parseFloat(arg, &c.Rate)
		case "burst-rate":
			err = parseFloat(arg, &c.BurstRate)
		case "burst-dwell":
			err = parseDur(arg, &c.BurstDwellNs)
		case "calm-dwell":
			err = parseDur(arg, &c.CalmDwellNs)
		case "seed":
			var a string
			if a, err = arg(); err == nil {
				c.Seed, err = strconv.ParseUint(a, 10, 64)
			}
		case "duration":
			err = parseDur(arg, &c.DurationNs)
		case "sources":
			err = parseInt(arg, &c.Sources)
		case "servers":
			err = parseInt(arg, &c.Servers)
		case "window":
			err = parseDur(arg, &c.WindowNs)
		case "detail":
			if len(fields) != 1 {
				err = fmt.Errorf("workload: directive %q takes no argument", key)
			}
			c.Detail = true
		default:
			err = fmt.Errorf("workload: unknown directive %q", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func parseFloat(arg func() (string, error), dst *float64) error {
	a, err := arg()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(a, 64)
	if err != nil {
		return fmt.Errorf("workload: bad number %q", a)
	}
	*dst = v
	return nil
}

func parseInt(arg func() (string, error), dst *int) error {
	a, err := arg()
	if err != nil {
		return err
	}
	v, err := strconv.Atoi(a)
	if err != nil {
		return fmt.Errorf("workload: bad integer %q", a)
	}
	*dst = v
	return nil
}

func parseDur(arg func() (string, error), dst *int64) error {
	a, err := arg()
	if err != nil {
		return err
	}
	v, err := sim.ParseDuration(a)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	*dst = v
	return nil
}

// pcgStream distinguishes the workload's PCG stream from other seeded
// consumers (the fault injector seeds its own); same spirit as a hash
// domain separator.
const pcgStream = 0x42464C59 // "BFLY"

// Arrivals materializes the config's full arrival stream: absolute,
// nondecreasing virtual-nanosecond timestamps in [0, DurationNs). The
// stream is a pure function of the config — same seed, same pattern, same
// rates, byte-identical stream — which is the determinism argument for the
// whole subsystem: randomness lives in the spec, not in the host.
func (c Config) Arrivals() []int64 {
	rng := rand.New(rand.NewPCG(c.Seed, pcgStream))
	est := int(c.Rate*float64(c.DurationNs)/1e9 + 16)
	out := make([]int64, 0, est)
	switch c.Pattern {
	case Bursty:
		burst := c.BurstRate
		if burst <= 0 {
			burst = 4 * c.Rate
		}
		now, stateEnd := int64(0), expDraw(rng, float64(c.CalmDwellNs))
		inBurst := false
		for now < c.DurationNs {
			rate := c.Rate
			if inBurst {
				rate = burst
			}
			now += expGap(rng, rate)
			// Crossing a state boundary flips the state and redraws the
			// dwell; the pending gap is kept (a small approximation that
			// preserves one-draw-per-arrival determinism).
			for now >= stateEnd {
				inBurst = !inBurst
				mean := float64(c.CalmDwellNs)
				if inBurst {
					mean = float64(c.BurstDwellNs)
				}
				stateEnd += expDraw(rng, mean)
			}
			if now < c.DurationNs {
				out = append(out, now)
			}
		}
	case Diurnal:
		// Thinning against the profile's peak keeps gaps exponential and
		// the accept draw per candidate, so the stream stays one
		// deterministic PCG walk.
		peak := 1.75 * c.Rate
		now := int64(0)
		for {
			now += expGap(rng, peak)
			if now >= c.DurationNs {
				break
			}
			x := float64(now) / float64(c.DurationNs) // 0..1 through the "day"
			tri := 1 - math.Abs(2*x-1)                // 0 -> 1 -> 0
			rate := c.Rate * (0.25 + 1.5*tri)
			if rng.Float64() < rate/peak {
				out = append(out, now)
			}
		}
	default: // Poisson
		now := int64(0)
		for {
			now += expGap(rng, c.Rate)
			if now >= c.DurationNs {
				break
			}
			out = append(out, now)
		}
	}
	return out
}

// expGap draws one exponential inter-arrival gap (ns) at rate req/s,
// clamped to at least 1 ns so time always advances.
func expGap(rng *rand.Rand, ratePerSec float64) int64 {
	g := int64(-math.Log1p(-rng.Float64()) * 1e9 / ratePerSec)
	if g < 1 {
		g = 1
	}
	return g
}

// expDraw draws an exponential duration (ns) with the given mean.
func expDraw(rng *rand.Rand, meanNs float64) int64 {
	d := int64(-math.Log1p(-rng.Float64()) * meanNs)
	if d < 1 {
		d = 1
	}
	return d
}
