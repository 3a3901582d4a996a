// Package knight implements the non-deterministic knight's tour studied
// with Instant Replay (§3.3 of the paper). Worker processes share a pool of
// partial tours; each worker repeatedly grabs the most promising partial
// tour, extends it by one legal knight move (Warnsdorff-ordered), and puts
// the extensions back. Which worker grabs which partial tour depends on
// timing — the program is genuinely non-deterministic across machines — but
// the pool is an Instant Replay shared object, so a recorded run can be
// replayed exactly, timing differences notwithstanding.
package knight

import (
	"fmt"
	"sort"

	"butterfly/internal/chrysalis"
	"butterfly/internal/machine"
	"butterfly/internal/replay"
	"butterfly/internal/sim"
)

// moves are the eight knight offsets.
var moves = [8][2]int{
	{1, 2}, {2, 1}, {2, -1}, {1, -2},
	{-1, -2}, {-2, -1}, {-2, 1}, {-1, 2},
}

// Tour is a sequence of visited squares on an N x N board.
type Tour struct {
	N    int
	Path []int // square indices y*N+x, in visit order
}

// complete reports whether every square is visited.
func (t Tour) complete() bool { return len(t.Path) == t.N*t.N }

// Valid checks the path is a legal knight's tour prefix.
func (t Tour) Valid() error {
	seen := make([]bool, t.N*t.N)
	for i, sq := range t.Path {
		if sq < 0 || sq >= t.N*t.N {
			return fmt.Errorf("knight: square %d out of range", sq)
		}
		if seen[sq] {
			return fmt.Errorf("knight: square %d visited twice", sq)
		}
		seen[sq] = true
		if i > 0 {
			ax, ay := t.Path[i-1]%t.N, t.Path[i-1]/t.N
			bx, by := sq%t.N, sq/t.N
			dx, dy := ax-bx, ay-by
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			if !(dx == 1 && dy == 2 || dx == 2 && dy == 1) {
				return fmt.Errorf("knight: illegal move %d -> %d", t.Path[i-1], sq)
			}
		}
	}
	return nil
}

// extensions returns the legal continuations, Warnsdorff-ordered (fewest
// onward moves first), which makes the search finish quickly.
func extensions(t Tour) []Tour {
	n := t.N
	seen := make([]bool, n*n)
	for _, sq := range t.Path {
		seen[sq] = true
	}
	last := t.Path[len(t.Path)-1]
	x, y := last%n, last/n
	degree := func(sq int) int {
		sx, sy := sq%n, sq/n
		d := 0
		for _, mv := range moves {
			nx, ny := sx+mv[0], sy+mv[1]
			if nx >= 0 && nx < n && ny >= 0 && ny < n && !seen[ny*n+nx] {
				d++
			}
		}
		return d
	}
	var next []int
	for _, mv := range moves {
		nx, ny := x+mv[0], y+mv[1]
		if nx >= 0 && nx < n && ny >= 0 && ny < n && !seen[ny*n+nx] {
			next = append(next, ny*n+nx)
		}
	}
	sort.Slice(next, func(a, b int) bool {
		da, db := degree(next[a]), degree(next[b])
		if da != db {
			return da < db
		}
		return next[a] < next[b]
	})
	out := make([]Tour, 0, len(next))
	for _, sq := range next {
		out = append(out, Tour{N: n, Path: append(append([]int(nil), t.Path...), sq)})
	}
	return out
}

// Config parameterizes a parallel search.
type Config struct {
	N       int
	Procs   int
	Start   int // starting square
	Mode    replay.Mode
	Log     []replay.Entry // replay input when Mode == ModeReplay
	Jitter  []int64        // per-worker extra delay (ns), varies the race
	MaxPool int
}

// Result reports a run.
type Result struct {
	Tour      Tour
	Grabs     int // pool operations performed
	ElapsedNs int64
	Log       []replay.Entry
}

// Run searches for a knight's tour with `procs` workers sharing a
// best-first pool. The pool is a monitored Instant Replay object: every
// grab/insert is a Write access, so record mode captures the exact
// interleaving and replay mode reproduces it under different timing.
func Run(cfg Config) (Result, error) {
	if cfg.N < 5 {
		return Result{}, fmt.Errorf("knight: board too small for tours (N=%d)", cfg.N)
	}
	m := machine.New(machine.DefaultConfig(cfg.Procs))
	os := chrysalis.New(m)

	var mon *replay.Monitor
	switch cfg.Mode {
	case replay.ModeReplay:
		mon = replay.NewReplayMonitor(os, cfg.Log)
	default:
		mon = replay.NewMonitor(os, cfg.Mode)
	}
	poolObj := mon.NewObject("pool", 0)

	// Best-first pool ordered by path length (longest first).
	var pool []Tour
	pool = append(pool, Tour{N: cfg.N, Path: []int{cfg.Start}})
	var found *Tour
	grabs := 0

	wq := sim.NewWaitQueue("knight pool")
	idle := 0

	for w := 0; w < cfg.Procs; w++ {
		w := w
		jitter := int64(0)
		if w < len(cfg.Jitter) {
			jitter = cfg.Jitter[w]
		}
		if _, err := os.MakeProcess(nil, fmt.Sprintf("knight%d", w), w, 16, func(self *chrysalis.Process) {
			for {
				// Every control decision (stop, grab, spin) is taken inside
				// the monitored access, so the worker's behaviour is fully
				// determined by the forced access order during replay.
				var work *Tour
				stop := false
				poolObj.Write(self.P, func() {
					grabs++
					if found != nil {
						stop = true
						return
					}
					if len(pool) > 0 {
						// Grab the longest prefix (best-first).
						best := 0
						for i := range pool {
							if len(pool[i].Path) > len(pool[best].Path) {
								best = i
							}
						}
						t := pool[best]
						pool = append(pool[:best], pool[best+1:]...)
						work = &t
					}
				})
				if stop {
					return
				}
				if work == nil {
					// Pool drained but the search is alive: park briefly.
					idle++
					if idle >= cfg.Procs {
						// Nothing anywhere: no tour from this square.
						wq.WakeAll(self.P, 0)
						return
					}
					self.P.Advance(200 * sim.Microsecond)
					idle--
					continue
				}
				m.IntOps(self.P, 200) // move generation and ordering
				self.P.Advance(jitter)
				if work.complete() {
					poolObj.Write(self.P, func() {
						if found == nil {
							found = work
						}
					})
					return
				}
				exts := extensions(*work)
				if len(exts) == 0 {
					continue // dead end
				}
				poolObj.Write(self.P, func() {
					// Keep the pool bounded; best-first means dropping the
					// shortest entries is safe for finding some tour.
					pool = append(pool, exts...)
					if max := cfg.MaxPool; max > 0 && len(pool) > max {
						sort.Slice(pool, func(a, b int) bool {
							return len(pool[a].Path) > len(pool[b].Path)
						})
						pool = pool[:max]
					}
				})
			}
		}); err != nil {
			return Result{}, err
		}
	}
	if err := m.E.Run(); err != nil {
		return Result{}, err
	}
	res := Result{Grabs: grabs, ElapsedNs: m.E.Now(), Log: mon.Log()}
	if cfg.Mode == replay.ModeReplay {
		res.Log = cfg.Log
	}
	if found == nil {
		return res, fmt.Errorf("knight: no tour found from square %d", cfg.Start)
	}
	res.Tour = *found
	return res, nil
}
