// Package gauss implements the paper's best-studied application: the
// diagonalization of matrices by Gaussian elimination, in both a Uniform
// System shared-memory version (after Thomas, BBN) and an SMP
// message-passing version (after LeBlanc). The comparison between the two is
// Figure 5 of the paper: message passing wins below 64 processors, shared
// memory is flat beyond 64 while message passing degrades, because the SMP
// implementation sends P*N messages (doubling parallelism doubles
// communication) while the Uniform System performs (N^2-N)+P(N-1)
// communication operations (dominated by the parallelism-independent N^2
// term).
//
// The data-placement variants reproduce §4.1's contention result: spreading
// the matrix over all 128 memories improves performance by over 30% when 64
// or fewer processors compute.
package gauss

import (
	"fmt"
	"math"
	"math/rand"

	"butterfly/internal/chrysalis"
	"butterfly/internal/machine"
	"butterfly/internal/sim"
	"butterfly/internal/smp"
	"butterfly/internal/us"
)

// RandomMatrix builds a well-conditioned random N x N system (diagonally
// dominant) plus a right-hand side, for correctness checking.
func RandomMatrix(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		sum := 0.0
		for j := range a[i] {
			a[i][j] = rng.Float64()*2 - 1
			sum += math.Abs(a[i][j])
		}
		a[i][i] = sum + 1 // diagonal dominance: no pivoting needed
		b[i] = rng.Float64()
	}
	return a, b
}

// Residual returns max_i |A x - b|_i for a solution check.
func Residual(a [][]float64, b, x []float64) float64 {
	worst := 0.0
	for i := range a {
		s := 0.0
		for j := range a[i] {
			s += a[i][j] * x[j]
		}
		if r := math.Abs(s - b[i]); r > worst {
			worst = r
		}
	}
	return worst
}

// copyMatrix deep-copies a system so a run cannot corrupt the reference.
func copyMatrix(a [][]float64, b []float64) ([][]float64, []float64) {
	a2 := make([][]float64, len(a))
	for i := range a {
		a2[i] = append([]float64(nil), a[i]...)
	}
	return a2, append([]float64(nil), b...)
}

// backSubstitute solves the upper-triangular system in place and returns x.
// It is the (serial) epilogue of both implementations.
func backSubstitute(a [][]float64, b []float64) []float64 {
	n := len(a)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

// Result reports one elimination run.
type Result struct {
	Model      string
	Procs      int
	N          int
	ElapsedNs  int64
	Messages   uint64 // message-passing version: messages sent
	CommOps    uint64 // shared-memory version: remote communication ops
	X          []float64
	MaxResidue float64
	Debug      string // breakdown of where simulated time went
}

// String formats a result row.
func (r Result) String() string {
	return fmt.Sprintf("%-14s P=%3d N=%4d  %8.2f s", r.Model, r.Procs, r.N, sim.Seconds(r.ElapsedNs))
}

// USConfig parameterizes the shared-memory run.
type USConfig struct {
	N       int
	Procs   int
	Seed    int64
	SpreadK int // memories to spread rows over; 0 = all Procs (E4 varies this)
	// Cached enables the §4.1 caching idiom: tasks block-copy the rows into
	// local memory instead of referencing shared memory word by word. The
	// Figure 5 comparison (LeBlanc's study) used the straightforward
	// uncached style; Cached is the locality ablation.
	Cached bool
}

// RunUS performs Gaussian elimination under the Uniform System. Each
// elimination step k generates one task per remaining row; a task reads the
// pivot row and updates its own row through the (logically) global shared
// memory. In the default (uncached) style every element reference is a
// remote memory reference — all P workers hammer the pivot row's home
// memory, which is the §4.1 contention effect and the reason the US curve
// goes flat at high processor counts.
func RunUS(cfg USConfig) (Result, error) {
	a, bvec := RandomMatrix(cfg.N, cfg.Seed)
	aRef, bRef := copyMatrix(a, bvec)
	mcfg := machine.DefaultConfig(maxInt(cfg.Procs, cfg.SpreadK))
	mcfg.NoSwitchContention = true // E6: switch contention negligible; skip per-word port booking
	m := machine.New(mcfg)
	os := chrysalis.New(m)

	spread := cfg.SpreadK
	if spread <= 0 {
		spread = cfg.Procs
	}
	rowNode := func(i int) int { return i % spread }

	n := cfg.N
	var start, end int64
	var commOps uint64
	ucfg := us.DefaultConfig(cfg.Procs)
	ucfg.ParallelAlloc = true
	u, err := us.Initialize(os, ucfg, func(w *us.Worker) {
		start = m.E.Now()
		for k := 0; k < n-1; k++ {
			k := k
			rows := n - 1 - k
			if rows == 0 {
				continue
			}
			w.U.GenOnIndex(w, rows, func(tw *us.Worker, idx int) {
				i := k + 1 + idx
				words := n - k + 1
				if cfg.Cached {
					// Caching idiom: block-copy pivot and target rows into
					// local memory, compute locally, copy the result back.
					m.BlockCopy(tw.P, rowNode(k), tw.P.Node, words)
					m.BlockCopy(tw.P, rowNode(i), tw.P.Node, words)
					m.Flops(tw.P, 2*(n-k)+2)
					m.BlockCopy(tw.P, tw.P.Node, rowNode(i), words)
					commOps += 2 // pivot fetch + row update, the paper's unit
				} else {
					// Straightforward shared-memory style: the inner loop
					// references everything through the (logically) global
					// shared memory word by word — the pivot element
					// a[k][j], the target element a[i][j] (read and write),
					// and the row-descriptor/index structures the compiler
					// cannot keep in registers — interleaved with the two
					// flops of the multiply-subtract.
					m.Sweep(tw.P, n-k, 2*m.Cfg.FlopNs, []machine.Ref{
						{Node: rowNode(k), Words: 1},     // pivot element
						{Node: rowNode(i), Words: 2},     // target read+write
						{Node: rowNode(i + k), Words: 2}, // descriptors, indices
					})
					commOps += 2 // pivot fetch + row update, the paper's unit
				}
				f := a[i][k] / a[k][k]
				for j := k; j < n; j++ {
					a[i][j] -= f * a[k][j]
				}
				bvec[i] -= f * bvec[k]
			})
			// Each step also costs one dispatch interaction per processor —
			// the P(N-1) term of the paper's formula.
			commOps += uint64(cfg.Procs)
		}
		end = m.E.Now()
	})
	if err != nil {
		return Result{}, err
	}
	if err := m.E.Run(); err != nil {
		return Result{}, err
	}
	_ = u
	var memWait, netWait int64
	m.EachBuiltNode(func(nd *machine.Node) { memWait += nd.Mem.Stats().WaitNs })
	netWait = m.Net.Stats().ContentionNs
	x := backSubstitute(a, bvec)
	return Result{
		Model:      "shared-memory",
		Procs:      cfg.Procs,
		N:          cfg.N,
		ElapsedNs:  end - start,
		CommOps:    commOps,
		X:          x,
		MaxResidue: Residual(aRef, bRef, x),
		Debug: fmt.Sprintf("memWait=%.1fs netWait=%.1fs remote=%d",
			sim.Seconds(memWait), sim.Seconds(netWait), m.Stats().RemoteRefs),
	}, nil
}

// SMPConfig parameterizes the message-passing run.
type SMPConfig struct {
	N     int
	Procs int
	Seed  int64
}

// RunSMP performs Gaussian elimination with message passing: rows are dealt
// round-robin to P family members; at step k the owner of the pivot row
// broadcasts it to the other P-1 members (P*N messages over the whole run),
// and every member updates its local rows with no further communication.
func RunSMP(cfg SMPConfig) (Result, error) {
	a, bvec := RandomMatrix(cfg.N, cfg.Seed)
	aRef, bRef := copyMatrix(a, bvec)
	mcfg := machine.DefaultConfig(cfg.Procs)
	mcfg.NoSwitchContention = true
	m := machine.New(mcfg)
	os := chrysalis.New(m)

	n, p := cfg.N, cfg.Procs
	nodes := make([]int, p)
	for i := range nodes {
		nodes[i] = i
	}
	ownerOf := func(row int) int { return row % p }

	var start, end int64
	barrier := sim.NewBarrier("gauss step barrier", p)
	// The elimination family dedicates its SAR budget to peer message
	// buffers so broadcasts avoid the 1 ms map/unmap per message.
	scfg := smp.DefaultConfig()
	scfg.SARCacheSize = 192
	fam, err := smp.NewFamily(os, nil, "gauss", nodes, smp.Full{}, scfg, func(mem *smp.Member) {
		if mem.ID == 0 {
			start = m.E.Now()
		}
		pivot := make([]float64, n+1)
		for k := 0; k < n-1; k++ {
			owner := ownerOf(k)
			words := n - k + 1
			if mem.ID == owner {
				// Broadcast the pivot row to the other members.
				copy(pivot, a[k][k:])
				pivot[n-k] = bvec[k]
				for d := 0; d < p; d++ {
					if d == mem.ID {
						continue
					}
					if err := mem.Send(d, k, words, nil); err != nil {
						panic(err)
					}
				}
			} else if p > 1 {
				msg := mem.Recv()
				if msg.Tag != k {
					panic(fmt.Sprintf("gauss: member %d got step %d, want %d", mem.ID, msg.Tag, k))
				}
			}
			// Update the local rows (every member holds its own slice in
			// its own memory: reads and writes are local references).
			flops, localWords := 0, 0
			for i := k + 1; i < n; i++ {
				if ownerOf(i) != mem.ID {
					continue
				}
				f := a[i][k] / a[k][k]
				for j := k; j < n; j++ {
					a[i][j] -= f * a[k][j]
				}
				bvec[i] -= f * bvec[k]
				flops += 2*(n-k) + 2
				localWords += 2 * (n - k + 1) // row in + row out; pivot is cached
			}
			m.Read(mem.P, mem.P.Node, localWords)
			m.Flops(mem.P, flops)
			// Each elimination step ends with a family barrier, keeping the
			// members in lockstep. This is the structure of the measured
			// implementation: the per-step broadcast of P-1 messages sits
			// squarely on the critical path, which is why the paper's P*N
			// message count translates directly into the rising half of
			// Figure 5.
			barrier.Wait(mem.P)
		}
		barrier.Wait(mem.P)
		if mem.ID == 0 {
			end = m.E.Now()
		}
	})
	if err != nil {
		return Result{}, err
	}
	if err := m.E.Run(); err != nil {
		return Result{}, err
	}
	x := backSubstitute(a, bvec)
	return Result{
		Model:      "message-passing",
		Procs:      cfg.Procs,
		N:          cfg.N,
		ElapsedNs:  end - start,
		Messages:   fam.Stats().MessagesSent,
		X:          x,
		MaxResidue: Residual(aRef, bRef, x),
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ExpectedMessagesSMP returns the paper's P*N message-count formula.
func ExpectedMessagesSMP(p, n int) uint64 {
	if p <= 1 {
		return 0
	}
	// One broadcast of P-1 messages per elimination step (N-1 steps), plus
	// a handful of termination messages; the paper rounds this to P*N.
	return uint64(p-1) * uint64(n-1)
}

// ExpectedCommOpsUS returns the paper's (N^2-N)+P(N-1) formula for the
// Uniform System implementation's communication operations.
func ExpectedCommOpsUS(p, n int) uint64 {
	return uint64(n*n-n) + uint64(p)*uint64(n-1)
}
