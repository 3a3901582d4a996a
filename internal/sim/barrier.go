package sim

// Barrier is a reusable n-party barrier over the engine's wait queues: the
// last arriver wakes everyone and the barrier resets for the next round.
// (Scheduler-based, so waiting processes consume no simulated cycles —
// unlike the spin-lock barriers Uniform System programs had to use.)
type Barrier struct {
	n, arrived int
	wq         *WaitQueue
	rounds     uint64
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(name string, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{n: n, wq: NewWaitQueue(name)}
}

// Wait blocks p until all n parties have arrived. The caller's local clock
// is flushed on entry, so arrival order (and which party is last) reflects
// true local times.
func (b *Barrier) Wait(p *Proc) {
	p.mustBeRunning("Barrier.Wait")
	p.sync()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.rounds++
		b.wq.WakeAll(p, 0)
		return
	}
	b.wq.Wait(p)
}

// Rounds reports how many times the barrier has opened.
func (b *Barrier) Rounds() uint64 { return b.rounds }
