//go:build go1.23

package sim

import "iter"

// coroutine makes body the process's coroutine. The dispatch loop's first
// p.next starts body on a goroutine of its own; each p.yield from body, and
// body's end, switches straight back to the loop, with no trip through the
// Go scheduler.
func (p *Proc) coroutine(body func()) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body()
	})
}
