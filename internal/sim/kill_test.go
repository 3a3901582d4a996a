package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"butterfly/internal/probe"
)

func TestKillRunnableProc(t *testing.T) {
	e := New()
	var reached bool
	victim := e.Spawn("victim", 1, func(p *Proc) {
		p.Advance(100)
		reached = true // must never run: the kill lands at t=50
	})
	e.Spawn("killer", 0, func(p *Proc) {
		p.Advance(50)
		e.Kill(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reached {
		t.Error("killed proc executed code past its kill point")
	}
	if !victim.Done() || !victim.Killed() {
		t.Errorf("victim Done=%v Killed=%v, want true/true", victim.Done(), victim.Killed())
	}
}

func TestKillBlockedProc(t *testing.T) {
	e := New()
	var woke bool
	victim := e.Spawn("victim", 1, func(p *Proc) {
		p.Block("forever")
		woke = true
	})
	e.Spawn("killer", 0, func(p *Proc) {
		p.Advance(10)
		e.Kill(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke {
		t.Error("killed proc resumed past its block")
	}
	if !victim.Done() {
		t.Error("killed blocked proc never completed")
	}
}

func TestKillDiscardsUnflushedLocalClock(t *testing.T) {
	e := New()
	victim := e.Spawn("victim", 1, func(p *Proc) {
		p.Charge(1_000_000) // lazy: never synced before the kill
		p.Block("wait")
	})
	e.Spawn("killer", 0, func(p *Proc) {
		p.Advance(10)
		e.Kill(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e.Now(); got != 10 {
		t.Errorf("engine Now = %d, want 10 (victim's unflushed charge must be discarded)", got)
	}
}

func TestKillIsIdempotentAndIgnoresDone(t *testing.T) {
	e := New()
	done := e.Spawn("done", 0, func(p *Proc) { p.Advance(1) })
	victim := e.Spawn("victim", 1, func(p *Proc) { p.Block("forever") })
	e.Spawn("killer", 0, func(p *Proc) {
		p.Advance(5)
		e.Kill(done) // no-op: already finished
		e.Kill(victim)
		e.Kill(victim) // no-op: already killed
		e.Kill(nil)    // no-op
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done.Killed() {
		t.Error("Kill of a finished proc marked it killed")
	}
	if !victim.Done() || !victim.Killed() {
		t.Error("victim not terminated")
	}
}

func TestBlockTimeoutExpires(t *testing.T) {
	e := New()
	var timedOut bool
	var at int64
	e.Spawn("waiter", 0, func(p *Proc) {
		p.Advance(100)
		timedOut = p.BlockTimeout("nothing coming", 250)
		at = p.LocalNow()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !timedOut {
		t.Error("BlockTimeout with no Unblock must report timeout")
	}
	if at != 350 {
		t.Errorf("woke at %d, want 350", at)
	}
}

func TestBlockTimeoutWokenEarly(t *testing.T) {
	e := New()
	var timedOut bool
	var at int64
	waiter := e.Spawn("waiter", 0, func(p *Proc) {
		timedOut = p.BlockTimeout("waiting for poster", 1_000)
		at = p.LocalNow()
	})
	e.Spawn("poster", 1, func(p *Proc) {
		p.Advance(40)
		e.Unblock(p, waiter, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if timedOut {
		t.Error("unblocked-before-deadline wait reported a timeout")
	}
	if at != 40 {
		t.Errorf("woke at %d, want 40", at)
	}
	if got := e.Now(); got >= 1_000 {
		t.Errorf("engine ran to %d: the expired deadline entry was not cancelled", got)
	}
}

// terminator is a Terminator-implementing panic value, standing in for
// fault.RefError / chrysalis.ThrowError without importing either.
type terminator struct{ msg string }

func (terminator) TerminatesProcess() bool { return true }

func TestTerminatorPanicCompletesProcess(t *testing.T) {
	e := New()
	var after bool
	p1 := e.Spawn("thrower", 0, func(p *Proc) {
		p.Advance(10)
		panic(terminator{"unhandled exception"})
	})
	e.Spawn("bystander", 1, func(p *Proc) {
		p.Advance(50)
		after = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (a Terminator panic must kill only its process)", err)
	}
	if !p1.Done() {
		t.Error("thrower did not complete")
	}
	if tv, ok := p1.Fatal().(terminator); !ok || tv.msg != "unhandled exception" {
		t.Errorf("Fatal() = %#v, want the panic value", p1.Fatal())
	}
	if !after {
		t.Error("bystander was not scheduled after the terminator panic")
	}
}

// TestUntrappedPanicReachesRunCaller: without TrapPanics, a real panic in a
// body is re-raised in the goroutine that called Run, and Run still unwinds
// the processes left parked, deferred cleanup included, on the way out:
// blocked ones, and the ready one the panicking body named its successor.
func TestUntrappedPanicReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	cleaned := 0
	for i := 0; i < 2; i++ {
		e.Spawn("stuck", i, func(p *Proc) {
			defer func() { cleaned++ }()
			p.Block("forever")
		})
	}
	e.Spawn("ticker", 2, func(p *Proc) {
		defer func() { cleaned++ }()
		for i := 0; i < 100; i++ {
			p.Advance(5)
		}
	})
	e.Spawn("panicker", 3, func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = e.Run()
	}()
	if got != "boom" {
		t.Errorf("Run's caller recovered %v, want the body's panic value", got)
	}
	if cleaned != 3 {
		t.Errorf("%d of 3 parked processes ran their deferred cleanup", cleaned)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}

// TestGoexitEndsRunCaller: a body's runtime.Goexit (t.Fatal in a test
// body) ends the goroutine that called Run, so Run never returns; the
// processes left parked are still unwound on the way out.
func TestGoexitEndsRunCaller(t *testing.T) {
	e := New()
	cleaned := 0
	e.Spawn("stuck", 0, func(p *Proc) {
		defer func() { cleaned++ }()
		p.Block("forever")
	})
	e.Spawn("quitter", 1, func(p *Proc) {
		p.Advance(10)
		runtime.Goexit()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = e.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Error("Run returned after a body called runtime.Goexit")
	}
	if cleaned != 1 {
		t.Error("the parked process was not unwound")
	}
}

// TestFinishedBodyIsCollected: a finished process drops its body, so what
// only the body captured is garbage while the engine is still reachable.
func TestFinishedBodyIsCollected(t *testing.T) {
	e := New()
	collected := make(chan struct{})
	func() {
		captured := new([64]byte)
		runtime.SetFinalizer(captured, func(*[64]byte) { close(collected) })
		e.Spawn("holder", 0, func(p *Proc) {
			p.Advance(1)
			captured[0]++
		})
	}()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	gone := false
	for i := 0; i < 20 && !gone; i++ {
		runtime.GC()
		select {
		case <-collected:
			gone = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(e)
	if !gone {
		t.Error("a finished body's captured object outlived it while the engine was reachable")
	}
}

func TestWaitQueueSkipsKilledWaiters(t *testing.T) {
	e := New()
	q := NewWaitQueue("test")
	var liveWoke bool
	dead := e.Spawn("dead", 1, func(p *Proc) { q.Wait(p) })
	e.Spawn("live", 2, func(p *Proc) {
		p.Advance(5)
		q.Wait(p)
		liveWoke = true
	})
	e.Spawn("driver", 0, func(p *Proc) {
		p.Advance(10)
		e.Kill(dead)
		p.Advance(10)
		q.WakeOne(p, 0) // must pass over the killed head and wake the live waiter
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !liveWoke {
		t.Error("WakeOne woke the killed waiter instead of the live one")
	}
}

func TestWaitTimeoutRemovesFromQueue(t *testing.T) {
	e := New()
	q := NewWaitQueue("test")
	e.Spawn("waiter", 0, func(p *Proc) {
		if !q.WaitTimeout(p, 100) {
			t.Error("WaitTimeout with no waker must time out")
		}
		if q.Len() != 0 {
			t.Errorf("timed-out waiter still queued (len=%d)", q.Len())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRunReleasesLeftoverProcs: Run unwinds the processes a deadlock or an
// interrupt leaves alive, deferred cleanup included, so none outlives it;
// the unwind moves neither the clock, the counters, the probe stream, nor
// the verdict.
func TestRunReleasesLeftoverProcs(t *testing.T) {
	for _, interrupt := range []bool{false, true} {
		before := runtime.NumGoroutine()
		e := New()
		var events probe.Counter
		e.SetProbe(probe.New(&events))
		cleaned := 0
		for i := 0; i < 3; i++ {
			e.Spawn("stuck", i, func(p *Proc) {
				defer func() {
					cleaned++
					p.Advance(5) // cleanup that charges time
				}()
				p.Advance(10)
				if interrupt {
					e.Interrupt()
				}
				p.Block("forever")
			})
		}
		err := e.Run()
		var now int64
		var live int
		var de *DeadlockError
		var ie *InterruptError
		switch {
		case !interrupt && errors.As(err, &de):
			now, live = de.Now, len(de.Blocked)
		case interrupt && errors.As(err, &ie):
			now, live = ie.Now, ie.Live
		default:
			t.Fatalf("interrupt=%v: Run = %v", interrupt, err)
		}
		if live == 0 {
			t.Fatalf("interrupt=%v: nothing was left alive to release", interrupt)
		}
		st := e.Stats()
		if e.Now() != now || st.Completed != 3-live || events.ByKind[probe.KindProcDone] != uint64(st.Completed) {
			t.Errorf("interrupt=%v: after Run now=%d completed=%d probed-done=%d; verdict now=%d with %d left alive",
				interrupt, e.Now(), st.Completed, events.ByKind[probe.KindProcDone], now, live)
		}
		if cleaned != 3 {
			t.Errorf("interrupt=%v: %d of 3 processes ran their deferred cleanup", interrupt, cleaned)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Errorf("interrupt=%v: %d goroutines after Run, %d before", interrupt, n, before)
		}
	}
}
