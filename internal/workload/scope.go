package workload

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workload directives travel to a workload-driven experiment through a
// goroutine scope, like machine.ScopeHooks: the lab's runner registers the
// spec's directive string on the goroutine that calls Experiment.Run, and
// experiments read it back there. Two lab workers running different
// workloads at once never see each other's string.

var (
	// scopeCount gates the goroutine-id lookup, so experiments outside the
	// lab pay one atomic load to discover no scope exists.
	scopeCount atomic.Int32
	scopeMu    sync.RWMutex
	scopes     map[uint64]string
)

// Scope installs directives visible only on the calling goroutine. The
// returned release must be called when the job ends; registering twice on
// one goroutine without releasing panics.
func Scope(directives string) (release func()) {
	id := goid()
	scopeMu.Lock()
	if scopes == nil {
		scopes = make(map[uint64]string)
	}
	if _, dup := scopes[id]; dup {
		scopeMu.Unlock()
		panic("workload: Scope already registered on this goroutine")
	}
	scopes[id] = directives
	scopeMu.Unlock()
	scopeCount.Add(1)
	return func() {
		scopeMu.Lock()
		delete(scopes, id)
		scopeMu.Unlock()
		scopeCount.Add(-1)
	}
}

// Current returns the directive string scoped to the calling goroutine, or
// "" when none is registered.
func Current() string {
	if scopeCount.Load() == 0 {
		return ""
	}
	id := goid()
	scopeMu.RLock()
	defer scopeMu.RUnlock()
	return scopes[id]
}

// goid parses the runtime's goroutine id from a one-goroutine stack dump
// header ("goroutine 123 [running]:") — the same idiom machine.ScopeHooks
// uses (its goid is unexported, and a ~12-line parser is cheaper than
// widening that package's API). runtime.Stack walks the whole stack, so a
// call measured 5.7 µs on a shallow stack and 35–46 µs at a depth of 30
// frames (2-CPU Xeon); it is paid once per Scope and per Current while a
// scope is registered.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
