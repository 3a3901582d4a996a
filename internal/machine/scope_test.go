package machine

import (
	"sync"
	"testing"
)

func TestScopeHooksIsolation(t *testing.T) {
	// A scope registered on this goroutine rewrites configs and observes
	// machines built here — and only here.
	var seen []*Machine
	release := ScopeHooks(
		func(c Config) Config {
			c.MemCycleNs *= 3
			return c
		},
		func(m *Machine) { seen = append(seen, m) },
	)

	m := New(DefaultConfig(4))
	if len(seen) != 1 || seen[0] != m {
		t.Fatalf("onNew saw %d machines", len(seen))
	}
	if want := DefaultConfig(4).MemCycleNs * 3; m.Cfg.MemCycleNs != want {
		t.Errorf("config transform not applied: MemCycleNs = %d, want %d", m.Cfg.MemCycleNs, want)
	}

	// Another goroutine's construction bypasses this scope entirely.
	var otherCfg Config
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		otherCfg = New(DefaultConfig(4)).Cfg
	}()
	wg.Wait()
	if otherCfg.MemCycleNs != DefaultConfig(4).MemCycleNs {
		t.Error("scope leaked into another goroutine's machine")
	}
	if len(seen) != 1 {
		t.Error("onNew observed a machine built on another goroutine")
	}

	release()
	after := New(DefaultConfig(4))
	if len(seen) != 1 || after.Cfg.MemCycleNs != DefaultConfig(4).MemCycleNs {
		t.Error("hooks survived release")
	}
}

func TestScopeHooksDoubleRegisterPanics(t *testing.T) {
	release := ScopeHooks(nil, func(*Machine) {})
	defer release()
	defer func() {
		if recover() == nil {
			t.Error("second ScopeHooks on one goroutine did not panic")
		}
	}()
	ScopeHooks(nil, func(*Machine) {})
}

func TestGoidStable(t *testing.T) {
	if goid() != goid() {
		t.Fatal("goid changed between calls on one goroutine")
	}
	ch := make(chan uint64, 1)
	go func() { ch <- goid() }()
	if other := <-ch; other == goid() {
		t.Fatal("two goroutines share one goid")
	}
}
