package workload

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestArrivalsDeterministic(t *testing.T) {
	for _, p := range []Pattern{Poisson, Bursty, Diurnal} {
		cfg := Default()
		cfg.Pattern = p
		cfg.Seed = 42
		a := cfg.Arrivals()
		b := cfg.Arrivals()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same config produced different streams", p)
		}
		if len(a) == 0 {
			t.Fatalf("%s: empty stream", p)
		}
		cfg.Seed = 43
		c := cfg.Arrivals()
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced the same stream", p)
		}
	}
}

func TestArrivalsOrderedAndBounded(t *testing.T) {
	for _, p := range []Pattern{Poisson, Bursty, Diurnal} {
		cfg := Default()
		cfg.Pattern = p
		prev := int64(-1)
		for i, at := range cfg.Arrivals() {
			if at <= prev {
				t.Fatalf("%s: arrival %d at %d not after %d", p, i, at, prev)
			}
			if at < 0 || at >= cfg.DurationNs {
				t.Fatalf("%s: arrival %d at %d outside [0, %d)", p, i, at, cfg.DurationNs)
			}
			prev = at
		}
	}
}

func TestPoissonRealizedRate(t *testing.T) {
	cfg := Default()
	cfg.Rate = 1500
	cfg.DurationNs = 4_000_000_000 // 4 s: enough arrivals to average out
	got := float64(len(cfg.Arrivals())) / 4
	if got < 0.9*cfg.Rate || got > 1.1*cfg.Rate {
		t.Errorf("realized rate %.0f/s, configured %.0f/s", got, cfg.Rate)
	}
}

func TestBurstyMeanAboveCalmRate(t *testing.T) {
	cfg := Default()
	cfg.Pattern = Bursty
	cfg.Rate = 1500
	cfg.BurstRate = 6000
	cfg.DurationNs = 4_000_000_000
	// MMPP mean = (calmDwell*rate + burstDwell*burstRate) / (calm+burst)
	// = (15ms*1500 + 5ms*6000)/20ms = 2625/s. Allow generous slack: state
	// dwell variance is high even over 4 s.
	got := float64(len(cfg.Arrivals())) / 4
	if got < 1800 || got > 3500 {
		t.Errorf("bursty realized rate %.0f/s, MMPP mean is 2625/s", got)
	}
}

func TestParseOverlay(t *testing.T) {
	c, err := Parse("pattern bursty; rate 6000; burst-rate 24000 # peak\nseed 7; duration 60ms; sources 3; servers 5; window 5ms; detail", Default())
	if err != nil {
		t.Fatal(err)
	}
	if c.Pattern != Bursty || c.Rate != 6000 || c.BurstRate != 24000 ||
		c.Seed != 7 || c.DurationNs != 60_000_000 || c.Sources != 3 ||
		c.Servers != 5 || c.WindowNs != 5_000_000 || !c.Detail {
		t.Errorf("parsed config = %+v", c)
	}
	// Unset fields keep the base values.
	if c.BurstDwellNs != Default().BurstDwellNs {
		t.Errorf("burst-dwell lost the default: %d", c.BurstDwellNs)
	}
}

func TestParseEmptyIsBase(t *testing.T) {
	c, err := Parse("", Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, Default()) {
		t.Errorf("empty overlay changed the config: %+v", c)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"warp 9", "unknown directive"},
		{"rate fast", "bad number"},
		{"rate", "exactly one argument"},
		{"rate 100 200", "exactly one argument"},
		{"detail now", "takes no argument"},
		{"duration -5ms", "bad duration"},
		{"duration 5parsecs", "bad duration"},
		{"pattern square-wave", "unknown pattern"},
		{"rate 0", "rate must be > 0"},
		{"sources 0", "sources must be > 0"},
		{"seed -1", "invalid syntax"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.spec, Default()); err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.spec, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseDurationUnits(t *testing.T) {
	cases := map[string]int64{
		"250":   250,
		"250ns": 250,
		"3us":   3_000,
		"2.5ms": 2_500_000,
		"1s":    1_000_000_000,
	}
	for in, want := range cases {
		c, err := Parse("duration "+in, Default())
		if err != nil || c.DurationNs != want {
			t.Errorf("duration %q parsed to %d, %v; want %d", in, c.DurationNs, err, want)
		}
	}
}

func TestScopeVisibleUntilRelease(t *testing.T) {
	if got := Current(); got != "" {
		t.Fatalf("no scope registered, yet Current() = %q", got)
	}
	release := Scope("rate 222")
	if got := Current(); got != "rate 222" {
		t.Errorf("scoped value not visible on its goroutine: %q", got)
	}
	release()
	if got := Current(); got != "" {
		t.Errorf("release did not clear the scoped value: %q", got)
	}
}

func TestScopeIsPerGoroutine(t *testing.T) {
	release := Scope("rate 444")
	defer release()
	var got string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got = Current()
	}()
	wg.Wait()
	if got != "" {
		t.Errorf("another goroutine saw the scoped value %q", got)
	}
}

func TestScopeDoubleRegisterPanics(t *testing.T) {
	release := Scope("a")
	defer release()
	defer func() {
		if recover() == nil {
			t.Error("second Scope on one goroutine did not panic")
		}
	}()
	Scope("b")
}
