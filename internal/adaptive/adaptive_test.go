package adaptive

import (
	"errors"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/metrics"
)

// fakeHost is a minimal Host: a predicate table and a settable stall clock.
// hist is the latency histogram its controller samples.
type fakeHost struct {
	mu      sync.Mutex
	sources map[string]string
	stuck   time.Duration
	hist    *metrics.Histogram
	swapErr error
	swaps   []string
}

func newFakeHost(key, source string) *fakeHost {
	return &fakeHost{
		sources: map[string]string{key: source},
		hist:    metrics.NewHistogram(metrics.LatencyOpts),
	}
}

func (f *fakeHost) ChangePredicate(key, source string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.swapErr != nil {
		return f.swapErr
	}
	f.sources[key] = source
	f.swaps = append(f.swaps, source)
	return nil
}

func (f *fakeHost) Stuck(string) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stuck, nil
}

func (f *fakeHost) source(key string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sources[key]
}

func (f *fakeHost) set(fn func(*fakeHost)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

const (
	goodNs = 1 << 15 // well under every Target used here
	badNs  = 1 << 30 // ~1s, far past it
)

func testLadder(t *testing.T) Ladder {
	t.Helper()
	l, err := NewLadder(
		Rung{Name: "all", Source: "MIN($ALLWNODES)"},
		Rung{Name: "majority", Source: "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)"},
		Rung{Name: "one", Source: "KTH_MAX(1, $ALLWNODES)"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// tickEvery is the step the tests' hand-driven clock takes between ticks.
const tickEvery = 15 * time.Second

// testConfig: short window 1m, long 2m, burn 2 at objective 0.75 (all-bad
// traffic burns at 4×), dwell 30s, cooldown 90s.
func testConfig() Config {
	return Config{
		Target:      time.Millisecond,
		Objective:   0.75,
		ShortWindow: time.Minute,
		LongWindow:  2 * time.Minute,
		Burn:        2,
		MinDwell:    30 * time.Second,
		Cooldown:    90 * time.Second,
		StallAfter:  45 * time.Second,
	}
}

func TestLadderValidation(t *testing.T) {
	cases := []struct {
		name  string
		rungs []Rung
		ok    bool
	}{
		{"two rungs", []Rung{{"a", "X"}, {"b", "Y"}}, true},
		{"single rung", []Rung{{"a", "X"}}, false},
		{"empty", nil, false},
		{"dup name", []Rung{{"a", "X"}, {"a", "Y"}}, false},
		{"dup source", []Rung{{"a", "X"}, {"b", "X"}}, false},
		{"empty name", []Rung{{"", "X"}, {"b", "Y"}}, false},
		{"empty source", []Rung{{"a", ""}, {"b", "Y"}}, false},
		{"name with =", []Rung{{"a=b", "X"}, {"b", "Y"}}, false},
		{"name with ;", []Rung{{"a;b", "X"}, {"b", "Y"}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewLadder(tc.rungs...)
			if (err == nil) != tc.ok {
				t.Fatalf("NewLadder(%v) err = %v, want ok=%v", tc.rungs, err, tc.ok)
			}
		})
	}
}

func TestParseLadderRoundTrip(t *testing.T) {
	l := testLadder(t)
	parsed, err := ParseLadder(l.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.String() != l.String() {
		t.Fatalf("round trip: %q != %q", parsed.String(), l.String())
	}
	// Sources may contain '=': only the first one splits.
	eq, err := ParseLadder("a=F(x=1); b=G(y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := eq.Rung(0).Source; got != "F(x=1)" {
		t.Fatalf("source with '=': got %q", got)
	}
	if _, err := ParseLadder("no-equals-here"); err == nil {
		t.Fatal("want error for a rung without '='")
	}
	if l.IndexOfSource("KTH_MAX(1, $ALLWNODES)") != 2 {
		t.Fatal("IndexOfSource missed the weakest rung")
	}
	if l.IndexOfSource("nope") != -1 {
		t.Fatal("IndexOfSource invented a rung")
	}
}

func observe(h *metrics.Histogram, v int64, n int) {
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
}

// driveBurn advances the controller by `ticks` ticks of tickEvery,
// observing n latency samples of v before each tick. Returns the time
// after the last tick.
func driveBurn(c *Controller, h *fakeHost, now time.Time, ticks int, v int64, n int) time.Time {
	for i := 0; i < ticks; i++ {
		if n > 0 {
			observe(h.hist, v, n)
		}
		c.Tick(now)
		now = now.Add(tickEvery)
	}
	return now
}

func TestControllerStepsDownOnBurn(t *testing.T) {
	h := newFakeHost("stable", "MIN($ALLWNODES)")
	reg := metrics.NewRegistry()
	c, err := New(h, "stable", testLadder(t), testConfig(), h.hist, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	now := time.Unix(10_000, 0)
	// Healthy traffic: no movement.
	now = driveBurn(c, h, now, 8, goodNs, 50)
	if c.RungIndex() != 0 || len(c.History()) != 0 {
		t.Fatalf("moved while healthy: rung %d, %d transitions", c.RungIndex(), len(c.History()))
	}

	// All-bad traffic: burn 4× > 2 in both windows → step down.
	now = driveBurn(c, h, now, 12, badNs, 50)
	hist := c.History()
	if len(hist) == 0 {
		t.Fatal("no downgrade under a sustained burn")
	}
	if hist[0].Direction != DirectionDown || hist[0].Reason != "slo-burn" {
		t.Fatalf("first transition = %+v, want down/slo-burn", hist[0])
	}
	if c.RungIndex() != c.InstalledIndex() {
		t.Fatalf("steady state: reported %d != installed %d", c.RungIndex(), c.InstalledIndex())
	}
	if got := h.source("stable"); c.Ladder().IndexOfSource(got) != c.InstalledIndex() {
		t.Fatalf("installed source %q does not match installed index %d", got, c.InstalledIndex())
	}
	// Sustained burn walks the whole ladder but stops at the bottom.
	if c.RungIndex() != c.Ladder().Len()-1 {
		t.Fatalf("rung %d after long burn, want bottom %d", c.RungIndex(), c.Ladder().Len()-1)
	}
	// Hysteresis: consecutive transitions at least MinDwell apart.
	for i := 1; i < len(hist); i++ {
		if gap := hist[i].At.Sub(hist[i-1].At); gap < c.cfg.MinDwell {
			t.Fatalf("transitions %d and %d only %v apart (dwell %v)", i-1, i, gap, c.cfg.MinDwell)
		}
	}
	_ = now
}

func TestControllerStallStepsDownWithoutSamples(t *testing.T) {
	h := newFakeHost("stable", "MIN($ALLWNODES)")
	c, err := New(h, "stable", testLadder(t), testConfig(), h.hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Appends outstanding, frontier pinned for StallAfter, zero histogram
	// samples: the SLO monitor is silent, the stall clock is not.
	h.set(func(f *fakeHost) { f.stuck = c.cfg.StallAfter })
	c.Tick(time.Unix(20_000, 0))
	hist := c.History()
	if len(hist) == 0 {
		t.Fatal("stalled frontier never triggered a downgrade")
	}
	if hist[0].Reason != "stall" {
		t.Fatalf("reason %q, want stall", hist[0].Reason)
	}
	// A frontier stuck for less than StallAfter must NOT read as a stall.
	h2 := newFakeHost("stable", "MIN($ALLWNODES)")
	c2, err := New(h2, "stable", testLadder(t), testConfig(), h2.hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	h2.set(func(f *fakeHost) { f.stuck = c2.cfg.StallAfter - time.Millisecond })
	now := time.Unix(30_000, 0)
	for i := 0; i < 10; i++ {
		c2.Tick(now)
		now = now.Add(tickEvery)
	}
	if len(c2.History()) != 0 {
		t.Fatal("a frontier stuck under StallAfter misread as a stall")
	}
}

func TestControllerRecoversAfterCooldown(t *testing.T) {
	h := newFakeHost("stable", "MIN($ALLWNODES)")
	c, err := New(h, "stable", testLadder(t), testConfig(), h.hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	now := time.Unix(40_000, 0)
	now = driveBurn(c, h, now, 12, badNs, 50) // walk to the bottom
	if c.RungIndex() != 2 {
		t.Fatalf("setup: rung %d, want 2", c.RungIndex())
	}
	downs := len(c.History())

	// Healthy traffic again. Upgrades need the burn to resolve (short AND
	// long window), then Cooldown of quiet per rung.
	now = driveBurn(c, h, now, 60, goodNs, 50)
	if c.RungIndex() != 0 {
		t.Fatalf("rung %d after a long healthy stretch, want 0", c.RungIndex())
	}
	hist := c.History()
	ups := hist[downs:]
	if len(ups) != 2 {
		t.Fatalf("%d upgrades, want 2 (one per rung)", len(ups))
	}
	for _, tr := range ups {
		if tr.Direction != DirectionUp || tr.Reason != "recovered" {
			t.Fatalf("upgrade transition %+v", tr)
		}
	}
	// One cooldown per rung: successive upgrades at least Cooldown apart.
	if gap := ups[1].At.Sub(ups[0].At); gap < c.cfg.Cooldown {
		t.Fatalf("upgrades %v apart, want ≥ cooldown %v", gap, c.cfg.Cooldown)
	}
}

func TestControllerHonestyAcrossSwapFailure(t *testing.T) {
	h := newFakeHost("stable", "MIN($ALLWNODES)")
	c, err := New(h, "stable", testLadder(t), testConfig(), h.hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	boom := errors.New("registry sealed")
	h.set(func(f *fakeHost) { f.swapErr = boom })
	now := time.Unix(50_000, 0)
	now = driveBurn(c, h, now, 8, badNs, 50)

	// The swap keeps failing: no transition recorded, but the *report*
	// must already be the weaker rung — under-claiming, never over.
	if len(c.History()) != 0 {
		t.Fatal("recorded a transition for a failed swap")
	}
	if c.InstalledIndex() != 0 {
		t.Fatalf("installed index %d moved despite swap failures", c.InstalledIndex())
	}
	if c.RungIndex() < c.InstalledIndex() {
		t.Fatalf("reported %d stronger than installed %d", c.RungIndex(), c.InstalledIndex())
	}
	if c.RungIndex() != 1 {
		t.Fatalf("reported rung %d, want the weaker claim 1", c.RungIndex())
	}

	// Heal the registry: the next burning tick completes the swap.
	h.set(func(f *fakeHost) { f.swapErr = nil })
	driveBurn(c, h, now, 2, badNs, 50)
	if c.InstalledIndex() < 1 {
		t.Fatalf("swap not retried after the registry healed: installed %d", c.InstalledIndex())
	}
	if c.RungIndex() < c.InstalledIndex() {
		t.Fatalf("reported %d stronger than installed %d after retry", c.RungIndex(), c.InstalledIndex())
	}
}

func TestControllerOnTransitionCancel(t *testing.T) {
	h := newFakeHost("stable", "MIN($ALLWNODES)")
	c, err := New(h, "stable", testLadder(t), testConfig(), h.hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var mu sync.Mutex
	var got []Transition
	cancel := c.OnTransition(func(tr Transition) {
		mu.Lock()
		got = append(got, tr)
		mu.Unlock()
	})
	if nilCancel := c.OnTransition(nil); nilCancel == nil {
		t.Fatal("nil hook returned a nil cancel")
	}

	now := driveBurn(c, h, time.Unix(60_000, 0), 8, badNs, 50)
	mu.Lock()
	seen := len(got)
	mu.Unlock()
	if seen == 0 {
		t.Fatal("hook never fired")
	}
	cancel()
	cancel() // double-cancel is fine
	// Recovery produces further transitions (upgrades) — the controller
	// keeps moving, only the canceled hook goes quiet.
	histAtCancel := len(c.History())
	driveBurn(c, h, now, 60, goodNs, 50)
	mu.Lock()
	after := len(got)
	mu.Unlock()
	if after != seen {
		t.Fatalf("hook fired %d more times after cancel", after-seen)
	}
	if len(c.History()) <= histAtCancel {
		t.Fatal("controller stopped transitioning after hook cancel")
	}
}

func TestControllerCloseIsIdempotentAndStopsTicks(t *testing.T) {
	h := newFakeHost("stable", "MIN($ALLWNODES)")
	c, err := New(h, "stable", testLadder(t), testConfig(), h.hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close()
	driveBurn(c, h, time.Unix(70_000, 0), 8, badNs, 50)
	if len(c.History()) != 0 {
		t.Fatal("transitioned after Close")
	}

	// Close from the controller's own hook returns (no goroutine to wait on)
	// and stops the steps that would follow.
	h2 := newFakeHost("stable", "MIN($ALLWNODES)")
	c2, err := New(h2, "stable", testLadder(t), testConfig(), h2.hist, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	c2.OnTransition(func(Transition) { c2.Close() })
	driveBurn(c2, h2, time.Unix(80_000, 0), 12, badNs, 50)
	if n := len(c2.History()); n != 1 {
		t.Fatalf("%d transitions, want the 1 whose hook closed the controller", n)
	}
}

func TestConfigValidation(t *testing.T) {
	h := newFakeHost("k", "MIN($ALLWNODES)")
	l := testLadder(t)
	if _, err := New(h, "k", l, Config{}, h.hist, nil); err == nil {
		t.Fatal("zero Target accepted")
	}
	if _, err := New(h, "k", l, Config{Target: time.Millisecond, Objective: 1.5}, h.hist, nil); err == nil {
		t.Fatal("objective out of range accepted")
	}
	if _, err := New(h, "k", l, Config{Target: time.Millisecond}, nil, nil); err == nil {
		t.Fatal("nil histogram accepted")
	}
	if _, err := New(h, "", l, Config{Target: time.Millisecond}, h.hist, nil); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := New(nil, "k", l, Config{Target: time.Millisecond}, h.hist, nil); err == nil {
		t.Fatal("nil host accepted")
	}
	if _, err := New(h, "k", Ladder{}, Config{Target: time.Millisecond}, h.hist, nil); err == nil {
		t.Fatal("zero ladder accepted")
	}
	c, err := New(h, "k", l, Config{Target: time.Millisecond}, h.hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.cfg.MinDwell != c.cfg.ShortWindow || c.cfg.Cooldown != c.cfg.LongWindow {
		t.Fatalf("defaults: dwell %v cooldown %v", c.cfg.MinDwell, c.cfg.Cooldown)
	}
}
