package metrics

import (
	"sync"
	"testing"
	"time"
)

// sloHist returns a histogram whose 1<<20 ns threshold lands on a bucket
// boundary, so good/bad attribution in these tests is exact.
func sloHist() *Histogram {
	return NewHistogram(HistogramOpts{Unit: 1e-9, MinPow: 12, MaxPow: 37})
}

func observeN(h *Histogram, v int64, n int) {
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
}

const (
	sloGood = 1 << 15 // well under the 1<<20 threshold
	sloBad  = 1 << 30 // far past it
)

// TestSLOMonitorZeroSampleWindows pins the zero-traffic contracts the
// adaptive controller leans on: windows with no samples at all, windows
// where the histogram exists but never moves, and a burn evaluation taken
// before the first tick must all read as "no budget spent" — never as a
// spurious alert, and never as NaN/Inf from a zero-denominator division.
func TestSLOMonitorZeroSampleWindows(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, h *Histogram, m *SLOMonitor, now time.Time)
	}{
		{
			// No traffic ever: every tick sees total == 0.
			name: "never any traffic",
			run: func(t *testing.T, h *Histogram, m *SLOMonitor, now time.Time) {
				for i := 0; i < 12; i++ {
					s, l, _ := m.Tick(now)
					if s != 0 || l != 0 {
						t.Fatalf("tick %d: burn = (%v, %v), want (0, 0)", i, s, l)
					}
					now = now.Add(30 * time.Second)
				}
			},
		},
		{
			// Traffic stops entirely: the deltas go to zero while the
			// absolute counters stay high. dTotal == 0 must short-circuit
			// before the division.
			name: "traffic then silence",
			run: func(t *testing.T, h *Histogram, m *SLOMonitor, now time.Time) {
				observeN(h, sloBad, 100)
				m.Tick(now)
				for i := 0; i < 40; i++ { // > LongWindow of silence
					now = now.Add(30 * time.Second)
					m.Tick(now)
				}
				if s, l, _ := m.Tick(now); s != 0 || l != 0 {
					t.Fatalf("burn after silence = (%v, %v), want (0, 0)", s, l)
				}
				if m.Firing() {
					t.Fatal("firing with an empty window")
				}
			},
		},
		{
			// One lone sample: the first tick has no baseline delta.
			name: "single sample window",
			run: func(t *testing.T, h *Histogram, m *SLOMonitor, now time.Time) {
				observeN(h, sloBad, 1)
				m.Tick(now)
				if m.Firing() {
					t.Fatal("fired off a single first sample with no baseline")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sloHist()
			m, err := NewSLOMonitor(h, SLOConfig{
				Name: tc.name, Threshold: 1 << 20, Objective: 0.99,
				ShortWindow: time.Minute, LongWindow: 5 * time.Minute, Burn: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			tc.run(t, h, m, time.Unix(1000, 0))
		})
	}
}

// TestSLOMonitorCounterResetOnRebind simulates a counter reset: the
// monitor's histogram is swapped for a fresh one whose totals are far below
// the recorded baselines. The monitor must treat the backwards step as a
// reset — restart its sample history, report zero burn for that tick, and
// keep working (including firing for real) against the new counters.
func TestSLOMonitorCounterResetOnRebind(t *testing.T) {
	old := sloHist()
	m, err := NewSLOMonitor(old, SLOConfig{
		Name: "rebind", Threshold: 1 << 20, Objective: 0.99,
		ShortWindow: time.Minute, LongWindow: 5 * time.Minute, Burn: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	now := time.Unix(1000, 0)
	step := 15 * time.Second
	// Build up healthy history on the original histogram.
	for i := 0; i < 8; i++ {
		observeN(old, sloGood, 100)
		m.Tick(now)
		now = now.Add(step)
	}

	// Re-bind: fresh histogram, counters restart from zero with a few
	// good observations — strictly below every recorded baseline.
	fresh := sloHist()
	observeN(fresh, sloGood, 10)
	m.mu.Lock()
	m.hist = fresh
	m.mu.Unlock()
	if s, l, _ := m.Tick(now); s != 0 || l != 0 {
		t.Fatalf("burn across the reset = (%v, %v), want (0, 0)", s, l)
	}
	if m.Firing() {
		t.Fatal("reset misread as an SLO burn")
	}
	now = now.Add(step)

	// The monitor must still detect a genuine burn on the new histogram.
	for i := 0; i < 5; i++ {
		observeN(fresh, sloBad, 100)
		m.Tick(now)
		now = now.Add(step)
	}
	if !m.Firing() {
		t.Fatal("did not fire on a real burn after the re-bind")
	}
}

// TestSLOMonitorBurnExactlyAtThreshold pins the boundary comparison: a burn
// rate exactly equal to SLOConfig.Burn fires (the comparison is ≥, matching
// the Prometheus rule in examples/alerts), while one epsilon-of-traffic
// below it does not.
func TestSLOMonitorBurnExactlyAtThreshold(t *testing.T) {
	// Exactly-representable floats so the boundary really is equality:
	// Objective 0.75 → error budget 0.25; 50 bad in 100 → error rate 0.5 →
	// burn exactly 2.0 against Burn: 2.
	run := func(bad, total int) (*SLOMonitor, bool) {
		h := sloHist()
		m, err := NewSLOMonitor(h, SLOConfig{
			Name: "edge", Threshold: 1 << 20, Objective: 0.75,
			ShortWindow: time.Minute, LongWindow: 5 * time.Minute, Burn: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		now := time.Unix(1000, 0)
		m.Tick(now) // zero baseline
		observeN(h, sloBad, bad)
		observeN(h, sloGood, total-bad)
		m.Tick(now.Add(30 * time.Second))
		return m, m.Firing()
	}

	if _, firing := run(50, 100); !firing {
		t.Fatal("burn exactly at the threshold did not fire (want ≥ semantics)")
	}
	if _, firing := run(49, 100); firing {
		t.Fatal("burn below the threshold fired")
	}
}

// TestSLOMonitorCloseDuringTick races Close against a storm of Ticks: no
// tick may fire an alert after Close returns, double-Close must be safe, and
// nothing may deadlock. Run with -race to make the interleavings count.
func TestSLOMonitorCloseDuringTick(t *testing.T) {
	for i := 0; i < 20; i++ {
		h := sloHist()
		observeN(h, sloBad, 1000)
		alerts := make(chan BurnAlert, 64)
		m, err := NewSLOMonitor(h, SLOConfig{
			Name: "close-race", Threshold: 1 << 20, Objective: 0.99,
			ShortWindow: time.Minute, LongWindow: 5 * time.Minute, Burn: 2,
			OnAlert: func(a BurnAlert) { alerts <- a },
		})
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				now := time.Unix(2000, 0)
				for j := 0; j < 50; j++ {
					observeN(h, sloBad, 1)
					m.Tick(now)
					now = now.Add(time.Second)
				}
			}(g)
		}
		wg.Add(1)
		var atClose int
		go func() {
			defer wg.Done()
			<-start
			m.Close()
			atClose = len(alerts)
			m.Close() // idempotent
		}()
		close(start)
		wg.Wait()

		// Close has returned: no tick in flight fired after it, and a
		// post-Close Tick is a no-op.
		if len(alerts) != atClose {
			t.Fatalf("%d alerts fired after Close returned", len(alerts)-atClose)
		}
		if s, l, open := m.Tick(time.Unix(3000, 0)); open || s != 0 || l != 0 {
			t.Fatalf("post-Close Tick evaluated: burn (%v, %v), open %v", s, l, open)
		}
		if len(alerts) != atClose {
			t.Fatal("post-Close Tick fired an alert")
		}
	}
}
