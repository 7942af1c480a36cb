package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SLOConfig describes a latency service-level objective over one histogram:
// "Objective of observations complete within Threshold". The monitor
// evaluates it with the multiwindow burn-rate method (a short and a long
// lookback must both burn error budget faster than Burn× the sustainable
// rate before an alert fires), which is the in-process equivalent of the
// Prometheus rules shipped in examples/alerts/stability-slo.rules.yml.
type SLOConfig struct {
	// Name identifies the SLO in alerts (e.g. the predicate key).
	Name string
	// Threshold is the latency goal in the histogram's base units
	// (nanoseconds for LatencyOpts histograms). Observations at or below
	// it count as good. Exact when it lands on a power-of-two bucket
	// boundary; otherwise the straddling bucket counts as bad
	// (conservative).
	Threshold int64
	// Objective is the target good fraction in (0,1), e.g. 0.999.
	Objective float64
	// ShortWindow and LongWindow are the two burn lookbacks. The long
	// window decides that real budget is being spent; the short window
	// makes the alert resolve quickly once the burn stops. Defaults:
	// 1m and 10m.
	ShortWindow, LongWindow time.Duration
	// Burn is the burn-rate threshold: an alert needs both windows to
	// consume budget at ≥ Burn× the rate that would exactly exhaust it
	// over the SLO period. Default 10.
	Burn float64
	// OnAlert is called on every transition (firing and resolving), from
	// the Tick that made it — core's node tick for a monitor attached to a
	// node. Keep it fast or hand off, and do not call Close from it.
	OnAlert func(BurnAlert)
}

func (c SLOConfig) normalized() (SLOConfig, error) {
	if c.Threshold <= 0 {
		return c, fmt.Errorf("metrics: SLO %q: Threshold must be > 0", c.Name)
	}
	if !(c.Objective > 0 && c.Objective < 1) {
		return c, fmt.Errorf("metrics: SLO %q: Objective must be in (0,1)", c.Name)
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = time.Minute
	}
	if c.LongWindow <= 0 {
		c.LongWindow = 10 * time.Minute
	}
	if c.LongWindow < c.ShortWindow {
		return c, fmt.Errorf("metrics: SLO %q: LongWindow < ShortWindow", c.Name)
	}
	if c.Burn <= 0 {
		c.Burn = 10
	}
	return c, nil
}

// BurnAlert is one alert transition from an SLOMonitor.
type BurnAlert struct {
	// Name echoes SLOConfig.Name.
	Name string
	// Firing is true when the alert starts and false when it resolves.
	Firing bool
	// ShortBurn and LongBurn are the burn rates that triggered the
	// transition (multiples of the sustainable budget-spend rate).
	ShortBurn, LongBurn float64
	// At is the evaluation time of the transition.
	At time.Time
}

// sloSample is one (time, total, good) reading of the target histogram.
type sloSample struct {
	at    time.Time
	total int64
	good  int64
}

// SLOMonitor watches a Histogram and fires multiwindow burn-rate alerts
// against an SLOConfig. It samples counts rather than recomputing
// quantiles, so a check costs a few atomic loads regardless of traffic.
// It has no clock of its own: whoever owns it calls Tick — core's node
// tick every HeartbeatEvery, an adaptive controller from its own Tick, the
// unit tests with a clock they step by hand.
type SLOMonitor struct {
	cfg  SLOConfig
	hist *Histogram

	// mu is held through a whole Tick, OnAlert included, so Close returns
	// after any Tick in progress has fired what it fires.
	mu      sync.Mutex
	samples []sloSample // ring, oldest first, bounded by LongWindow
	firing  atomic.Bool
	closed  bool
}

// NewSLOMonitor builds a monitor over h; the caller drives it by calling
// Tick.
func NewSLOMonitor(h *Histogram, cfg SLOConfig) (*SLOMonitor, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if h == nil {
		return nil, fmt.Errorf("metrics: SLO %q: nil histogram", cfg.Name)
	}
	return &SLOMonitor{cfg: cfg, hist: h}, nil
}

// Close stops the monitor: it returns after any Tick in progress, and every
// later Tick is a no-op. It does not emit a resolving alert; callers that
// care should treat Close as end-of-signal. Safe to call more than once and
// concurrently with Tick, but not from OnAlert.
func (m *SLOMonitor) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// Firing reports whether the alert is currently active.
func (m *SLOMonitor) Firing() bool { return m.firing.Load() }

// Tick takes one sample at now and evaluates both windows, firing OnAlert
// on a transition. It returns the burn rates the evaluation produced, and
// open is false once the monitor is closed: that Tick took no sample.
func (m *SLOMonitor) Tick(now time.Time) (shortBurn, longBurn float64, open bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, 0, false
	}
	total := m.hist.Count()
	good := m.hist.CountLe(m.cfg.Threshold)

	// A counter reset shows up as the running totals moving backwards. The
	// old baselines are meaningless against the new counters, so restart
	// the sample history rather than reporting a bogus burn.
	if n := len(m.samples); n > 0 {
		last := m.samples[n-1]
		if total < last.total || good < last.good {
			m.samples = m.samples[:0]
		}
	}

	m.samples = append(m.samples, sloSample{at: now, total: total, good: good})
	// Drop samples older than the long window, but keep one sample at or
	// beyond the horizon so the long window always has a baseline.
	horizon := now.Add(-m.cfg.LongWindow)
	cut := 0
	for cut < len(m.samples)-1 && m.samples[cut+1].at.Before(horizon) {
		cut++
	}
	if cut > 0 {
		m.samples = append(m.samples[:0], m.samples[cut:]...)
	}

	shortBurn = m.burnRate(now, m.cfg.ShortWindow)
	longBurn = m.burnRate(now, m.cfg.LongWindow)
	shouldFire := shortBurn >= m.cfg.Burn && longBurn >= m.cfg.Burn
	if m.firing.Swap(shouldFire) != shouldFire && m.cfg.OnAlert != nil {
		m.cfg.OnAlert(BurnAlert{
			Name:      m.cfg.Name,
			Firing:    shouldFire,
			ShortBurn: shortBurn,
			LongBurn:  longBurn,
			At:        now,
		})
	}
	return shortBurn, longBurn, true
}

// burnRate computes the budget burn multiple over the trailing window:
// (bad events / total events) / (1 - objective). Returns 0 when the window
// saw no traffic (no traffic spends no budget). The bad count is clamped
// into [0, total] so a mid-window counter glitch can never produce a burn
// above the all-bad rate or below zero.
func (m *SLOMonitor) burnRate(now time.Time, window time.Duration) float64 {
	if len(m.samples) == 0 {
		return 0
	}
	horizon := now.Add(-window)
	// Baseline: the newest sample at or before the horizon, else the
	// oldest we have.
	base := m.samples[0]
	for _, s := range m.samples {
		if s.at.After(horizon) {
			break
		}
		base = s
	}
	cur := m.samples[len(m.samples)-1]
	dTotal := cur.total - base.total
	if dTotal <= 0 {
		return 0
	}
	dBad := dTotal - (cur.good - base.good)
	if dBad < 0 {
		dBad = 0
	}
	if dBad > dTotal {
		dBad = dTotal
	}
	errRate := float64(dBad) / float64(dTotal)
	return errRate / (1 - m.cfg.Objective)
}
