// Package adaptive closes the loop the paper's §VI-D operators close by
// hand: when the stability-latency SLO for a predicate starts burning error
// budget, step the active predicate *down* a user-supplied ladder of
// progressively weaker rungs; when the burn stops and stays stopped, step
// back *up* — with enough hysteresis (a minimum dwell per rung, a cooldown
// of quiet before any upgrade) that the controller never flaps on the
// timescale of a single latency spike.
//
// The controller is deliberately honest about what it promises. The rung it
// *reports* (RungIndex, the stabilizer_adaptive_rung gauge) is never
// stronger than the predicate actually installed in the frontier registry:
// on a downgrade the report moves first and the swap second, on an upgrade
// the swap moves first and the report second. A caller that reads the rung
// and then waits on the frontier can therefore trust the weaker of the two
// views — under-claiming is safe, over-claiming never happens. Chaos
// invariant 10 checks exactly this ordering under fault schedules.
//
// Burn detection alone has a blind spot this package has to cover: the
// stability-latency histogram only gains samples when the frontier
// *advances*. A full stall — partitioned quorum, frontier pinned — produces
// silence, not slow samples, and silence reads as zero burn. The controller
// therefore also reads the node's stall clock (Host.Stuck: appended head past
// the frontier with no frontier movement) and treats StallAfter of it as
// burning.
package adaptive

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"stabilizer/internal/metrics"
)

// Rung is one step of a ladder: a human-readable name and the predicate DSL
// source the controller installs when this rung is active.
type Rung struct {
	// Name labels the rung in transitions, metrics and traces ("all",
	// "majority", ...). Names must be unique within a ladder.
	Name string
	// Source is the predicate DSL for this rung, e.g. "MIN($ALLWNODES)".
	// Sources must be unique within a ladder — the guarantee-honesty check
	// maps installed source back to rung index, which needs the mapping to
	// be injective.
	Source string
}

// Ladder is an ordered, validated sequence of rungs from strongest (index
// 0) to weakest (index Len()-1). The zero Ladder is invalid; build one with
// NewLadder or ParseLadder. Ladders are immutable after construction.
type Ladder struct {
	rungs []Rung
}

// NewLadder validates and builds a ladder. It needs at least two rungs
// (one rung has nothing to adapt between), non-empty names and sources,
// and no duplicate names or sources. DSL validity is checked at
// registration time by the node's existing compile path, not here — the
// ladder is pure data.
func NewLadder(rungs ...Rung) (Ladder, error) {
	if len(rungs) < 2 {
		return Ladder{}, fmt.Errorf("adaptive: ladder needs at least 2 rungs, got %d", len(rungs))
	}
	names := make(map[string]bool, len(rungs))
	sources := make(map[string]bool, len(rungs))
	for i, r := range rungs {
		if r.Name == "" {
			return Ladder{}, fmt.Errorf("adaptive: rung %d has an empty name", i)
		}
		if strings.ContainsAny(r.Name, "=;") {
			return Ladder{}, fmt.Errorf("adaptive: rung name %q may not contain '=' or ';'", r.Name)
		}
		if r.Source == "" {
			return Ladder{}, fmt.Errorf("adaptive: rung %q has an empty source", r.Name)
		}
		if names[r.Name] {
			return Ladder{}, fmt.Errorf("adaptive: duplicate rung name %q", r.Name)
		}
		if sources[r.Source] {
			return Ladder{}, fmt.Errorf("adaptive: duplicate rung source %q (rung %q)", r.Source, r.Name)
		}
		names[r.Name] = true
		sources[r.Source] = true
	}
	return Ladder{rungs: append([]Rung(nil), rungs...)}, nil
}

// ParseLadder builds a ladder from the CLI form
// "name=SOURCE;name=SOURCE;..." — strongest rung first. Sources may
// contain '=' (the split is on the first one); ';' is the rung separator
// and cannot appear inside a source.
func ParseLadder(s string) (Ladder, error) {
	var rungs []Rung
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, src, ok := strings.Cut(part, "=")
		if !ok {
			return Ladder{}, fmt.Errorf("adaptive: rung %q: want name=SOURCE", part)
		}
		rungs = append(rungs, Rung{Name: strings.TrimSpace(name), Source: strings.TrimSpace(src)})
	}
	return NewLadder(rungs...)
}

// Len returns the number of rungs.
func (l Ladder) Len() int { return len(l.rungs) }

// Rung returns rung i; it panics when i is out of range, matching slice
// semantics.
func (l Ladder) Rung(i int) Rung { return l.rungs[i] }

// Rungs returns a copy of the rungs, strongest first.
func (l Ladder) Rungs() []Rung { return append([]Rung(nil), l.rungs...) }

// IndexOfSource returns the index of the rung with the given predicate
// source, or -1 when no rung uses it. Sources are unique per ladder, so
// the answer is well-defined; the honesty checker uses it to map the
// installed predicate back to a rung.
func (l Ladder) IndexOfSource(source string) int {
	for i, r := range l.rungs {
		if r.Source == source {
			return i
		}
	}
	return -1
}

// String renders the ladder in ParseLadder form.
func (l Ladder) String() string {
	parts := make([]string, len(l.rungs))
	for i, r := range l.rungs {
		parts[i] = r.Name + "=" + r.Source
	}
	return strings.Join(parts, ";")
}

// Direction says which way a transition moved.
type Direction string

const (
	// DirectionDown is a downgrade toward a weaker rung (higher index).
	DirectionDown Direction = "down"
	// DirectionUp is an upgrade toward a stronger rung (lower index).
	DirectionUp Direction = "up"
)

// Transition is one controller step recorded in the history and delivered
// to OnTransition hooks.
type Transition struct {
	// Predicate is the frontier key the controller drives.
	Predicate string
	// From and To are rung indexes; FromRung/ToRung the matching rungs.
	From, To         int
	FromRung, ToRung Rung
	// Direction is "down" (weaker) or "up" (stronger).
	Direction Direction
	// At is the controller tick time of the transition.
	At time.Time
	// Reason is why: "slo-burn", "stall", or "recovered".
	Reason string
	// ShortBurn and LongBurn are the burn rates at the deciding tick.
	ShortBurn, LongBurn float64
}

// Config tunes one controller. The zero value is invalid: Target is
// required. Everything else has a sensible default.
type Config struct {
	// Target is the stability-latency SLO: Objective of appends should
	// stabilize within Target. Required, > 0.
	Target time.Duration
	// Objective is the good fraction in (0,1). Default 0.99.
	Objective float64
	// ShortWindow and LongWindow are the multiwindow burn lookbacks
	// (metrics.SLOConfig semantics). Defaults 1m and 10m.
	ShortWindow, LongWindow time.Duration
	// Burn is the burn-rate multiple both windows must exceed before the
	// SLO counts as burning. Default 10.
	Burn float64
	// MinDwell is the minimum time between transitions: once the
	// controller moves, it stays on the new rung at least this long in
	// either direction. Default ShortWindow.
	MinDwell time.Duration
	// Cooldown is how long the SLO must be continuously quiet (no burn,
	// no stall) before an upgrade. Each upgrade restarts the clock, so a
	// ladder is re-climbed one cooldown per rung — deliberately slow.
	// Default LongWindow.
	Cooldown time.Duration
	// StallAfter bounds the burn detector's blind spot: when appends have
	// happened past the frontier and the frontier has not moved for this
	// long, the controller treats the predicate as burning even though
	// the histogram is silent. Default ShortWindow.
	StallAfter time.Duration
}

func (c Config) normalized() (Config, error) {
	if c.Target <= 0 {
		return c, fmt.Errorf("adaptive: Config.Target must be > 0")
	}
	if c.Objective == 0 {
		c.Objective = 0.99
	}
	if !(c.Objective > 0 && c.Objective < 1) {
		return c, fmt.Errorf("adaptive: Config.Objective must be in (0,1)")
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = time.Minute
	}
	if c.LongWindow <= 0 {
		c.LongWindow = 10 * time.Minute
	}
	if c.LongWindow < c.ShortWindow {
		return c, fmt.Errorf("adaptive: Config.LongWindow < ShortWindow")
	}
	if c.Burn <= 0 {
		c.Burn = 10
	}
	if c.MinDwell <= 0 {
		c.MinDwell = c.ShortWindow
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.LongWindow
	}
	if c.StallAfter <= 0 {
		c.StallAfter = c.ShortWindow
	}
	return c, nil
}

// Host is the slice of a node the controller drives. core.Node.StartAdaptive
// passes an adapter over the node; tests use fakes.
type Host interface {
	// ChangePredicate swaps the predicate registered under key.
	ChangePredicate(key, source string) error
	// Stuck returns how long key's frontier has sat still below the highest
	// appended sequence — the one stall clock the node keeps per predicate.
	Stuck(key string) (time.Duration, error)
}

// maxHistory bounds the in-memory transition history per controller.
const maxHistory = 256

// Controller runs the closed loop for one predicate key. It has no clock of
// its own: whoever owns it calls Tick — core's node tick every
// HeartbeatEvery, the unit tests with a clock they step by hand.
type Controller struct {
	host   Host
	key    string
	ladder Ladder
	cfg    Config
	mon    *metrics.SLOMonitor

	rungGauge *metrics.Gauge
	transDown *metrics.Counter
	transUp   *metrics.Counter
	swapErrs  *metrics.Counter

	mu        sync.Mutex
	installed int // rung actually swapped into the registry
	reported  int // rung we claim; invariant: reported >= installed (weaker or equal)
	history   []Transition
	hooks     map[int]func(Transition)
	nextHook  int

	lastChange time.Time // last transition (hysteresis dwell anchor)
	quietSince time.Time // start of the current no-burn-no-stall run
	seeded     bool      // first tick has primed the time anchors
	closed     bool
}

// New builds a controller for key over hist, key's stability-latency
// histogram; the caller drives it by calling Tick. The ladder's rung 0
// predicate must already be registered under key (core.Node.StartAdaptive
// does this). reg, when non-nil, receives the controller metric families.
func New(host Host, key string, ladder Ladder, cfg Config, hist *metrics.Histogram, reg *metrics.Registry) (*Controller, error) {
	if host == nil {
		return nil, fmt.Errorf("adaptive: nil host")
	}
	if key == "" {
		return nil, fmt.Errorf("adaptive: empty predicate key")
	}
	if ladder.Len() < 2 {
		return nil, fmt.Errorf("adaptive: ladder is empty or unvalidated; build it with NewLadder")
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	c := &Controller{
		host:   host,
		key:    key,
		ladder: ladder,
		cfg:    cfg,
		hooks:  map[int]func(Transition){},
	}
	c.mon, err = metrics.NewSLOMonitor(hist, metrics.SLOConfig{
		Name:        key,
		Threshold:   cfg.Target.Nanoseconds(),
		Objective:   cfg.Objective,
		ShortWindow: cfg.ShortWindow,
		LongWindow:  cfg.LongWindow,
		Burn:        cfg.Burn,
	})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		c.rungGauge = reg.GaugeVec("stabilizer_adaptive_rung",
			"Reported ladder rung index for an adaptive predicate (0 = strongest).",
			"predicate").With(key)
		tv := reg.CounterVec("stabilizer_adaptive_transitions_total",
			"Adaptive controller rung transitions by direction.",
			"predicate", "direction")
		c.transDown = tv.With(key, string(DirectionDown))
		c.transUp = tv.With(key, string(DirectionUp))
		c.swapErrs = reg.CounterVec("stabilizer_adaptive_swap_errors_total",
			"Predicate swaps the adaptive controller attempted that failed.",
			"predicate").With(key)
		c.rungGauge.Set(0)
	}
	return c, nil
}

// Close stops the controller: it returns after any Tick in progress has
// taken its step, and every later Tick is a no-op. The active predicate
// stays on whatever rung was installed last — Close freezes the loop, it
// does not restore rung 0. Safe to call more than once, concurrently with
// Tick, and from an OnTransition hook.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Key returns the predicate key the controller drives.
func (c *Controller) Key() string { return c.key }

// Ladder returns the controller's ladder.
func (c *Controller) Ladder() Ladder { return c.ladder }

// RungIndex returns the index of the rung the controller currently
// *reports* — the guarantee it claims to callers. By the honesty ordering
// it is never stronger (never a lower index) than the installed rung.
func (c *Controller) RungIndex() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reported
}

// Rung returns the reported rung.
func (c *Controller) Rung() Rung { return c.ladder.Rung(c.RungIndex()) }

// InstalledIndex returns the index of the rung whose predicate is actually
// installed in the registry. It can be momentarily stronger than the
// reported rung mid-transition, never weaker.
func (c *Controller) InstalledIndex() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.installed
}

// History returns a copy of the recorded transitions, oldest first,
// bounded to the most recent 256.
func (c *Controller) History() []Transition {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Transition(nil), c.history...)
}

// OnTransition registers a hook called after every transition, on the Tick
// caller's goroutine — core's node tick (keep it fast or hand off) — and
// returns a cancel func that detaches it. A nil fn is ignored (the cancel is
// still non-nil and harmless).
func (c *Controller) OnTransition(fn func(Transition)) (cancel func()) {
	if fn == nil {
		return func() {}
	}
	c.mu.Lock()
	id := c.nextHook
	c.nextHook++
	c.hooks[id] = fn
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.hooks, id)
		c.mu.Unlock()
	}
}

// Firing reports whether the underlying SLO monitor currently considers
// the burn alert active.
func (c *Controller) Firing() bool { return c.mon.Firing() }

// Tick runs one controller evaluation at now: sample the SLO, update the
// stall detector, and take at most one ladder step. Core's node tick calls
// it every HeartbeatEvery. A tick after Close is a no-op.
func (c *Controller) Tick(now time.Time) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	shortBurn, longBurn, _ := c.mon.Tick(now)
	burning := c.mon.Firing()

	// Stall detection: the histogram only sees frontier advances, so a
	// pinned frontier with appends outstanding is burning even at zero
	// sample volume.
	stuck, serr := c.host.Stuck(c.key)
	if !c.seeded {
		c.seeded = true
		c.lastChange = now.Add(-c.cfg.MinDwell) // first step needs no dwell
		c.quietSince = now
	}
	stalled := serr == nil && stuck >= c.cfg.StallAfter

	reason := ""
	switch {
	case burning:
		reason = "slo-burn"
	case stalled:
		reason = "stall"
	}
	bad := burning || stalled
	if bad {
		c.quietSince = time.Time{}
	} else if c.quietSince.IsZero() {
		c.quietSince = now
	}

	dwellOK := now.Sub(c.lastChange) >= c.cfg.MinDwell
	var tr *Transition
	switch {
	case bad && dwellOK && c.installed < c.ladder.Len()-1:
		tr = c.stepLocked(c.installed+1, DirectionDown, reason, now, shortBurn, longBurn)
	case !bad && dwellOK && c.installed > 0 &&
		!c.quietSince.IsZero() && now.Sub(c.quietSince) >= c.cfg.Cooldown:
		tr = c.stepLocked(c.installed-1, DirectionUp, "recovered", now, shortBurn, longBurn)
		if tr != nil {
			// Each upgrade restarts the quiet clock: climbing the whole
			// ladder takes one cooldown per rung.
			c.quietSince = now
		}
	}
	var hooks []func(Transition)
	if tr != nil {
		for _, fn := range c.hooks {
			hooks = append(hooks, fn)
		}
	}
	c.mu.Unlock()

	if tr != nil {
		for _, fn := range hooks {
			fn(*tr)
		}
	}
}

// stepLocked moves the controller to rung `to`, preserving the honesty
// ordering: the reported rung is weakened before the swap on the way down
// and strengthened only after the swap on the way up, so the report is
// never stronger than the installed predicate. Called with c.mu held;
// returns nil when the swap fails (the loop retries next tick).
func (c *Controller) stepLocked(to int, dir Direction, reason string, now time.Time, shortBurn, longBurn float64) *Transition {
	from := c.installed
	if dir == DirectionDown {
		c.reported = to
		if c.rungGauge != nil {
			c.rungGauge.Set(int64(to))
		}
	}
	if err := c.host.ChangePredicate(c.key, c.ladder.Rung(to).Source); err != nil {
		if c.swapErrs != nil {
			c.swapErrs.Inc()
		}
		// On a failed downgrade the weaker report stands while the stronger
		// predicate stays installed — merely conservative, never dishonest —
		// and the next tick retries the swap (lastChange was not advanced,
		// so the dwell gate stays open).
		return nil
	}
	c.installed = to
	if dir == DirectionUp {
		c.reported = to
		if c.rungGauge != nil {
			c.rungGauge.Set(int64(to))
		}
	}
	switch dir {
	case DirectionDown:
		if c.transDown != nil {
			c.transDown.Inc()
		}
	case DirectionUp:
		if c.transUp != nil {
			c.transUp.Inc()
		}
	}
	c.lastChange = now
	tr := Transition{
		Predicate: c.key,
		From:      from,
		To:        to,
		FromRung:  c.ladder.Rung(from),
		ToRung:    c.ladder.Rung(to),
		Direction: dir,
		At:        now,
		Reason:    reason,
		ShortBurn: shortBurn,
		LongBurn:  longBurn,
	}
	c.history = append(c.history, tr)
	if len(c.history) > maxHistory {
		c.history = append(c.history[:0], c.history[len(c.history)-maxHistory:]...)
	}
	return &tr
}
