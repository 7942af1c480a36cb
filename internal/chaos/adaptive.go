package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/metrics"
)

// AttachAdaptive subscribes to an adaptive controller's transition stream
// and enforces the flap half of invariant 10: consecutive transitions are
// at least minDwell apart, every transition moves exactly one rung, and the
// direction label matches the move. It returns the hook's cancel func.
func (c *Checker) AttachAdaptive(ctrl *adaptive.Controller, minDwell time.Duration) func() {
	var mu sync.Mutex
	var last time.Time
	var have bool
	return ctrl.OnTransition(func(tr adaptive.Transition) {
		if tr.To != tr.From+1 && tr.To != tr.From-1 {
			c.Violatef("adaptive transition skips rungs: %q %d->%d", tr.Predicate, tr.From, tr.To)
		}
		if (tr.Direction == adaptive.DirectionDown && tr.To != tr.From+1) ||
			(tr.Direction == adaptive.DirectionUp && tr.To != tr.From-1) {
			c.Violatef("adaptive direction mislabeled: %q %d->%d labeled %q",
				tr.Predicate, tr.From, tr.To, tr.Direction)
		}
		mu.Lock()
		defer mu.Unlock()
		if have && tr.At.Sub(last) < minDwell {
			c.Violatef("adaptive flap: %q transitions %v apart, MinDwell is %v",
				tr.Predicate, tr.At.Sub(last), minDwell)
		}
		last, have = tr.At, true
	})
}

// CheckAdaptiveHonesty sweeps the guarantee half of invariant 10: no
// controller may report a rung stronger (lower index) than the predicate
// actually installed in the registry. The reported rung is re-read around
// the registry read; a mismatch means a transition is in flight and the
// sample is skipped — the honesty ordering inside the controller makes the
// remaining samples race-free in both directions.
func (c *Checker) CheckAdaptiveHonesty(nodes []*core.Node) {
	for _, n := range nodes {
		for _, ctrl := range n.AdaptiveControllers() {
			r1 := ctrl.RungIndex()
			src, err := n.PredicateSource(ctrl.Key())
			r2 := ctrl.RungIndex()
			if err != nil || r1 != r2 {
				continue
			}
			idx := ctrl.Ladder().IndexOfSource(src)
			if idx == -1 {
				c.Violatef("adaptive honesty: node %d predicate %q installed source %q is not a ladder rung",
					n.Self(), ctrl.Key(), src)
				continue
			}
			if r1 < idx {
				c.Violatef("adaptive honesty: node %d predicate %q reports rung %d but only rung %d (weaker) is installed",
					n.Self(), ctrl.Key(), r1, idx)
			}
		}
	}
}

// AdaptiveFault picks the fault the demo injects against the ladder.
type AdaptiveFault string

const (
	// AdaptiveFaultBlackhole darkens the sender→victim data path: the
	// strongest rung stalls outright (no histogram samples at all), so the
	// downgrade must come from the controller's stall detector.
	AdaptiveFaultBlackhole AdaptiveFault = "blackhole"
	// AdaptiveFaultSpike delays the sender→victim data path: stabilization
	// still completes but far past the SLO target, so the downgrade must
	// come from the multiwindow burn detector.
	AdaptiveFaultSpike AdaptiveFault = "spike"
)

// AdaptiveOptions parameterizes AdaptiveDemo. The zero value (plus a Seed)
// runs the canonical scenario: 4 nodes, a 3-rung all→majority→2-of ladder
// on the sender, one seeded victim link faulted mid-run and healed.
type AdaptiveOptions struct {
	// Seed pins the victim choice and the fabric jitter. Zero means 1.
	Seed int64
	// Fault picks the injected fault (default AdaptiveFaultBlackhole).
	Fault AdaptiveFault
	// N is the cluster size (default 4). Node 1 is always the sender and
	// runs the controller.
	N int
	// Warmup is the healthy phase before the fault engages (default 500ms):
	// long enough for the controller to see clean traffic, and the phase in
	// which any transition at all is a violation.
	Warmup time.Duration
	// FaultFor is how long the fault stays engaged (default 1.2s). The
	// controller's Cooldown must exceed it so the recovery climb happens
	// after the heal, not as a mid-fault probe.
	FaultFor time.Duration
	// SpikeBy is the extra one-way delay of AdaptiveFaultSpike
	// (default 300ms).
	SpikeBy time.Duration
	// SendEvery is the pump's inter-message gap (default 5ms).
	SendEvery time.Duration
	// DrainTimeout bounds the post-heal recovery and convergence waits
	// (default 20s).
	DrainTimeout time.Duration
	// HeartbeatEvery / PeerTimeout tune the failure detectors
	// (defaults 25ms / 250ms).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	// Adaptive is the controller tuning; the zero value picks demo-scale
	// windows (Target 40ms, Short 200ms, Long 600ms, Burn 2, CheckEvery
	// 25ms, MinDwell 100ms, Cooldown 1.5s, StallAfter 200ms).
	Adaptive adaptive.Config
	// Logf, when set, traces the run (fault, transitions, recovery).
	Logf func(format string, args ...any)
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Fault == "" {
		o.Fault = AdaptiveFaultBlackhole
	}
	if o.N == 0 {
		o.N = 4
	}
	if o.Warmup == 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.FaultFor == 0 {
		o.FaultFor = 1200 * time.Millisecond
	}
	if o.SpikeBy == 0 {
		o.SpikeBy = 300 * time.Millisecond
	}
	if o.SendEvery == 0 {
		o.SendEvery = 5 * time.Millisecond
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 20 * time.Second
	}
	if o.HeartbeatEvery == 0 {
		o.HeartbeatEvery = 25 * time.Millisecond
	}
	if o.PeerTimeout == 0 {
		o.PeerTimeout = 250 * time.Millisecond
	}
	if o.Adaptive.Target == 0 {
		o.Adaptive = adaptive.Config{
			Target:      40 * time.Millisecond,
			Objective:   0.9,
			ShortWindow: 200 * time.Millisecond,
			LongWindow:  600 * time.Millisecond,
			Burn:        2,
			CheckEvery:  25 * time.Millisecond,
			MinDwell:    100 * time.Millisecond,
			Cooldown:    1500 * time.Millisecond,
			StallAfter:  200 * time.Millisecond,
		}
		if o.Fault == AdaptiveFaultSpike {
			// A spike pauses the frontier for one SpikeBy before the first
			// delayed message lands; push the stall detector past that so
			// the downgrade provably comes from the burn detector.
			o.Adaptive.StallAfter = 2 * o.SpikeBy
		}
	}
	return o
}

// Victim returns the faulted peer the seed selects: a deterministic draw
// from the non-sender nodes 2..N.
func (o AdaptiveOptions) Victim() int {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	return 2 + rng.Intn(o.N-1)
}

// Schedule returns the run's fault plan — one seeded victim-link fault,
// healed after FaultFor — as a canonical, replayable artifact. AdaptiveDemo
// applies and heals the event itself, so the schedule is the replay
// fingerprint, not a Runner input.
func (o AdaptiveOptions) Schedule() *faultinject.Schedule {
	o = o.withDefaults()
	ev := faultinject.Event{
		At:   o.Warmup,
		Dur:  o.FaultFor,
		Kind: faultinject.KindBlackhole,
		Nodes: []int{
			1, o.Victim(),
		},
	}
	if o.Fault == AdaptiveFaultSpike {
		ev.Kind = faultinject.KindLatencySpike
		ev.Extra = o.SpikeBy
	}
	return &faultinject.Schedule{Seed: o.Seed, Events: []faultinject.Event{ev}}
}

// AdaptiveKey is the predicate key AdaptiveDemo's controller drives.
const AdaptiveKey = "adaptive"

// AdaptiveReport summarizes an AdaptiveDemo run.
type AdaptiveReport struct {
	// Schedule is the executed fault plan; its Fingerprint is the replay
	// artifact.
	Schedule *faultinject.Schedule
	// Victim is the faulted peer.
	Victim int
	// Head is the sender's final stream head.
	Head uint64
	// Transitions is the controller's recorded history, oldest first.
	Transitions []adaptive.Transition
	// Downgrades and Upgrades count transitions by direction.
	Downgrades, Upgrades int
	// ValidatedReleases counts WaitFor completions that were successfully
	// cross-checked against the rung active at release time.
	ValidatedReleases int
	// Violations lists every invariant violation (empty on success).
	Violations []string
}

// AdaptiveDemo runs the closed-loop consistency acceptance scenario: a
// sender pumps under an SLO-driven 3-rung ladder while the seeded victim
// link is faulted and later healed. It demonstrates — and the checker
// enforces — that
//
//   - the controller steps down within one SLO long-window of the fault
//     (via the burn detector under a latency spike, via the stall detector
//     under a blackhole, where the histogram is silent);
//   - it steps back up after the heal plus one cooldown, and never during
//     the healthy warmup;
//   - invariant 10 holds throughout: the reported rung is never stronger
//     than the installed predicate, transitions never come closer together
//     than MinDwell, and WaitFor callers observe released sequences
//     consistent with the rung active at release time.
func AdaptiveDemo(o AdaptiveOptions) (*AdaptiveReport, error) {
	o = o.withDefaults()
	victim := o.Victim()
	sched := o.Schedule()
	rep := &AdaptiveReport{Schedule: sched, Victim: victim}
	if o.Logf != nil {
		o.Logf("chaos: adaptive demo seed=%d fingerprint=%s fault=%s victim=%d",
			o.Seed, sched.Fingerprint(), o.Fault, victim)
	}

	matrix := emunet.NewMatrix()
	matrix.Default = emunet.Link{
		OneWayLatency: 2 * time.Millisecond,
		Jitter:        time.Millisecond,
		BandwidthBps:  emunet.Mbps(200),
	}
	fabric := emunet.NewMemNetwork(matrix)
	fabric.Seed(o.Seed)
	defer fabric.Close()

	inj := faultinject.New(metrics.NewRegistry())
	defer inj.Close()
	fabric.SetConnHook(inj.Hook())

	topo := &config.Topology{Self: 1}
	for i := 1; i <= o.N; i++ {
		topo.Nodes = append(topo.Nodes, config.Node{
			Name:   fmt.Sprintf("node%d", i),
			AZ:     fmt.Sprintf("az%d", i),
			Region: fmt.Sprintf("region%d", i),
		})
	}

	maj := o.N/2 + 1
	ladder, err := adaptive.NewLadder(
		adaptive.Rung{Name: "all", Source: "MIN($ALLWNODES)"},
		adaptive.Rung{Name: "majority", Source: fmt.Sprintf("KTH_MIN(%d, $ALLWNODES)", maj)},
		adaptive.Rung{Name: "two", Source: "KTH_MIN(2, $ALLWNODES)"},
	)
	if err != nil {
		return rep, fmt.Errorf("chaos: build ladder: %w", err)
	}

	check := NewChecker(o.N, []int{1})
	cl, err := core.OpenCluster(core.Config{
		Topology:       topo,
		Network:        fabric,
		HeartbeatEvery: o.HeartbeatEvery,
		PeerTimeout:    o.PeerTimeout,
	})
	if err != nil {
		return rep, fmt.Errorf("chaos: open cluster: %w", err)
	}
	defer cl.Close()
	nodes := cl.Nodes()
	for _, n := range nodes {
		check.Attach(n)
	}
	sender := nodes[0]

	// The controller starts only once every link carries traffic: a message
	// sent while the links are still dialing stabilizes a connect-plus-backoff
	// late, and a few such samples fill the short burn window and step the
	// ladder down before the healthy warmup has begun.
	seq, err := sender.Send([]byte("warmup"))
	if err != nil {
		return rep, fmt.Errorf("chaos: warmup send: %w", err)
	}
	for deadline := time.Now().Add(o.DrainTimeout); ; time.Sleep(time.Millisecond) {
		if v, err := sender.EvalFor(1, "MIN($ALLWNODES)"); err == nil && v >= seq {
			break
		}
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("chaos: warmup message not received everywhere within %v", o.DrainTimeout)
		}
	}
	ctrl, err := sender.StartAdaptive(AdaptiveKey, ladder, o.Adaptive)
	if err != nil {
		return rep, fmt.Errorf("chaos: start adaptive controller: %w", err)
	}

	detach := check.AttachAdaptive(ctrl, o.Adaptive.MinDwell)
	defer detach()
	if o.Logf != nil {
		ctrl.OnTransition(func(tr adaptive.Transition) {
			o.Logf("chaos: adaptive %s %s->%s (%s) shortBurn=%.1f longBurn=%.1f",
				tr.Direction, tr.FromRung.Name, tr.ToRung.Name, tr.Reason, tr.ShortBurn, tr.LongBurn)
		})
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup

	// Invariant sweeps: frontier/FIFO/phantom-stability plus the honesty
	// half of invariant 10.
	aux.Add(1)
	go func() {
		defer aux.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				check.CrossCheck(nodes)
				check.CheckAdaptiveHonesty(nodes)
			}
		}
	}()

	// Pump: append continuously so the stall detector has head-past-frontier
	// evidence during the blackhole phase.
	pumpCtx, pumpCancel := context.WithCancel(context.Background())
	defer pumpCancel()
	aux.Add(1)
	go func() {
		defer aux.Done()
		payload := make([]byte, 128)
		tick := time.NewTicker(o.SendEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := sender.SendCtx(pumpCtx, payload); err != nil && pumpCtx.Err() == nil {
					check.Violatef("pump send failed: %v", err)
					return
				}
			}
		}
	}()

	// Release validator: the WaitFor-caller half of invariant 10. Each probe
	// appends its own message, waits for it on the adaptive predicate, and —
	// when no transition happened between just-before-append and
	// after-release (so the release provably ran under the sandwiched rung)
	// — re-evaluates that rung's source: ack counters are monotonic, so the
	// released sequence must still satisfy it.
	var validated, timedOut int64
	var valMu sync.Mutex
	aux.Add(1)
	go func() {
		defer aux.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			hist0 := len(ctrl.History())
			r1 := ctrl.RungIndex()
			src1, err := sender.PredicateSource(AdaptiveKey)
			if err != nil {
				continue
			}
			seq, err := sender.SendCtx(pumpCtx, []byte("probe"))
			if err != nil {
				continue
			}
			wctx, wcancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
			werr := sender.WaitFor(wctx, seq, AdaptiveKey)
			wcancel()
			src2, err2 := sender.PredicateSource(AdaptiveKey)
			r2 := ctrl.RungIndex()
			hist1 := len(ctrl.History())
			valMu.Lock()
			if werr != nil {
				timedOut++ // stalled phase; the controller is expected to fix this
				valMu.Unlock()
				continue
			}
			valMu.Unlock()
			if err2 != nil || src1 != src2 || r1 != r2 || hist0 != hist1 {
				continue // rung changed mid-probe; release rung is ambiguous
			}
			v, everr := sender.EvalFor(1, src1)
			if everr != nil {
				check.Violatef("release validation: rung %d source %q unevaluable: %v", r1, src1, everr)
				continue
			}
			if v < seq {
				check.Violatef("release ahead of active rung: WaitFor(%d) returned on rung %d (%q) but its own evaluation is %d",
					seq, r1, src1, v)
			}
			valMu.Lock()
			validated++
			valMu.Unlock()
		}
	}()

	// Phase 1 — healthy warmup: any transition here is a flap by definition.
	time.Sleep(o.Warmup)
	if h := ctrl.History(); len(h) != 0 {
		check.Violatef("controller transitioned during healthy warmup: %+v", h[0])
	}

	// Phase 2 — fault. Under a blackhole the histogram goes silent and the
	// stall detector must act; under a spike the burn detector must.
	faultStart := time.Now()
	switch o.Fault {
	case AdaptiveFaultSpike:
		inj.Spike(1, victim, o.SpikeBy)
	default:
		inj.Blackhole(1, victim)
	}
	if o.Logf != nil {
		o.Logf("chaos: fault engaged (%s 1->%d)", o.Fault, victim)
	}
	time.Sleep(o.FaultFor)

	// Phase 3 — heal, then wait out the recovery climb back to rung 0.
	switch o.Fault {
	case AdaptiveFaultSpike:
		inj.ClearSpike(1, victim, o.SpikeBy)
	default:
		inj.HealBlackhole(1, victim)
	}
	healTime := time.Now()
	if o.Logf != nil {
		o.Logf("chaos: fault healed")
	}
	recoverDeadline := time.Now().Add(o.DrainTimeout)
	for time.Now().Before(recoverDeadline) {
		if ctrl.RungIndex() == 0 && len(ctrl.History()) >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the restored strongest rung serve traffic briefly before teardown.
	time.Sleep(300 * time.Millisecond)

	close(stop)
	pumpCancel()
	aux.Wait()

	head := sender.NextSeq() - 1
	rep.Head = head
	rep.Transitions = ctrl.History()
	for _, tr := range rep.Transitions {
		switch tr.Direction {
		case adaptive.DirectionDown:
			rep.Downgrades++
		case adaptive.DirectionUp:
			rep.Upgrades++
		}
	}
	valMu.Lock()
	rep.ValidatedReleases = int(validated)
	valMu.Unlock()

	// The demo must have exercised the loop it exists to prove.
	if rep.Downgrades == 0 {
		check.Violatef("controller never stepped down under the %s fault (transitions: %d)", o.Fault, len(rep.Transitions))
	} else {
		first := rep.Transitions[0]
		if first.Direction != adaptive.DirectionDown {
			check.Violatef("first transition was %q, want a downgrade", first.Direction)
		}
		// Under a spike the first over-target sample cannot exist until the
		// first delayed delivery lands, SpikeBy after the fault engages —
		// the burn windows only start filling then.
		lagBound := o.Adaptive.LongWindow
		if o.Fault == AdaptiveFaultSpike {
			lagBound += o.SpikeBy
		}
		if lag := first.At.Sub(faultStart); lag > lagBound {
			check.Violatef("downgrade took %v after the fault, bound is %v", lag, lagBound)
		}
		wantReason := "stall"
		if o.Fault == AdaptiveFaultSpike {
			wantReason = "slo-burn"
		}
		if first.Reason != wantReason {
			check.Violatef("downgrade reason %q, want %q for a %s fault", first.Reason, wantReason, o.Fault)
		}
	}
	if rep.Upgrades == 0 {
		check.Violatef("controller never recovered after the heal (rung %d, transitions: %d)",
			ctrl.RungIndex(), len(rep.Transitions))
	} else {
		for _, tr := range rep.Transitions {
			if tr.Direction != adaptive.DirectionUp {
				continue
			}
			if tr.Reason != "recovered" {
				check.Violatef("upgrade reason %q, want \"recovered\"", tr.Reason)
			}
			if tr.At.Before(healTime) {
				check.Violatef("upgrade at %v preceded the heal at %v: cooldown %v should outlast the fault",
					tr.At, healTime, o.Adaptive.Cooldown)
			}
		}
	}
	if rep.Downgrades != rep.Upgrades || ctrl.RungIndex() != 0 {
		check.Violatef("controller did not return to the strongest rung: rung %d after %d down / %d up",
			ctrl.RungIndex(), rep.Downgrades, rep.Upgrades)
	}
	if src, err := sender.PredicateSource(AdaptiveKey); err != nil || src != ladder.Rung(0).Source {
		check.Violatef("final installed predicate %q (%v), want rung 0 %q", src, err, ladder.Rung(0).Source)
	}
	if rep.ValidatedReleases == 0 {
		check.Violatef("release validator never completed a probe (timeouts: %d)", timedOut)
	}

	// Convergence: after the heal everyone — the victim included — drains
	// the full stream, and the restored strongest rung reaches the head.
	deadline := time.Now().Add(o.DrainTimeout)
	converged := func() bool {
		for i, n := range nodes {
			if i == 0 {
				continue
			}
			if n.RecvLast(1) < head || check.Delivered(i+1, 1) < head {
				return false
			}
		}
		return true
	}
	for !converged() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !converged() {
		for i, n := range nodes {
			if i == 0 {
				continue
			}
			check.Violatef("node %d did not drain after heal: recvLast %d delivered %d of head %d",
				i+1, n.RecvLast(1), check.Delivered(i+1, 1), head)
		}
	}
	wctx, wcancel := context.WithDeadline(context.Background(), deadline)
	if err := sender.WaitFor(wctx, head, AdaptiveKey); err != nil {
		check.Violatef("restored rung 0 never reached head %d: %v", head, err)
	}
	wcancel()

	check.CrossCheck(nodes)
	check.CheckAdaptiveHonesty(nodes)

	rep.Violations = check.Violations()
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("chaos: adaptive demo: %d invariant violation(s), seed %d (fingerprint %s):\n%s",
			len(rep.Violations), o.Seed, sched.Fingerprint(), joinLines(rep.Violations))
	}
	return rep, nil
}
