package chaos

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/core"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/testbed"
)

// AdaptiveOptions is Options as the adaptive scenario reads it: Seed, Fault
// and Logf.
type AdaptiveOptions Options

// AdaptiveFault is the fault the scenario injects against the ladder.
type AdaptiveFault = faultinject.Kind

const (
	// AdaptiveFaultBlackhole darkens the sender→victim data path: the
	// strongest rung stalls outright (no histogram samples at all), so the
	// downgrade must come from the controller's stall detector.
	AdaptiveFaultBlackhole = faultinject.KindBlackhole
	// AdaptiveFaultSpike delays the sender→victim data path: stabilization
	// still completes but far past the SLO target, so the downgrade must
	// come from the multiwindow burn detector.
	AdaptiveFaultSpike = faultinject.KindLatencySpike
)

// The adaptive scenario's fixed parameters: node 1 sends and runs the
// controller over a 3-rung all→majority→2-of ladder.
const (
	// adaptiveWarmup is the healthy phase before the fault engages: long
	// enough for the controller to see clean traffic, and the phase in which
	// any transition at all is a violation.
	adaptiveWarmup = 500 * time.Millisecond
	// adaptiveFaultFor is how long the fault stays engaged. The controller's
	// Cooldown must exceed it so the recovery climb happens after the heal,
	// not as a mid-fault probe.
	adaptiveFaultFor = 1200 * time.Millisecond
	// adaptiveSpikeBy is the extra one-way delay of AdaptiveFaultSpike.
	adaptiveSpikeBy      = 300 * time.Millisecond
	adaptiveSendEvery    = 5 * time.Millisecond
	adaptivePayloadBytes = 128
	// adaptiveHeartbeat is the scenario's node tick: a silent peer is down
	// after 8 ticks, 250ms.
	adaptiveHeartbeat = 250 * time.Millisecond / 8
)

// AdaptiveKey is the predicate key the scenario's controller drives.
const AdaptiveKey = "adaptive"

// fault is the injected kind: a blackhole unless a spike was asked for.
func (o AdaptiveOptions) fault() faultinject.Kind {
	if o.Fault == AdaptiveFaultSpike {
		return AdaptiveFaultSpike
	}
	return AdaptiveFaultBlackhole
}

// tuning is the controller's demo-scale configuration.
func (o AdaptiveOptions) tuning() adaptive.Config {
	cfg := adaptive.Config{
		Target:      40 * time.Millisecond,
		Objective:   0.9,
		ShortWindow: 200 * time.Millisecond,
		LongWindow:  600 * time.Millisecond,
		Burn:        2,
		MinDwell:    100 * time.Millisecond,
		Cooldown:    1500 * time.Millisecond,
		StallAfter:  200 * time.Millisecond,
	}
	if o.fault() == AdaptiveFaultSpike {
		// A spike pauses the frontier for one SpikeBy before the first
		// delayed message lands; push the stall detector past that so
		// the downgrade provably comes from the burn detector.
		cfg.StallAfter = 2 * adaptiveSpikeBy
	}
	return cfg
}

func (o AdaptiveOptions) seed() int64 { return Options(o).withDefaults().Seed }

// Victim returns the faulted peer.
func (o AdaptiveOptions) Victim() int { return seededVictim(o.seed()) }

// Schedule returns the run's fault plan — one seeded victim-link fault after
// the warm-up, healed after adaptiveFaultFor — as a canonical, replayable
// artifact.
func (o AdaptiveOptions) Schedule() *faultinject.Schedule {
	ev := faultinject.Event{
		At:    adaptiveWarmup,
		Dur:   adaptiveFaultFor,
		Kind:  o.fault(),
		Nodes: []int{1, o.Victim()},
	}
	if ev.Kind == AdaptiveFaultSpike {
		ev.Extra = adaptiveSpikeBy
	}
	return &faultinject.Schedule{Seed: o.seed(), Events: []faultinject.Event{ev}}
}

// AdaptiveReport summarizes an AdaptiveDemo run.
type AdaptiveReport struct {
	*Report
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
	victim, fault, tuning := o.Victim(), o.fault(), o.tuning()
	sched := o.Schedule()
	rep := &AdaptiveReport{Victim: victim}
	sc := &scenario{
		name: "chaos: adaptive demo", seed: o.seed(), logf: o.Logf, sched: sched, senders: []int{1},
		cluster:   core.Config{HeartbeatEvery: adaptiveHeartbeat},
		bandwidth: linkBandwidth,
		// The pump appends continuously so the stall detector has
		// head-past-frontier evidence during the blackhole phase.
		sendEvery: adaptiveSendEvery, payloadBytes: adaptivePayloadBytes,
		drain: drainTimeout, sweepEvery: 20 * time.Millisecond,
		// The controller starts only once every link carries traffic: a message
		// sent while the links are still dialing stabilizes a connect-plus-backoff
		// late, and a few such samples fill the short burn window and step the
		// ladder down before the healthy warmup has begun.
		linksUp: true,
	}

	ladder, err := adaptive.NewLadder(
		adaptive.Rung{Name: "all", Source: "MIN($ALLWNODES)"},
		adaptive.Rung{Name: "majority", Source: majoritySource},
		adaptive.Rung{Name: "two", Source: "KTH_MIN(2, $ALLWNODES)"},
	)
	if err != nil {
		return rep, fmt.Errorf("chaos: build ladder: %w", err)
	}

	var (
		ctrl                *adaptive.Controller
		validator           *testbed.Loop
		validated, timedOut atomic.Int64
	)
	sc.start = func(r *run) error {
		sender := r.bed.Node(1)
		c, err := sender.StartAdaptive(AdaptiveKey, ladder, tuning)
		if err != nil {
			return fmt.Errorf("chaos: start adaptive controller: %w", err)
		}
		ctrl = c
		r.check.AttachAdaptive(ctrl, tuning.MinDwell)
		if o.Logf != nil {
			ctrl.OnTransition(func(tr adaptive.Transition) {
				o.Logf("chaos: adaptive %s %s->%s (%s) shortBurn=%.1f longBurn=%.1f",
					tr.Direction, tr.FromRung.Name, tr.ToRung.Name, tr.Reason, tr.ShortBurn, tr.LongBurn)
			})
		}

		// Release validator: the WaitFor-caller half of invariant 10. Each probe
		// appends its own message, waits for it on the adaptive predicate, and —
		// when no transition happened between just-before-append and
		// after-release (so the release provably ran under the sandwiched rung)
		// — re-evaluates that rung's source: ack counters are monotonic, so the
		// released sequence must still satisfy it.
		validator = testbed.Every(50*time.Millisecond, func(ctx context.Context) bool {
			hist0 := len(ctrl.History())
			r1 := ctrl.RungIndex()
			v1, err := sender.Explain(AdaptiveKey)
			if err != nil {
				return true
			}
			src1 := v1.Source
			seq, err := sender.SendCtx(ctx, []byte("probe"))
			if err != nil {
				return true
			}
			wctx, wcancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
			werr := sender.WaitFor(wctx, seq, AdaptiveKey)
			wcancel()
			v2, err2 := sender.Explain(AdaptiveKey)
			r2 := ctrl.RungIndex()
			hist1 := len(ctrl.History())
			if werr != nil {
				timedOut.Add(1) // stalled phase; the controller is expected to fix this
				return true
			}
			if err2 != nil || src1 != v2.Source || r1 != r2 || hist0 != hist1 {
				return true // rung changed mid-probe; release rung is ambiguous
			}
			v, everr := sender.EvalFor(1, src1)
			if everr != nil {
				r.check.Violatef("release validation: rung %d source %q unevaluable: %v", r1, src1, everr)
				return true
			}
			if v < seq {
				r.check.Violatef("release ahead of active rung: WaitFor(%d) returned on rung %d (%q) but its own evaluation is %d",
					seq, r1, src1, v)
			}
			validated.Add(1)
			return true
		})
		return nil
	}
	// Frontier/FIFO/phantom-stability come from the runner; the scenario adds
	// the honesty half of invariant 10.
	sc.sweep = func(r *run, live []*core.Node) { r.check.CheckAdaptiveHonesty(live[0], ctrl) }
	// The fault is healed: wait out the recovery climb back to rung 0, then
	// let the restored strongest rung release one more validated probe.
	sc.settle = func(r *run) {
		if testbed.Await(drainTimeout, func() bool { return ctrl.RungIndex() == 0 && len(ctrl.History()) >= 2 }) {
			served := validated.Load()
			testbed.Await(drainTimeout, func() bool { return validated.Load() > served })
		}
		validator.Stop(0)
	}
	sc.finish = func(r *run) {
		nodes := r.live()
		sender, head := nodes[0], r.heads[1]
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
		rep.ValidatedReleases = int(validated.Load())
		// The phases, as the runner executed the schedule's one event.
		faultStart := r.began.Add(sched.Events[0].At)
		healTime := faultStart.Add(sched.Events[0].Dur)

		// Phase 1 — healthy warmup: any transition here is a flap by definition.
		if h := rep.Transitions; len(h) != 0 && h[0].At.Before(faultStart) {
			r.check.Violatef("controller transitioned during healthy warmup: %+v", h[0])
		}
		// Phase 2 — fault. Under a blackhole the histogram goes silent and the
		// stall detector must act; under a spike the burn detector must.
		if rep.Downgrades == 0 {
			r.check.Violatef("controller never stepped down under the %s fault (transitions: %d)", fault, len(rep.Transitions))
		} else {
			first := rep.Transitions[0]
			if first.Direction != adaptive.DirectionDown {
				r.check.Violatef("first transition was %q, want a downgrade", first.Direction)
			}
			// Under a spike the first over-target sample cannot exist until the
			// first delayed delivery lands, SpikeBy after the fault engages —
			// the burn windows only start filling then.
			lagBound := tuning.LongWindow
			if fault == AdaptiveFaultSpike {
				lagBound += adaptiveSpikeBy
			}
			if lag := first.At.Sub(faultStart); lag > lagBound {
				r.check.Violatef("downgrade took %v after the fault, bound is %v", lag, lagBound)
			}
			wantReason := "stall"
			if fault == AdaptiveFaultSpike {
				wantReason = "slo-burn"
			}
			if first.Reason != wantReason {
				r.check.Violatef("downgrade reason %q, want %q for a %s fault", first.Reason, wantReason, fault)
			}
		}
		// Phase 3 — heal, then the recovery climb back to rung 0.
		if rep.Upgrades == 0 {
			r.check.Violatef("controller never recovered after the heal (rung %d, transitions: %d)",
				ctrl.RungIndex(), len(rep.Transitions))
		} else {
			for _, tr := range rep.Transitions {
				if tr.Direction != adaptive.DirectionUp {
					continue
				}
				if tr.Reason != "recovered" {
					r.check.Violatef("upgrade reason %q, want \"recovered\"", tr.Reason)
				}
				if tr.At.Before(healTime) {
					r.check.Violatef("upgrade at %v preceded the heal at %v: cooldown %v should outlast the fault",
						tr.At, healTime, tuning.Cooldown)
				}
			}
		}
		if rep.Downgrades != rep.Upgrades || ctrl.RungIndex() != 0 {
			r.check.Violatef("controller did not return to the strongest rung: rung %d after %d down / %d up",
				ctrl.RungIndex(), rep.Downgrades, rep.Upgrades)
		}
		if v, err := sender.Explain(AdaptiveKey); err != nil || v.Source != ladder.Rung(0).Source {
			r.check.Violatef("final installed predicate %q (%v), want rung 0 %q", v.Source, err, ladder.Rung(0).Source)
		}
		if rep.ValidatedReleases == 0 {
			r.check.Violatef("release validator never completed a probe (timeouts: %d)", timedOut.Load())
		}

		// Convergence: after the heal everyone — the victim included — drains
		// the full stream, and the restored strongest rung reaches the head.
		wctx, wcancel := context.WithTimeout(context.Background(), drainTimeout)
		defer wcancel()
		if !testbed.Await(drainTimeout, func() bool {
			for i, n := range nodes[1:] {
				if n.Snapshot().RecvLast[1] < head || r.check.Delivered(i+2, 1) < head {
					return false
				}
			}
			return true
		}) {
			for i, n := range nodes[1:] {
				r.check.Violatef("node %d did not drain after heal: recvLast %d delivered %d of head %d",
					i+2, n.Snapshot().RecvLast[1], r.check.Delivered(i+2, 1), head)
			}
		}
		if err := sender.WaitFor(wctx, head, AdaptiveKey); err != nil {
			r.check.Violatef("restored rung 0 never reached head %d: %v", head, err)
		}
	}

	rep.Report, err = sc.run()
	return rep, err
}
