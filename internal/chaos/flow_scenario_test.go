package chaos

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/optrace"
	"stabilizer/internal/testbed"
	"stabilizer/internal/transport"
)

// FlowOptions is Options as the flow scenario reads it: Seed, Logf, and
// Horizon for how long the pump runs (the blackhole outlasts it).
type FlowOptions Options

// The flow scenario's fixed parameters: one sender (node 1) pumping 512-byte
// payloads every millisecond under a 64 KiB send-log cap.
const (
	flowSendEvery = time.Millisecond
	// flowPayloadBytes doubles as the bounded-memory slack: admission control
	// may overshoot the cap by at most one in-flight payload.
	flowPayloadBytes  = 512
	flowCapBytes      = 64 << 10
	flowStallDeadline = 150 * time.Millisecond
)

// reclaimFallbackSource is the reclaim predicate the flow scenario falls back
// to: the strongest one that still advances with one peer dark. $ALLWNODES
// counts the origin, whose value is the head, so with the dark peer lowest
// the second-lowest value is the slower healthy receiver's. The majority
// predicate, KTH_MIN(3) over four nodes, is the faster one's: truncating
// there passes the slower receiver's link cursor, which an unspilled log then
// snaps to its base, and that receiver's stream has a gap.
const reclaimFallbackSource = "KTH_MIN(2, $ALLWNODES)"

// flowTrace samples every op into a 16Ki-event ring, so the scenario's stall
// reports always ship a recorder tail for the blamed victim (invariant 7's
// stall half, enforced via AttachStallTraces).
var flowTrace = optrace.Config{SampleEvery: 1, RingSize: 1 << 14}

// seededVictim is the faulted peer a seed selects: a deterministic draw from
// the non-sender nodes 2..N.
func seededVictim(seed int64) int {
	return 2 + rand.New(rand.NewSource(seed)).Intn(clusterSize-1)
}

// Victim returns the blackholed peer.
func (o FlowOptions) Victim() int { return seededVictim(Options(o).withDefaults().Seed) }

// Schedule returns the run's fault plan — a single blackhole of the
// sender→victim direction from the first byte — as a canonical, replayable
// artifact. "Whole run" means the victim stays dark past the last check, so
// the event outlasts the horizon by every wait that can follow it (the pump's
// stop grace, then the drain); the runner abandons the schedule there instead
// of healing it.
func (o FlowOptions) Schedule() *faultinject.Schedule {
	d := Options(o).withDefaults()
	return &faultinject.Schedule{Seed: d.Seed, Events: []faultinject.Event{
		{At: 0, Dur: d.Horizon + 2*drainTimeout, Kind: faultinject.KindBlackhole, Nodes: []int{1, o.Victim()}},
	}}
}

// FlowReport summarizes a FlowDemo run.
type FlowReport struct {
	*Report
	// Victim is the blackholed peer.
	Victim int
	// Head is the sender's final stream head.
	Head uint64
	// FallbackHead is the head at the moment the reclaim predicate was
	// swapped to reclaimFallbackSource (0 if the fallback never fired).
	FallbackHead uint64
	// MaxLogBytes is the largest send-log occupancy any sweep observed.
	MaxLogBytes int64
	// BlockedAppends counts appends that waited on admission control.
	BlockedAppends int64
	// StallReports counts the stall verdicts the sender's sweep fired.
	StallReports int
}

// FlowDemo runs the bounded-memory acceptance scenario: the sender pumps
// under a hard send-log cap while one peer is blackholed for the entire run.
// It demonstrates — and the checker enforces — that
//
//   - memory stays bounded: send-log bytes never exceed the cap plus one
//     in-flight payload (invariant 5), because admission control blocks the
//     pump once the stalled full-set reclaim predicate pins the log;
//   - degraded mode is honest: the stall monitor blames exactly the
//     blackholed peer (invariant 6), and Node.Snapshot names it too;
//   - the fallback restores progress: when the app (this harness) reacts to
//     the stall notification by swapping reclaim to one the dark peer cannot
//     hold, truncation resumes, blocked appends drain, and appends to
//     healthy-majority predicates keep completing to the end of the run;
//   - the fallback is safe: truncation never passes what a healthy receiver
//     holds, which every sweep checks.
func FlowDemo(o FlowOptions) (*FlowReport, error) {
	o = FlowOptions(Options(o).withDefaults())
	victim := o.Victim()
	rep := &FlowReport{Victim: victim}
	sc := &scenario{
		name: "chaos: flow demo", seed: o.Seed, logf: o.Logf, sched: o.Schedule(), senders: []int{1},
		// Auto-reclaim stays ON: bounded memory requires truncation, and the
		// scenario's whole point is watching reclaim stall and fall back.
		cluster: core.Config{
			HeartbeatEvery: heartbeatEvery,
			Flow:           transport.FlowConfig{MaxBytes: flowCapBytes},
			Stall:          core.StallConfig{Deadline: flowStallDeadline},
			Trace:          flowTrace,
		},
		bandwidth: linkBandwidth,
		sendEvery: flowSendEvery, payloadBytes: flowPayloadBytes,
		horizon: o.Horizon, drain: drainTimeout, sweepEvery: 20 * time.Millisecond,
	}
	sc.attach = func(r *run, n *core.Node) {
		r.check.AttachStallHonesty(n, func(peer int) bool { return peer == victim })
		r.check.AttachStallTraces(n)
	}

	// Degraded-mode notification → fallback trigger. The app pattern under
	// test: on a reclaim stall naming the victim, wait for real backpressure
	// (the log actually full), then swap reclaim to reclaimFallbackSource so
	// truncation no longer waits on the dark peer.
	var (
		stallCount     atomic.Int64
		reclaimStalled atomic.Bool
		fallbackHead   atomic.Uint64
	)
	sc.start = func(r *run) error {
		if _, err := r.registerAllMaj(); err != nil {
			return err
		}
		r.bed.Node(1).OnStall(func(v core.PredicateState) {
			stallCount.Add(1)
			r.logf("chaos: stall verdict: predicate %q frontier %d/%d held by %+v", v.Key, v.Frontier, v.Head, v.Holding)
			if v.Key == core.ReclaimPredicateKey {
				reclaimStalled.Store(true)
			}
		})
		return nil
	}
	// Invariant sweeps: bounded memory beside the runner's phantom-stability
	// check, the high-water bookkeeping for the report, and the one-shot
	// fallback.
	sc.sweep = func(r *run, live []*core.Node) {
		sender := live[0]
		r.check.CheckBounded(live, flowCapBytes, flowPayloadBytes)
		log := sender.Snapshot().Log
		if log.Bytes > rep.MaxLogBytes {
			rep.MaxLogBytes = log.Bytes
		}
		// The reclaim never passes a healthy receiver: Base-1 is at most the
		// "received" ACK the sender holds from it, which the runner's cross
		// check bounds by RecvLast[1], so Base <= RecvLast[1]+1 follows. The
		// ACK, not RecvLast, is checked because a reclaim ahead of the slower
		// receiver passes its ACK on every run but its RecvLast only when its
		// link also lags. Base is read first and both only grow.
		received := sender.Snapshot().Acks["received"]
		for p := 2; p <= clusterSize; p++ {
			if p == victim {
				continue
			}
			if ack := received[p-1]; log.Base > ack+1 {
				r.check.Violatef("sender reclaimed through %d past healthy node %d's received ACK %d", log.Base-1, p, ack)
			}
		}
		if fallbackHead.Load() != 0 || !reclaimStalled.Load() || !log.Full {
			return
		}
		fallbackHead.Store(sender.NextSeq() - 1)
		if err := sender.ChangeReclaimPredicate(reclaimFallbackSource); err != nil {
			r.check.Violatef("reclaim fallback failed: %v", err)
		} else {
			r.logf("chaos: reclaim fallback to %s at head %d", reclaimFallbackSource, fallbackHead.Load())
		}
	}
	sc.finish = func(r *run) {
		nodes := r.live()
		sender, head := nodes[0], r.heads[1]
		rep.Head = head
		snap := sender.Snapshot()
		rep.FallbackHead = fallbackHead.Load()
		rep.BlockedAppends = snap.Log.BlockedAppends
		rep.StallReports = int(stallCount.Load())

		// The demo must actually have exercised the degraded path.
		if rep.FallbackHead == 0 {
			r.check.Violatef("reclaim fallback never fired (stalls=%d, backpressured=%v)", rep.StallReports, snap.Log.Full)
		} else if head <= rep.FallbackHead {
			r.check.Violatef("appends stopped after fallback: head %d never passed fallback head %d", head, rep.FallbackHead)
		}
		if rep.BlockedAppends == 0 {
			r.check.Violatef("admission control never engaged: 0 blocked appends at cap %d", flowCapBytes)
		}
		// The verdict on the full-set predicate must name exactly the
		// blackholed peer as what holds it.
		if v, err := sender.Explain("all"); err != nil {
			r.check.Violatef("no verdict on predicate 'all': %v", err)
		} else if !v.Stalled || len(v.Holding) != 1 || v.Holding[0].Peer != victim {
			r.check.Violatef("Explain misnames the stall cause: predicate 'all' stalled=%v holding=%+v, want exactly peer %d",
				v.Stalled, v.Holding, victim)
		}

		// Healthy-majority convergence: every node but the victim drains the full
		// stream, and the sender's majority predicate reaches the head.
		wctx, wcancel := context.WithTimeout(context.Background(), drainTimeout)
		defer wcancel()
		healthy := func(i int) bool { return i+1 != victim && i != 0 }
		if !testbed.Await(drainTimeout, func() bool {
			for i, n := range nodes {
				if healthy(i) && (n.Snapshot().RecvLast[1] < head || r.check.Delivered(i+1, 1) < head) {
					return false
				}
			}
			return true
		}) {
			for i, n := range nodes {
				if healthy(i) {
					r.check.Violatef("healthy node %d did not drain: recvLast %d delivered %d of head %d",
						i+1, n.Snapshot().RecvLast[1], r.check.Delivered(i+1, 1), head)
				}
			}
		}
		if err := sender.WaitFor(wctx, head, "maj"); err != nil {
			r.check.Violatef("majority predicate never reached head %d: %v", head, err)
		}
		// The victim must still be dark — "whole run" means no quiet catch-up.
		if got := nodes[victim-1].Snapshot().RecvLast[1]; got != 0 {
			r.check.Violatef("victim %d received %d messages through a whole-run blackhole", victim, got)
		}
	}

	var err error
	rep.Report, err = sc.run()
	return rep, err
}
