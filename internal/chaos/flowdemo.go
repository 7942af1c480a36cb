package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
	"stabilizer/internal/transport"
)

// FlowOptions parameterizes FlowDemo, the bounded-memory degraded-mode
// scenario: one sender with a hard send-log cap, one peer blackholed for the
// whole run. The zero value (plus a Seed) runs the canonical demo: 4 nodes,
// a 64 KiB cap, 512-byte payloads.
type FlowOptions struct {
	// Seed pins the victim choice, the schedule rendering, and the fabric
	// jitter. Zero means seed 1.
	Seed int64
	// N is the cluster size (default 4). Node 1 is always the sender.
	N int
	// Horizon is how long the pump runs (default 2s). The blackhole lasts
	// the entire horizon — it is never healed.
	Horizon time.Duration
	// SendEvery is the pump's inter-message gap (default 1ms).
	SendEvery time.Duration
	// PayloadBytes sizes each message (default 512) and doubles as the
	// bounded-memory slack: admission control may overshoot the cap by at
	// most one in-flight payload.
	PayloadBytes int
	// CapBytes is the sender's send-log byte cap (default 64 KiB).
	CapBytes int64
	// StallDeadline is the stall monitor's no-progress deadline
	// (default 150ms).
	StallDeadline time.Duration
	// DrainTimeout bounds the post-pump convergence wait (default 20s).
	DrainTimeout time.Duration
	// HeartbeatEvery / PeerTimeout tune the failure detectors
	// (defaults 25ms / 200ms).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	// Trace configures the per-op flight recorder on every node. The
	// default samples every op into a 16Ki-event ring, so the demo's
	// stall reports always ship a recorder tail for the blamed victim
	// (invariant 7's stall half, enforced via AttachStallTraces).
	Trace optrace.Config
	// Logf, when set, traces the run (fault, stall, fallback, drain).
	Logf func(format string, args ...any)
}

func (o FlowOptions) withDefaults() FlowOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.N == 0 {
		o.N = 4
	}
	if o.Horizon == 0 {
		o.Horizon = 2 * time.Second
	}
	if o.SendEvery == 0 {
		o.SendEvery = time.Millisecond
	}
	if o.PayloadBytes == 0 {
		o.PayloadBytes = 512
	}
	if o.CapBytes == 0 {
		o.CapBytes = 64 << 10
	}
	if o.StallDeadline == 0 {
		o.StallDeadline = 150 * time.Millisecond
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 20 * time.Second
	}
	if o.HeartbeatEvery == 0 {
		o.HeartbeatEvery = 25 * time.Millisecond
	}
	if o.PeerTimeout == 0 {
		o.PeerTimeout = 200 * time.Millisecond
	}
	if !o.Trace.Enabled() {
		o.Trace = optrace.Config{SampleEvery: 1, RingSize: 1 << 14}
	}
	return o
}

// Victim returns the blackholed peer the seed selects: a deterministic draw
// from the non-sender nodes 2..N.
func (o FlowOptions) Victim() int {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	return 2 + rng.Intn(o.N-1)
}

// Schedule returns the run's fault plan — a single whole-horizon blackhole
// of the sender→victim direction — as a canonical, replayable artifact.
// FlowDemo applies the event itself (and never heals it: "whole run" means
// the victim stays dark past the last check), so the schedule is the replay
// fingerprint, not a Runner input.
func (o FlowOptions) Schedule() *faultinject.Schedule {
	o = o.withDefaults()
	return &faultinject.Schedule{Seed: o.Seed, Events: []faultinject.Event{
		{At: 0, Dur: o.Horizon, Kind: faultinject.KindBlackhole, Nodes: []int{1, o.Victim()}},
	}}
}

// FlowReport summarizes a FlowDemo run.
type FlowReport struct {
	// Schedule is the executed fault plan; its Fingerprint is the replay
	// artifact.
	Schedule *faultinject.Schedule
	// Victim is the blackholed peer.
	Victim int
	// Head is the sender's final stream head.
	Head uint64
	// FallbackHead is the head at the moment the reclaim predicate was
	// swapped to the majority fallback (0 if the fallback never fired).
	FallbackHead uint64
	// MaxLogBytes is the largest send-log occupancy any sweep observed.
	MaxLogBytes int64
	// BlockedAppends counts appends that waited on admission control.
	BlockedAppends int64
	// StallReports counts degraded-mode notifications the sender emitted.
	StallReports int
	// Violations lists every invariant violation (empty on success).
	Violations []string
}

// FlowDemo runs the bounded-memory acceptance scenario: the sender pumps
// under a hard send-log cap while one peer is blackholed for the entire run.
// It demonstrates — and the checker enforces — that
//
//   - memory stays bounded: send-log bytes never exceed the cap plus one
//     in-flight payload (invariant 5), because admission control blocks the
//     pump once the stalled full-set reclaim predicate pins the log;
//   - degraded mode is honest: the stall monitor blames exactly the
//     blackholed peer (invariant 6), and Node.Health names it too;
//   - the fallback restores progress: when the app (this harness) reacts to
//     the stall notification by swapping reclaim to a majority predicate,
//     truncation resumes, blocked appends drain, and appends to
//     healthy-majority predicates keep completing to the end of the run.
func FlowDemo(o FlowOptions) (*FlowReport, error) {
	o = o.withDefaults()
	victim := o.Victim()
	sched := o.Schedule()
	rep := &FlowReport{Schedule: sched, Victim: victim}
	if o.Logf != nil {
		o.Logf("chaos: flow demo seed=%d fingerprint=%s victim=%d cap=%dB", o.Seed, sched.Fingerprint(), victim, o.CapBytes)
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

	check := NewChecker(o.N, []int{1})
	nodes := make([]*core.Node, o.N)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				_ = n.Close()
			}
		}
	}()
	for i := 1; i <= o.N; i++ {
		n, err := core.Open(core.Config{
			Topology:       topo.WithSelf(i),
			Network:        fabric,
			HeartbeatEvery: o.HeartbeatEvery,
			PeerTimeout:    o.PeerTimeout,
			Flow:           transport.FlowConfig{MaxBytes: o.CapBytes},
			Stall:          core.StallConfig{Deadline: o.StallDeadline},
			Trace:          o.Trace,
			// Auto-reclaim stays ON: bounded memory requires truncation, and
			// the demo's whole point is watching reclaim stall and fall back.
		})
		if err != nil {
			return rep, fmt.Errorf("chaos: open node %d: %w", i, err)
		}
		check.Attach(n)
		check.AttachStallHonesty(n, func(peer int) bool { return peer == victim })
		check.AttachStallTraces(n)
		nodes[i-1] = n
	}
	sender := nodes[0]

	maj := o.N/2 + 1
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		return rep, fmt.Errorf("chaos: register 'all': %w", err)
	}
	if err := sender.RegisterPredicate("maj", fmt.Sprintf("KTH_MIN(%d, $ALLWNODES)", maj)); err != nil {
		return rep, fmt.Errorf("chaos: register 'maj': %w", err)
	}

	// Degraded-mode notification → fallback trigger. The app pattern under
	// test: on a reclaim stall naming the victim, wait for real backpressure
	// (the log actually full), then swap reclaim to a majority predicate so
	// truncation no longer waits on the dark peer.
	var (
		stallCount     atomic.Int64
		reclaimStalled atomic.Bool
		fallbackHead   atomic.Uint64
	)
	sender.OnStall(func(r core.StallReport) {
		stallCount.Add(1)
		if o.Logf != nil {
			o.Logf("chaos: stall report: predicate %q frontier %d/%d blames %v", r.Predicate, r.Frontier, r.Head, r.Peers)
		}
		if r.Predicate == core.ReclaimPredicateKey {
			reclaimStalled.Store(true)
		}
	})

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if !reclaimStalled.Load() || !sender.Health().Backpressured {
				continue
			}
			fallbackHead.Store(sender.NextSeq() - 1)
			if err := sender.ChangeReclaimPredicate(fmt.Sprintf("KTH_MIN(%d, $ALLWNODES)", maj)); err != nil {
				check.Violatef("reclaim fallback failed: %v", err)
			} else if o.Logf != nil {
				o.Logf("chaos: reclaim fallback to majority at head %d", fallbackHead.Load())
			}
			return
		}
	}()

	// Invariant sweeps: phantom stability plus bounded memory, and the
	// high-water bookkeeping for the report.
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
				check.CheckBounded(nodes, o.CapBytes, int64(o.PayloadBytes))
				if b := sender.BufferedBytes(); b > rep.MaxLogBytes {
					rep.MaxLogBytes = b
				}
			}
		}
	}()

	// The whole-run fault: sender→victim data path dark from the first byte.
	inj.Blackhole(1, victim)

	// Pump under the cap. SendCtx so a blocked append can be aborted at
	// teardown if the fallback path is broken — the run then fails on
	// assertions instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		payload := make([]byte, o.PayloadBytes)
		tick := time.NewTicker(o.SendEvery)
		defer tick.Stop()
		horizon := time.NewTimer(o.Horizon)
		defer horizon.Stop()
		for {
			select {
			case <-horizon.C:
				return
			case <-tick.C:
				if _, err := sender.SendCtx(ctx, payload); err != nil {
					if ctx.Err() == nil {
						check.Violatef("pump send failed: %v", err)
					}
					return
				}
			}
		}
	}()
	select {
	case <-pumpDone:
	case <-time.After(o.Horizon + o.DrainTimeout):
		cancel() // aborts an append stuck past the fallback window
		<-pumpDone
		check.Violatef("pump did not finish within horizon+drain: fallback never unblocked the log")
	}

	head := sender.NextSeq() - 1
	rep.Head = head
	h := sender.Health()
	rep.FallbackHead = fallbackHead.Load()
	rep.BlockedAppends = h.BlockedAppends
	rep.StallReports = int(stallCount.Load())

	// The demo must actually have exercised the degraded path.
	if rep.FallbackHead == 0 {
		check.Violatef("reclaim fallback never fired (stalls=%d, backpressured=%v)", rep.StallReports, h.Backpressured)
	} else if head <= rep.FallbackHead {
		check.Violatef("appends stopped after fallback: head %d never passed fallback head %d", head, rep.FallbackHead)
	}
	if rep.BlockedAppends == 0 {
		check.Violatef("admission control never engaged: 0 blocked appends at cap %d", o.CapBytes)
	}
	// Health must name exactly the blackholed peer as the stall cause on the
	// full-set predicate.
	foundAll := false
	for _, ph := range h.Predicates {
		if ph.Key != "all" {
			continue
		}
		foundAll = true
		if !ph.Stalled || len(ph.Blamed) != 1 || ph.Blamed[0].Peer != victim {
			check.Violatef("Health misnames the stall cause: predicate 'all' stalled=%v blamed=%+v, want exactly peer %d",
				ph.Stalled, ph.Blamed, victim)
		}
	}
	if !foundAll {
		check.Violatef("Health has no entry for predicate 'all'")
	}

	// Healthy-majority convergence: every node but the victim drains the full
	// stream, and the sender's majority predicate reaches the head.
	deadline := time.Now().Add(o.DrainTimeout)
	converged := func() bool {
		for i, n := range nodes {
			if i+1 == victim || i == 0 {
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
			if i+1 == victim || i == 0 {
				continue
			}
			check.Violatef("healthy node %d did not drain: recvLast %d delivered %d of head %d",
				i+1, n.RecvLast(1), check.Delivered(i+1, 1), head)
		}
	}
	wctx, wcancel := context.WithDeadline(context.Background(), deadline)
	if err := sender.WaitFor(wctx, head, "maj"); err != nil {
		check.Violatef("majority predicate never reached head %d: %v", head, err)
	}
	wcancel()
	// The victim must still be dark — "whole run" means no quiet catch-up.
	if got := nodes[victim-1].RecvLast(1); got != 0 {
		check.Violatef("victim %d received %d messages through a whole-run blackhole", victim, got)
	}

	close(stop)
	aux.Wait()
	check.CrossCheck(nodes)
	check.CheckBounded(nodes, o.CapBytes, int64(o.PayloadBytes))

	rep.Violations = check.Violations()
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("chaos: flow demo: %d invariant violation(s), seed %d (fingerprint %s):\n%s",
			len(rep.Violations), o.Seed, sched.Fingerprint(), joinLines(rep.Violations))
	}
	return rep, nil
}
