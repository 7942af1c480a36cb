package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/testbed"
)

// Options parameterizes a run. The zero value (plus a Seed) is a sensible
// short soak. Seed, Horizon and Logf mean the same to every scenario; the
// rest is read by the soak alone, except Fault, which the adaptive scenario
// alone reads.
type Options struct {
	// Seed pins the fault schedule AND the fabric's jitter, making the
	// whole run replayable. Zero means seed 1.
	Seed int64
	// Fault picks the one fault the adaptive scenario injects: a blackhole
	// unless it is faultinject.KindLatencySpike. The soak draws from Kinds.
	Fault faultinject.Kind
	// Horizon is the fault-injection window (default 2.5s).
	Horizon time.Duration
	// SendEvery is each sender's inter-message gap (default 3ms).
	SendEvery time.Duration
	// DrainTimeout bounds the post-fault convergence wait (default 20s;
	// reconnect backoff alone can take ~2s after the last heal).
	DrainTimeout time.Duration
	// Kinds restricts the fault kinds the schedule draws from (default all).
	Kinds []faultinject.Kind
	// Cluster is the template every soak node boots from; Soak fills in the
	// topology, the fabric, epoch 1 and DisableAutoReclaim (see AutoReclaim).
	// A zero HeartbeatEvery becomes 25ms, so a silent peer is down after
	// 200ms (8 ticks), fast enough to trip during the soak. Some fields also
	// arm invariants:
	//
	//   - Flow, when enabled, turns on the bounded-memory invariant:
	//     CrossCheck sweeps additionally assert no node's buffer exceeds the
	//     cap plus one payload. With Flow.SpillDir the soak switches to
	//     invariant 9: the cap bounds only the *in-memory* tier
	//     (CheckBoundedMemory), senders pump deterministic seq-derived
	//     payloads, and every delivery is checked byte-for-byte against
	//     ground truth via AttachPayloadTruth — so a corrupt disk round trip
	//     fails the run even though the stream stays FIFO.
	//   - Trace, when enabled, turns on the trace well-orderedness
	//     invariant: after convergence a sampled operation's merged timeline
	//     must cover all seven lifecycle stages and validate (no Deliver
	//     before WireRecv, no Stabilize before its ack quorum). With
	//     StallAfter also set, every verdict a sweep finds stuck past it
	//     must carry a non-empty recorder tail for each holding peer.
	//   - Metrics, when set, is shared by every node (node-labeled
	//     families); scraping it while the soak runs is itself a race test
	//     of the registry.
	Cluster core.Config
	// StallAfter, when > 0, turns on the degraded-mode honesty invariant:
	// every verdict a sweep finds stuck for at least StallAfter may name as
	// holders only peers the schedule actually faulted. It must be at least
	// Cluster.HeartbeatEvery.
	StallAfter time.Duration
	// PayloadBytes sizes every pumped message (default 96). Spill soaks
	// raise it so a backlog measured in MBs or GBs accumulates within the
	// horizon instead of over a literal day.
	PayloadBytes int
	// BacklogFault, when > 0, appends one backlog_partition event to the
	// seeded schedule: the first non-sender is isolated until the senders'
	// retransmission backlog (memory + spill) reaches this many bytes, the
	// "day-long region outage" whose natural unit is data volume. Requires
	// Flow.SpillDir. The event is appended after generation, so
	// seeded fingerprints of the generated prefix are unchanged.
	BacklogFault int64
	// BandwidthBps overrides the fabric's per-link bandwidth (default
	// 200 Mbps). GB-scale spill soaks raise it so the post-heal drain fits
	// DrainTimeout.
	BandwidthBps float64
	// AutoReclaim leaves send-log reclamation on (the soak default disables
	// it so crash-restarted receivers can be resent the full prefix). A
	// flow-capped soak needs it on — bounded memory requires truncation —
	// and therefore must exclude KindCrashRestart via Kinds.
	AutoReclaim bool
	// Logf, when set, traces faults and crash/restart events.
	Logf func(format string, args ...any)
}

// Every scenario runs on the same rig: a 4-node flat cluster over a lightly
// shaped fabric — enough latency that faults hit in-flight traffic, jitter to
// exercise the seeded shaper, and a bandwidth cap so post-heal resends stream
// rather than teleport — with failure detectors fast enough to trip mid-run.
const (
	clusterSize    = 4
	linkLatency    = 2 * time.Millisecond
	linkJitter     = time.Millisecond
	heartbeatEvery = 25 * time.Millisecond
	drainTimeout   = 20 * time.Second
	linkBandwidth  = 200e6 // bits per second
	// majority is the k of the "maj" predicate KTH_MIN(k, $ALLWNODES), which
	// advances once clusterSize-k+1 nodes have acked that far.
	majority = clusterSize/2 + 1
)

// In the soak nodes 1 and 2 originate data and register stability predicates;
// they are never crashed (a fresh-restarted primary would need checkpoint
// plumbing the soak doesn't exercise). Nodes 3 and 4 are the receivers the
// schedule may crash-restart.
var (
	soakSenders   = []int{1, 2}
	soakCrashable = []int{3, 4}
)

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Horizon == 0 {
		o.Horizon = 2500 * time.Millisecond
	}
	if o.SendEvery == 0 {
		o.SendEvery = 3 * time.Millisecond
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = drainTimeout
	}
	if o.Cluster.HeartbeatEvery == 0 {
		o.Cluster.HeartbeatEvery = heartbeatEvery
	}
	if o.PayloadBytes == 0 {
		o.PayloadBytes = soakPayload
	}
	if o.BandwidthBps == 0 {
		o.BandwidthBps = linkBandwidth
	}
	return o
}

// genConfig is the schedule generator configuration the soak uses; it is a
// method so the replay test can assert byte-identical regeneration against
// the exact configuration Soak runs.
func (o Options) genConfig() faultinject.GenConfig {
	return faultinject.GenConfig{
		N:         clusterSize,
		Crashable: soakCrashable,
		Horizon:   o.Horizon,
		Kinds:     o.Kinds,
	}
}

// soakPayload is the default size of every pumped message; the
// bounded-memory sweeps use the (possibly overridden) payload size as the
// admission-control overshoot budget.
const soakPayload = 96

// chaosPayload derives the deterministic payload for (origin, seq): byte i
// is a cheap mix of all three, so corruption, a cross-stream swap, or an
// off-by-one resequencing anywhere on the spill tier's disk round trip
// changes the bytes a receiver sees. Spill soaks pump these and verify
// them at delivery, which is how invariant 9 gets ground truth without
// storing a copy of every stream.
func chaosPayload(origin int, seq uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(uint64(origin)*31 + seq*131 + uint64(i)*7 + 13)
	}
	return p
}

// convergencePred is the predicate every node must agree on at drain time.
// The .delivered suffix matters: the row advances only after application
// upcalls finish, so agreement implies the checker's FIFO counters have
// seen the whole stream too.
const convergencePred = "MIN($ALLWNODES.delivered)"

// Report summarizes a run.
type Report struct {
	// Schedule is the fault schedule that was executed; its Fingerprint is
	// the replay artifact.
	Schedule *faultinject.Schedule
	// Heads maps each sender to its final stream head.
	Heads map[int]uint64
	// Deliveries counts application upcalls across all nodes and
	// incarnations (re-deliveries to restarted nodes included).
	Deliveries int64
	// PeakSpilledBytes is the high-water mark of any node's on-disk spill
	// tier observed by the sweeps (0 unless the soak ran a spill tier). A
	// spill soak should assert it is non-zero: a run whose backlog never
	// left memory did not exercise invariant 9.
	PeakSpilledBytes int64
	// SpillReadbackBytes totals the bytes senders streamed back from disk
	// segments (0 without a spill tier); non-zero proves the post-heal drain
	// actually crossed the disk→memory boundary.
	SpillReadbackBytes int64
	// Violations lists every invariant violation (empty on success).
	Violations []string
}

// scenario is one experiment on the rig: what goes wrong and when (sched),
// the cluster it happens to, what the senders pump and for how long, and — as
// hooks — what is attached to each node, what is set up before traffic
// starts, what each sweep checks beyond CrossCheck, what is waited for before
// traffic stops, and what must hold at the end.
type scenario struct {
	// name prefixes the error of a failed run.
	name string
	seed int64
	logf func(format string, args ...any)
	// sched is executed by a faultinject.Runner, event times counted from
	// run.began.
	sched   *faultinject.Schedule
	senders []int
	// cluster is the template every node boots from; the runner fills in the
	// topology and the fabric.
	cluster   core.Config
	bandwidth float64
	// Each sender appends payloadBytes every sendEvery. With payload set the
	// bytes are payload(origin, seq) and the sender must be its node's only
	// appender: the sequence is read before Send assigns it.
	sendEvery    time.Duration
	payloadBytes int
	payload      func(origin int, seq uint64) []byte
	// Traffic runs until the schedule has run out, or for horizon if that is
	// set and shorter (the flow scenario's blackhole never heals).
	horizon time.Duration
	// drain bounds each wait for convergence.
	drain time.Duration
	// sweepEvery is the period of the invariant sweeps.
	sweepEvery time.Duration
	// linksUp makes the runner wait for testbed's Ready barrier before start.
	linksUp bool
	// backlog, for a backlog_partition event, reports the backlog that heals
	// it.
	backlog func(r *run) int64

	// attach hooks a node's incarnation beyond Checker.Attach; may be nil.
	attach func(r *run, n *core.Node)
	// start runs once the cluster is up and attached, before traffic.
	start func(r *run) error
	// sweep extends each sweep; live is 0-indexed with nil for crashed nodes
	// and run.mu is held.
	sweep func(r *run, live []*core.Node)
	// settle runs when the schedule has run out (or the horizon passed), the
	// senders still pumping; may be nil.
	settle func(r *run)
	// finish asserts the end state: the pumps are stopped, run.heads is set,
	// the sweeps are still going.
	finish func(r *run)
}

// run is the live state of a scenario's execution.
type run struct {
	sc    *scenario
	bed   *testbed.Bed
	check *Checker
	// mu serializes crash/restart (and their checker bookkeeping) against
	// sweeps and the final convergence reads.
	mu sync.Mutex
	// began is when the schedule started.
	began      time.Time
	heads      map[int]uint64
	deliveries atomic.Int64
	// sweeps counts the sweeps begun.
	sweeps atomic.Int64
}

func (r *run) logf(format string, args ...any) {
	if r.sc.logf != nil {
		r.sc.logf(format, args...)
	}
}

// live is the checker's positional view: index i-1 holds node i, nil while
// crashed.
func (r *run) live() []*core.Node {
	out := make([]*core.Node, clusterSize)
	for i := range out {
		out[i] = r.bed.Node(i + 1)
	}
	return out
}

func (r *run) attach(n *core.Node) {
	r.check.Attach(n)
	if r.sc.attach != nil {
		r.sc.attach(r, n)
	}
	n.OnDeliver(func(core.Message) { r.deliveries.Add(1) })
}

func (r *run) sweep() {
	r.sweeps.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	live := r.live()
	r.check.CrossCheck(live)
	r.sc.sweep(r, live)
}

func (r *run) crash(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Cluster.Crash closes the node but hands back the dead handle:
	// its receive high water is monotone within the incarnation, so
	// reading it after Close yields the incarnation's final value.
	dead, err := r.bed.Crash(i)
	if err != nil {
		return // already down
	}
	recv := dead.Snapshot().RecvLast
	hw := make(map[int]uint64, len(r.sc.senders))
	for _, s := range r.sc.senders {
		hw[s] = recv[s]
	}
	r.check.RecordCrash(i, hw)
	r.logf("chaos: crashed node %d, high water %v", i, hw)
}

func (r *run) restart(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bed.Node(i) != nil {
		return
	}
	r.check.RecordRestart(i)
	if _, err := r.bed.Restart(i, r.attach); err != nil {
		r.check.Violatef("restart node %d: %v", i, err)
		return
	}
	r.logf("chaos: restarted node %d", i)
}

// pump starts sender s.
func (r *run) pump(s int) *testbed.Loop {
	sn := r.bed.Node(s)
	fixed := make([]byte, r.sc.payloadBytes)
	return testbed.Every(r.sc.sendEvery, func(ctx context.Context) bool {
		payload, seq := fixed, uint64(0)
		if r.sc.payload != nil {
			seq = sn.NextSeq()
			payload = r.sc.payload(s, seq)
		}
		// SendCtx so an append blocked at the cap can be aborted at teardown:
		// the run then fails on assertions instead of hanging.
		got, err := sn.SendCtx(ctx, payload)
		switch {
		case err != nil:
			if ctx.Err() == nil {
				r.check.Violatef("pump send failed: %v", err)
			}
			return false
		case seq != 0 && got != seq:
			r.check.Violatef("pump: node %d predicted seq %d but Send assigned %d", s, seq, got)
			return false
		}
		return true
	})
}

// registerAllMaj registers the two predicates the soak and the flow scenario
// judge frontiers by on every sender, and returns the witnesses each needs:
// MIN($ALLWNODES) every node, KTH_MIN(majority, $ALLWNODES) the rest.
func (r *run) registerAllMaj() (quorums map[string]int, err error) {
	for _, s := range r.sc.senders {
		sn := r.bed.Node(s)
		if err := sn.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
			return nil, fmt.Errorf("chaos: register 'all' on node %d: %w", s, err)
		}
		if err := sn.RegisterPredicate("maj", majoritySource); err != nil {
			return nil, fmt.Errorf("chaos: register 'maj' on node %d: %w", s, err)
		}
	}
	return map[string]int{"all": clusterSize, "maj": clusterSize - majority + 1}, nil
}

var majoritySource = fmt.Sprintf("KTH_MIN(%d, $ALLWNODES)", majority)

// run executes the scenario: boot, attach, start, then sweeps, pumps and the
// fault schedule side by side until traffic ends, then the end-state
// assertions and a last sweep. The returned error is non-nil iff any
// invariant was violated (the Report carries the details either way).
func (sc *scenario) run() (*Report, error) {
	rep := &Report{Schedule: sc.sched}
	if sc.logf != nil {
		sc.logf("%s: seed=%d fingerprint=%s", sc.name, sc.seed, sc.sched.Fingerprint())
	}

	cfg := sc.cluster
	cfg.Topology = testbed.Flat(clusterSize)
	matrix := emunet.NewMatrix()
	matrix.Default = emunet.Link{OneWayLatency: linkLatency, Jitter: linkJitter, BandwidthBps: sc.bandwidth}
	bed, err := testbed.Boot(cfg, testbed.Fabric{Matrix: matrix, Seed: sc.seed, Faults: true})
	if err != nil {
		return rep, fmt.Errorf("%s: %w", sc.name, err)
	}
	defer bed.Close()

	r := &run{sc: sc, bed: bed, check: NewChecker(clusterSize, sc.senders)}
	// Attach runs before a node's peers can deliver anything: at boot no
	// sender is pumping yet, and Bed.Restart holds the links until it has run.
	for _, n := range bed.Nodes() {
		r.attach(n)
	}
	if sc.linksUp {
		if err := bed.Ready(sc.drain); err != nil {
			return rep, fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	if err := sc.start(r); err != nil {
		return rep, err
	}

	sweeps := testbed.Every(sc.sweepEvery, func(context.Context) bool { r.sweep(); return true })
	// Senders are never crashed, so their *Node pointers are stable for the
	// whole run.
	pumps := make([]*testbed.Loop, len(sc.senders))
	for i, s := range sc.senders {
		pumps[i] = r.pump(s)
	}

	runner := &faultinject.Runner{
		Inj: bed.Inj, Sched: sc.sched, N: clusterSize, Scale: 1,
		Crash: r.crash, Restart: r.restart, Logf: sc.logf,
	}
	if sc.backlog != nil {
		runner.Backlog = func(int) int64 { return sc.backlog(r) }
	}
	faults, stopFaults := make(chan struct{}), make(chan struct{})
	r.began = time.Now()
	go func() {
		defer close(faults)
		runner.Run(stopFaults)
	}()
	var horizon <-chan time.Time
	if sc.horizon > 0 {
		t := time.NewTimer(sc.horizon)
		defer t.Stop()
		horizon = t.C
	}
	select {
	case <-faults:
		// The schedule ran out: nothing it engaged stays engaged.
		bed.Inj.HealAll()
	case <-horizon:
	}
	if sc.settle != nil {
		sc.settle(r)
	}

	for _, p := range pumps {
		if !p.Stop(sc.drain) {
			r.check.Violatef("pump did not finish within horizon+drain: fallback never unblocked the log")
		}
	}
	r.heads = make(map[int]uint64, len(sc.senders))
	for _, s := range sc.senders {
		r.heads[s] = bed.Node(s).NextSeq() - 1
	}
	sc.finish(r)
	close(stopFaults)
	<-faults
	// The end state is judged by the next periodic sweep, not by an extra one
	// on the heels of the last: invariant 8's lag clause gives the control
	// plane one sweep period to catch up with what the previous sweep saw.
	last := r.sweeps.Load()
	testbed.Await(sc.drain, func() bool { return r.sweeps.Load() > last })
	sweeps.Stop(0)

	rep.Heads = r.heads
	rep.Deliveries = r.deliveries.Load()
	rep.Violations = r.check.Violations()
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("%s: %d invariant violation(s), seed %d (fingerprint %s):\n%s",
			sc.name, len(rep.Violations), sc.seed, sc.sched.Fingerprint(), strings.Join(rep.Violations, "\n  "))
	}
	return rep, nil
}

// Soak runs one deterministic chaos soak: it boots the cluster on a seeded
// in-memory fabric, pumps data from the senders while executing the fault
// schedule derived from Options.Seed, then heals everything and requires
// convergence.
func Soak(o Options) (*Report, error) {
	o = o.withDefaults()
	spill := o.Cluster.Flow.SpillDir != ""

	sched := faultinject.Generate(o.Seed, o.genConfig())
	if o.AutoReclaim {
		for _, k := range sched.Kinds() {
			if k == faultinject.KindCrashRestart {
				return nil, fmt.Errorf("chaos: an auto-reclaim soak cannot include crash_restart events " +
					"(a restarted receiver needs the full prefix resent, which reclaim truncates); " +
					"restrict Options.Kinds")
			}
		}
	}
	if o.BacklogFault > 0 {
		if !spill {
			return nil, fmt.Errorf("chaos: BacklogFault requires Flow.SpillDir (a memory-only capped log would just block the pumps)")
		}
		sched.Events = append(sched.Events, faultinject.Event{
			At:    o.Horizon / 10,
			Dur:   o.Horizon, // safety timeout; the backlog threshold normally heals first
			Kind:  faultinject.KindBacklogPartition,
			Nodes: []int{soakCrashable[0]},
			Bytes: o.BacklogFault,
		})
	}
	// Ground truth for the honesty invariant: the set of nodes any schedule
	// event touches. A stuck verdict may only name these. A partition cuts
	// every link crossing the set boundary, so both sides are affected — if
	// the isolated set contains a sender, the peers left outside genuinely
	// fall behind on its stream.
	suspect := make(map[int]bool)
	for _, e := range sched.Events {
		if e.Kind == faultinject.KindPartition || e.Kind == faultinject.KindBacklogPartition {
			for i := 1; i <= clusterSize; i++ {
				suspect[i] = true
			}
			continue
		}
		for _, n := range e.Nodes {
			suspect[n] = true
		}
	}

	sc := &scenario{
		name: "chaos", seed: o.Seed, logf: o.Logf, sched: sched, senders: soakSenders,
		cluster: o.Cluster, bandwidth: o.BandwidthBps,
		sendEvery: o.SendEvery, payloadBytes: o.PayloadBytes,
		drain: o.DrainTimeout, sweepEvery: 100 * time.Millisecond,
	}
	// Unless the soak opts into reclamation, keep send buffers whole: a
	// fresh-restarted receiver needs the full prefix resent, which reclaim
	// would have truncated.
	sc.cluster.DisableAutoReclaim = !o.AutoReclaim
	truth := func(origin int, seq uint64) []byte { return chaosPayload(origin, seq, o.PayloadBytes) }
	if spill {
		sc.payload = truth
	}
	if o.BacklogFault > 0 {
		// The backlog a region outage induces lives on the *senders*:
		// reclamation is keyed to MIN over all nodes, so the isolated
		// victim pins every origin's log.
		sc.backlog = func(r *run) int64 {
			var max int64
			for _, s := range soakSenders {
				if b := r.bed.Node(s).Snapshot().Log.Bytes; b > max {
					max = b
				}
			}
			return max
		}
	}
	if spill {
		sc.attach = func(r *run, n *core.Node) { r.check.AttachPayloadTruth(n, truth) }
	}
	var quorums map[string]int
	sc.start = func(r *run) (err error) {
		quorums, err = r.registerAllMaj()
		return err
	}
	// Invariants 3 (the runner's CrossCheck), 8, 5 and 6 swept while faults
	// fly. With a spill tier the cap governs only the in-memory tier (the
	// whole point is that total backlog exceeds it), and the sweeps also
	// track invariant 9's peak-spill witness.
	var peakSpill int64 // guarded by run.mu
	sc.sweep = func(r *run, live []*core.Node) {
		r.check.CheckFrontierTruth(live, quorums)
		if o.Cluster.Flow.MaxBytes > 0 {
			if spill {
				r.check.CheckBoundedMemory(live, o.Cluster.Flow.MaxBytes, int64(o.PayloadBytes))
			} else {
				r.check.CheckBounded(live, o.Cluster.Flow.MaxBytes, int64(o.PayloadBytes))
			}
		}
		if spill {
			for _, n := range live {
				if n == nil {
					continue
				}
				if b := n.Snapshot().Log.SpilledBytes; b > peakSpill {
					peakSpill = b
				}
			}
		}
		if o.StallAfter > 0 {
			r.check.CheckStalls(live, o.StallAfter, func(peer int) bool { return suspect[peer] }, o.Cluster.Trace.Enabled())
		}
	}
	var readback int64
	sc.finish = func(r *run) {
		defer func() {
			for _, s := range soakSenders {
				readback += r.bed.Node(s).Snapshot().Log.SpillReadbackBytes
			}
		}()
		// Invariant 4: with faults healed, every node must be back up and its
		// evaluation of the convergence predicate over every sender's stream
		// must reach that stream's head.
		ok := testbed.Await(o.DrainTimeout, func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			if len(r.bed.Nodes()) != clusterSize {
				return false
			}
			for _, s := range soakSenders {
				f, err := r.bed.EvalAllFor(s, convergencePred)
				if err != nil || f < r.heads[s] {
					return false
				}
			}
			return true
		})
		r.mu.Lock()
		final := r.live()
		r.mu.Unlock()
		if !ok {
			var lines []string
			for _, s := range soakSenders {
				for i, n := range final {
					if n == nil {
						lines = append(lines, fmt.Sprintf("node %d: down", i+1))
						continue
					}
					f, err := n.EvalFor(s, convergencePred)
					lines = append(lines, fmt.Sprintf("node %d: origin %d frontier %d/%d recvLast %d (err=%v)",
						i+1, s, f, r.heads[s], n.Snapshot().RecvLast[s], err))
				}
			}
			sort.Strings(lines)
			r.check.Violatef("no convergence within %v:\n  %s", o.DrainTimeout, strings.Join(lines, "\n  "))
			return
		}
		// The checker's own FIFO counters must also have reached the heads:
		// agreement on .delivered plus gap-free counting means every message
		// was upcalled exactly once per incarnation.
		for _, s := range soakSenders {
			for i, n := range final {
				if n == nil || i+1 == s {
					continue
				}
				if got := r.check.Delivered(i+1, s); got != r.heads[s] {
					r.check.Violatef("delivery incomplete: node %d saw %d/%d of origin %d", i+1, got, r.heads[s], s)
				}
			}
		}
		// Invariant 7: after convergence a sampled op must have a complete,
		// well-ordered merged timeline.
		if o.Cluster.Trace.Enabled() {
			for _, s := range soakSenders {
				r.check.CheckTraces(r.bed.Cluster, s, r.heads[s], o.Cluster.Trace.SampleEvery, quorums)
			}
		}
	}

	rep, err := sc.run()
	rep.PeakSpilledBytes, rep.SpillReadbackBytes = peakSpill, readback
	return rep, err
}
