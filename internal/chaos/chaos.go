package chaos

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/metrics"
)

// Options parameterizes a soak run. The zero value (plus a Seed) is a
// sensible short soak: a 4-node flat cluster where nodes 1 and 2 originate
// data and nodes 3 and 4 are crashable receivers.
type Options struct {
	// Seed pins the fault schedule AND the fabric's jitter, making the
	// whole run replayable. Zero means seed 1.
	Seed int64
	// N is the cluster size (default 4).
	N int
	// Senders originate data and register stability predicates; they are
	// never crashed (a fresh-restarted primary would need checkpoint
	// plumbing the soak doesn't exercise). Default {1, 2}.
	Senders []int
	// Crashable nodes may be crash-restarted by the schedule. Defaults to
	// every non-sender. Must be disjoint from Senders.
	Crashable []int
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
	// Zero HeartbeatEvery / PeerTimeout become 25ms / 200ms, fast enough to
	// trip during the soak. Some fields also arm invariants:
	//
	//   - Flow, when enabled, turns on the bounded-memory invariant:
	//     CrossCheck sweeps additionally assert no node's buffer exceeds the
	//     cap plus one payload. With Flow.SpillDir the soak switches to
	//     invariant 9: the cap bounds only the *in-memory* tier
	//     (CheckBoundedMemory), senders pump deterministic seq-derived
	//     payloads, and every delivery is checked byte-for-byte against
	//     ground truth via AttachPayloadTruth — so a corrupt disk round trip
	//     fails the run even though the stream stays FIFO.
	//   - Stall, when its Deadline is set, turns on the degraded-mode
	//     honesty invariant: every stall report must blame only peers the
	//     schedule actually faulted.
	//   - Trace, when enabled, turns on the trace well-orderedness
	//     invariant: after convergence a sampled operation's merged timeline
	//     must cover all seven lifecycle stages and validate (no Deliver
	//     before WireRecv, no Stabilize before its ack quorum). With Stall
	//     also enabled, every stall-triggered Health report must carry a
	//     non-empty recorder tail for each blamed peer.
	//   - Metrics, when set, is shared by every node (node-labeled
	//     families); scraping it while the soak runs is itself a race test
	//     of the registry.
	Cluster core.Config
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

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.N == 0 {
		o.N = 4
	}
	if len(o.Senders) == 0 {
		o.Senders = []int{1, 2}
	}
	if len(o.Crashable) == 0 {
		isSender := make(map[int]bool, len(o.Senders))
		for _, s := range o.Senders {
			isSender[s] = true
		}
		for i := 1; i <= o.N; i++ {
			if !isSender[i] {
				o.Crashable = append(o.Crashable, i)
			}
		}
	}
	if o.Horizon == 0 {
		o.Horizon = 2500 * time.Millisecond
	}
	if o.SendEvery == 0 {
		o.SendEvery = 3 * time.Millisecond
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 20 * time.Second
	}
	if o.Cluster.HeartbeatEvery == 0 {
		o.Cluster.HeartbeatEvery = 25 * time.Millisecond
	}
	if o.Cluster.PeerTimeout == 0 {
		o.Cluster.PeerTimeout = 200 * time.Millisecond
	}
	if o.PayloadBytes == 0 {
		o.PayloadBytes = soakPayload
	}
	return o
}

// genConfig is the schedule generator configuration the soak uses; it is a
// method so the replay test can assert byte-identical regeneration against
// the exact configuration Soak runs.
func (o Options) genConfig() faultinject.GenConfig {
	return faultinject.GenConfig{
		N:         o.N,
		Crashable: o.Crashable,
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

// Report summarizes a soak run.
type Report struct {
	// Schedule is the fault schedule that was executed.
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

// Soak runs one deterministic chaos soak: it boots the cluster on a seeded
// in-memory fabric, pumps data from the senders while executing the fault
// schedule derived from Options.Seed, then heals everything and requires
// convergence. The returned error is non-nil iff any invariant was
// violated (the Report carries the details either way).
func Soak(o Options) (*Report, error) {
	o = o.withDefaults()
	for _, s := range o.Senders {
		for _, c := range o.Crashable {
			if s == c {
				return nil, fmt.Errorf("chaos: node %d is both sender and crashable", s)
			}
		}
	}

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
		isSender := make(map[int]bool, len(o.Senders))
		for _, s := range o.Senders {
			isSender[s] = true
		}
		victim := 0
		for i := 1; i <= o.N; i++ {
			if !isSender[i] {
				victim = i
				break
			}
		}
		if victim == 0 {
			return nil, fmt.Errorf("chaos: BacklogFault needs a non-sender node to isolate")
		}
		sched.Events = append(sched.Events, faultinject.Event{
			At:    o.Horizon / 10,
			Dur:   o.Horizon, // safety timeout; the backlog threshold normally heals first
			Kind:  faultinject.KindBacklogPartition,
			Nodes: []int{victim},
			Bytes: o.BacklogFault,
		})
	}
	// Ground truth for the honesty invariant: the set of nodes any schedule
	// event touches. A stall report may only blame these. A partition cuts
	// every link crossing the set boundary, so both sides are affected — if
	// the isolated set contains a sender, the peers left outside genuinely
	// fall behind on its stream.
	suspect := make(map[int]bool)
	for _, e := range sched.Events {
		if e.Kind == faultinject.KindPartition || e.Kind == faultinject.KindBacklogPartition {
			for i := 1; i <= o.N; i++ {
				suspect[i] = true
			}
			continue
		}
		for _, n := range e.Nodes {
			suspect[n] = true
		}
	}

	// A lightly shaped fabric: enough latency that faults hit in-flight
	// traffic, jitter to exercise the seeded shaper, and a bandwidth cap so
	// post-heal resends stream rather than teleport.
	bw := emunet.Mbps(200)
	if o.BandwidthBps > 0 {
		bw = o.BandwidthBps
	}
	matrix := emunet.NewMatrix()
	matrix.Default = emunet.Link{
		OneWayLatency: 2 * time.Millisecond,
		Jitter:        time.Millisecond,
		BandwidthBps:  bw,
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

	check := NewChecker(o.N, o.Senders)
	var deliveries atomic.Int64

	// attach must run before the node's peers can deliver anything. At
	// boot no sender is pumping yet; after a restart the fabric's 2ms
	// one-way latency guarantees a reconnect handshake takes longer than
	// the call gap after Restart returns.
	attach := func(n *core.Node) {
		check.Attach(n)
		if o.Cluster.Stall.Deadline > 0 {
			check.AttachStallHonesty(n, func(peer int) bool { return suspect[peer] })
		}
		if o.Cluster.Trace.Enabled() && o.Cluster.Stall.Deadline > 0 {
			check.AttachStallTraces(n)
		}
		if spill {
			check.AttachPayloadTruth(n, func(origin int, seq uint64) []byte {
				return chaosPayload(origin, seq, o.PayloadBytes)
			})
		}
		n.OnDeliver(func(core.Message) { deliveries.Add(1) })
	}

	// mu serializes crash/restart (and their checker bookkeeping) against
	// CrossCheck sweeps and the final convergence reads.
	var mu sync.Mutex
	cfg := o.Cluster
	cfg.Topology, cfg.Network = topo, fabric
	// Unless the soak opts into reclamation, keep send buffers whole: a
	// fresh-restarted receiver needs the full prefix resent, which reclaim
	// would have truncated.
	cfg.DisableAutoReclaim = !o.AutoReclaim
	// Epoch 1 for first incarnations; Cluster.Restart bumps from there.
	cfg.Epoch = 1
	cl, err := core.OpenCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: open cluster: %w", err)
	}
	defer cl.Close()
	for _, n := range cl.Nodes() {
		attach(n)
	}
	// liveNodes rebuilds the checker's positional view: index i-1 holds
	// node i, nil while crashed.
	liveNodes := func() []*core.Node {
		out := make([]*core.Node, o.N)
		for i := 1; i <= o.N; i++ {
			out[i-1] = cl.Node(i)
		}
		return out
	}

	// Quorum sizes follow the registered predicates: MIN($ALLWNODES) needs
	// every node; KTH_MIN(k, $ALLWNODES) advances once N-k+1 nodes have
	// acked that far. Both the frontier-truth sweeps and the trace check
	// judge against these.
	maj := o.N/2 + 1
	quorums := map[string]int{"all": o.N, "maj": o.N - maj + 1}
	for _, s := range o.Senders {
		sn := cl.Node(s)
		if err := sn.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
			return nil, fmt.Errorf("chaos: register 'all' on node %d: %w", s, err)
		}
		if err := sn.RegisterPredicate("maj", fmt.Sprintf("KTH_MIN(%d, $ALLWNODES)", maj)); err != nil {
			return nil, fmt.Errorf("chaos: register 'maj' on node %d: %w", s, err)
		}
	}

	// Data pumps. Senders are never crashed, so their *Node pointers are
	// stable for the whole run.
	pumpStop := make(chan struct{})
	var pumps sync.WaitGroup
	for _, s := range o.Senders {
		sn := cl.Node(s)
		pumps.Add(1)
		go func(s int, sn *core.Node) {
			defer pumps.Done()
			payload := make([]byte, o.PayloadBytes)
			tick := time.NewTicker(o.SendEvery)
			defer tick.Stop()
			for {
				select {
				case <-pumpStop:
					return
				case <-tick.C:
					if spill {
						// The pump is its node's only appender, so the next
						// sequence is known before Send assigns it — that is
						// what lets the payload be derived from (origin, seq)
						// and re-derived independently at every receiver.
						seq := sn.NextSeq()
						got, err := sn.Send(chaosPayload(s, seq, o.PayloadBytes))
						if err != nil {
							return
						}
						if got != seq {
							check.Violatef("pump: node %d predicted seq %d but Send assigned %d", s, seq, got)
							return
						}
					} else if _, err := sn.Send(payload); err != nil {
						return
					}
				}
			}
		}(s, sn)
	}

	crash := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		// Cluster.Crash closes the node but hands back the dead handle:
		// its receive high water is monotone within the incarnation, so
		// reading it after Close yields the incarnation's final value.
		dead, err := cl.Crash(i)
		if err != nil {
			return // already down
		}
		hw := make(map[int]uint64, len(o.Senders))
		for _, s := range o.Senders {
			hw[s] = dead.RecvLast(s)
		}
		check.RecordCrash(i, hw)
		if o.Logf != nil {
			o.Logf("chaos: crashed node %d, high water %v", i, hw)
		}
	}
	restart := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if cl.Node(i) != nil {
			return
		}
		check.RecordRestart(i)
		n, err := cl.Restart(i)
		if err != nil {
			check.Violatef("restart node %d: %v", i, err)
			return
		}
		attach(n)
		if o.Logf != nil {
			o.Logf("chaos: restarted node %d", i)
		}
	}

	// The bounded-memory sweep: with a spill tier the cap governs only the
	// in-memory tier (the whole point is that total backlog exceeds it),
	// and the sweeps also track invariant 9's peak-spill witness.
	var peakSpill int64 // guarded by mu
	sweepBounded := func(nodes []*core.Node) {
		if o.Cluster.Flow.MaxBytes > 0 {
			if spill {
				check.CheckBoundedMemory(nodes, o.Cluster.Flow.MaxBytes, int64(o.PayloadBytes))
			} else {
				check.CheckBounded(nodes, o.Cluster.Flow.MaxBytes, int64(o.PayloadBytes))
			}
		}
		if spill {
			for _, n := range nodes {
				if n == nil {
					continue
				}
				if b := n.SpilledBytes(); b > peakSpill {
					peakSpill = b
				}
			}
		}
	}

	// Continuous invariant-3 and invariant-8 sweeps while faults fly.
	ccStop := make(chan struct{})
	ccDone := make(chan struct{})
	go func() {
		defer close(ccDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ccStop:
				return
			case <-tick.C:
				mu.Lock()
				live := liveNodes()
				check.CrossCheck(live)
				check.CheckFrontierTruth(live, quorums)
				sweepBounded(live)
				mu.Unlock()
			}
		}
	}()

	runner := &faultinject.Runner{
		Inj: inj, Sched: sched, N: o.N, Scale: 1,
		Crash: crash, Restart: restart, Logf: o.Logf,
	}
	if o.BacklogFault > 0 {
		// The backlog a region outage induces lives on the *senders*:
		// reclamation is keyed to MIN over all nodes, so the isolated
		// victim pins every origin's log. Senders never crash, so their
		// handles are stable for the whole run.
		senderNodes := make([]*core.Node, 0, len(o.Senders))
		for _, s := range o.Senders {
			senderNodes = append(senderNodes, cl.Node(s))
		}
		runner.Backlog = func(int) int64 {
			var max int64
			for _, sn := range senderNodes {
				if b := sn.BufferedBytes(); b > max {
					max = b
				}
			}
			return max
		}
	}
	runner.Run(nil)
	inj.HealAll()

	close(pumpStop)
	pumps.Wait()

	heads := make(map[int]uint64, len(o.Senders))
	for _, s := range o.Senders {
		heads[s] = cl.Node(s).NextSeq() - 1
	}

	// Invariant 4: with faults healed, every node must be back up and its
	// evaluation of the convergence predicate over every sender's stream
	// must reach that stream's head.
	converged := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(cl.Nodes()) != o.N {
			return false
		}
		for _, s := range o.Senders {
			f, err := cl.EvalAllFor(s, convergencePred)
			if err != nil || f < heads[s] {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(o.DrainTimeout)
	ok := false
	for time.Now().Before(deadline) {
		if ok = converged(); ok {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		mu.Lock()
		var lines []string
		for _, s := range o.Senders {
			for i, n := range liveNodes() {
				if n == nil {
					lines = append(lines, fmt.Sprintf("node %d: down", i+1))
					continue
				}
				f, err := n.EvalFor(s, convergencePred)
				lines = append(lines, fmt.Sprintf("node %d: origin %d frontier %d/%d recvLast %d (err=%v)",
					i+1, s, f, heads[s], n.RecvLast(s), err))
			}
		}
		mu.Unlock()
		sort.Strings(lines)
		check.Violatef("no convergence within %v:\n  %s", o.DrainTimeout, joinLines(lines))
	}

	close(ccStop)
	<-ccDone
	mu.Lock()
	final := liveNodes()
	check.CrossCheck(final)
	check.CheckFrontierTruth(final, quorums)
	sweepBounded(final)
	// The checker's own FIFO counters must also have reached the heads:
	// agreement on .delivered plus gap-free counting means every message
	// was upcalled exactly once per incarnation.
	if ok {
		for _, s := range o.Senders {
			for i, n := range final {
				if n == nil || i+1 == s {
					continue
				}
				if got := check.Delivered(i+1, s); got != heads[s] {
					check.Violatef("delivery incomplete: node %d saw %d/%d of origin %d", i+1, got, heads[s], s)
				}
			}
		}
	}
	mu.Unlock()

	// Invariant 7: after convergence a sampled op must have a complete,
	// well-ordered merged timeline. The cluster is quiescent here (faults
	// healed, pumps stopped, sweeps done), so no lock is needed.
	if ok && o.Cluster.Trace.Enabled() {
		for _, s := range o.Senders {
			check.CheckTraces(cl, s, heads[s], o.Cluster.Trace.SampleEvery, quorums)
		}
	}

	rep := &Report{
		Schedule:   sched,
		Heads:      heads,
		Deliveries: deliveries.Load(),
		Violations: check.Violations(),
	}
	if spill {
		rep.PeakSpilledBytes = peakSpill
		for _, s := range o.Senders {
			rep.SpillReadbackBytes += cl.Node(s).SpillReadbackBytes()
		}
	}
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("chaos: %d invariant violation(s), seed %d:\n%s",
			len(rep.Violations), o.Seed, joinLines(rep.Violations))
	}
	return rep, nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
