// Package chaos contains the fault-injection soak harness and the
// invariant checker it drives. The checker encodes the safety properties
// Stabilizer promises regardless of network weather (paper §II-A, §III-A):
//
//  1. Frontier monotonicity — a predicate's stability frontier only moves
//     forward, and never past the origin stream's head. Frontier regressions
//     would un-stabilize messages an application already acted on.
//  2. Per-origin FIFO delivery — every receiver sees each origin's stream
//     gap-free and duplicate-free, across any number of reconnects. This is
//     the lossless-channel abstraction of §II-A.
//  3. No phantom stability — no node's recorder may claim a peer received a
//     sequence beyond what that peer actually received (crashes included).
//     A violation means a stability report was invented or mis-attributed.
//  4. Convergence — once faults cease, every live node's view of every
//     origin stream reaches the origin's head ("all WAN nodes reach the
//     same conclusions eventually", §III-A).
//  5. Bounded memory — with a send-log byte cap configured, no node's
//     retransmission buffer exceeds the cap plus one in-flight append,
//     no matter which peers stop draining it. Admission control, not
//     fault-free weather, is what keeps memory bounded.
//  6. Degraded-mode honesty — every verdict stuck past the harness's
//     threshold names only holders the harness knows to be faulted or
//     genuinely behind, and never an empty set. Naming a healthy peer would
//     route an operator (or an automated fallback) at the wrong subsystem.
//  7. Trace well-orderedness — with the flight recorder on, a sampled
//     operation's merged cross-node timeline must cover the whole
//     append→stabilize lifecycle and be causally well-ordered: no Deliver
//     before the node's WireRecv, no WireSend before its BatchEnqueue, no
//     Stabilize before the predicate's ack quorum was ingested at the
//     origin — across any number of crashes and restarts. A violation
//     means the observability layer would tell an operator a false story
//     about where an operation spent its time.
//  8. Frontier truth under deferred stabilization — a predicate's frontier
//     never runs ahead of a fresh evaluation of its own recorder cells (no
//     phantom release: a WaitFor resumed at seq s implies s really is
//     stable), every frontier value is backed by a quorum of witnesses
//     whose actual receive cursors reached it, and the drainer keeps up —
//     the frontier observed at one sweep must have caught up with the
//     ground-truth evaluation recorded a full sweep period (many drain
//     passes) earlier.
//  9. Spill-tier integrity — with the send log's disk tier configured
//     (Flow.SpillDir), the bounded-memory invariant applies to the *in-memory*
//     portion of the buffer while the total backlog is free to grow with
//     the disk, and every delivered payload must be byte-identical to the
//     origin's ground truth — data that round-tripped through spill
//     segments and back is indistinguishable from data served from memory.
//     The FIFO invariant (2) riding the same deliveries proves the
//     disk→memory hand-off is gapless.
//  10. Adaptive-controller honesty — a closed-loop consistency controller
//     (internal/adaptive) never reports a guarantee stronger than the
//     predicate rung actually installed in the frontier registry, never
//     moves more than one rung per transition or faster than its MinDwell
//     hysteresis, and a WaitFor caller that observes a released sequence
//     can re-evaluate the rung active at release time and find the
//     sequence still covered. A violation means the adaptation layer
//     *lied* about consistency — the one thing it must never do while
//     trading it away under faults.
//
// Invariants 1 and 2 are asserted continuously from hooks on the live
// nodes; invariant 3 by periodic CrossCheck sweeps (CheckBounded and
// CheckFrontierTruth ride the same sweeps for invariants 5 and 8,
// CheckBoundedMemory plus peak-spill tracking for invariant 9, and
// CheckStalls for invariant 6 and the stall half of 7); invariant 4 by the
// harness at drain time via Violatef; invariant 7 by CheckTraces after
// convergence; invariant 9's byte-identity by AttachPayloadTruth on the same
// delivery hooks as invariant 2; invariant 10 by AttachAdaptive on each
// controller's transition stream plus CheckAdaptiveHonesty sweeps and the
// release validator inside AdaptiveDemo.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/optrace"
	"stabilizer/internal/testbed"
)

// maxViolations caps the violation log so a systemic failure doesn't
// buffer unboundedly; the count is exact up to the cap.
const maxViolations = 32

type frontierKey struct {
	node int
	pred string
}

type streamKey struct {
	receiver, origin int
}

// Checker accumulates invariant violations across a soak run. All methods
// are safe for concurrent use; hooks registered by Attach run on the
// nodes' delivery and control-plane goroutines.
type Checker struct {
	n       int
	senders []int

	mu           sync.Mutex
	lastFrontier map[frontierKey]uint64
	lastDeliv    map[streamKey]uint64
	// lastTruth holds, per sender predicate, the ground-truth recorder
	// evaluation observed at the previous CheckFrontierTruth sweep; the
	// next sweep requires the frontier to have caught up with it
	// (invariant 8's bounded-lag clause).
	lastTruth map[frontierKey]uint64
	// crashHW holds the receive high water each receiver had reached when
	// it crashed, so invariant 3 stays checkable while the node is down
	// and across its fresh (RecvLast-reset) incarnation.
	crashHW    map[streamKey]uint64
	violations []string
	dropped    int
}

// NewChecker returns a checker for an n-node cluster in which the given
// nodes originate data.
func NewChecker(n int, senders []int) *Checker {
	return &Checker{
		n:            n,
		senders:      append([]int(nil), senders...),
		lastFrontier: make(map[frontierKey]uint64),
		lastDeliv:    make(map[streamKey]uint64),
		lastTruth:    make(map[frontierKey]uint64),
		crashHW:      make(map[streamKey]uint64),
	}
}

// Attach hooks invariants 1 and 2 into a live node. Call it right after
// core.Open, before the node's peers can have delivered anything, and
// again for every restarted incarnation (after RecordRestart).
func (c *Checker) Attach(node *core.Node) {
	self := node.Self()

	// Invariant 1: frontiers only advance, and never overrun the head of
	// the stream they describe (registered predicates always concern the
	// node's own outbound stream). The head is read at hook time: it is
	// monotone and was at least `new` when the advance happened, so the
	// comparison is conservative.
	node.OnFrontierAdvance(func(key string, old, new uint64) {
		head := node.NextSeq() - 1
		c.mu.Lock()
		defer c.mu.Unlock()
		k := frontierKey{self, key}
		if new <= old {
			c.failf("frontier regression: node %d predicate %q advanced %d -> %d", self, key, old, new)
		}
		if last := c.lastFrontier[k]; new <= last {
			c.failf("frontier non-monotonic: node %d predicate %q reported %d after %d", self, key, new, last)
		}
		if new > head {
			c.failf("frontier overran head: node %d predicate %q frontier %d > stream head %d", self, key, new, head)
		}
		if new > c.lastFrontier[k] {
			c.lastFrontier[k] = new
		}
	})

	// Invariant 2: per-origin FIFO, no gaps, no duplicates. A restarted
	// receiver is reset by RecordRestart and legitimately re-observes the
	// stream from sequence 1.
	node.OnDeliver(func(m core.Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		k := streamKey{self, m.Origin}
		switch want := c.lastDeliv[k] + 1; {
		case m.Seq == want:
		case m.Seq <= c.lastDeliv[k]:
			c.failf("duplicate delivery: node %d re-delivered seq %d of origin %d (already at %d)",
				self, m.Seq, m.Origin, c.lastDeliv[k])
		default:
			c.failf("delivery gap: node %d got seq %d of origin %d, want %d",
				self, m.Seq, m.Origin, want)
		}
		if m.Seq > c.lastDeliv[k] {
			c.lastDeliv[k] = m.Seq
		}
	})
}

// RecordCrash notes a crashed receiver's final receive high waters
// (origin → highest contiguous sequence), read after the node was closed.
func (c *Checker) RecordCrash(node int, highWater map[int]uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for origin, hw := range highWater {
		k := streamKey{node, origin}
		if hw > c.crashHW[k] {
			c.crashHW[k] = hw
		}
	}
}

// RecordRestart resets the FIFO and frontier tracking of a node that is
// about to come back as a fresh incarnation: its transport restarts
// receive counters at zero (origins resend from sequence 1) and its
// frontier registry starts empty. Call before the new core.Open.
func (c *Checker) RecordRestart(node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.lastDeliv {
		if k.receiver == node {
			delete(c.lastDeliv, k)
		}
	}
	for k := range c.lastFrontier {
		if k.node == node {
			delete(c.lastFrontier, k)
		}
	}
	for k := range c.lastTruth {
		if k.node == node {
			delete(c.lastTruth, k)
		}
	}
}

// CrossCheck sweeps invariant 3 over a snapshot of the cluster: for every
// live node A, origin o, and witness b, A's record of "b received seq v of
// o" must not exceed b's actual receive high water. The claim is A's
// recorder cell (EvalFor); the high water is b's transport cursor
// (Snapshot().RecvLast), never A's recorder again. nodes is 0-indexed with
// nil entries for crashed nodes; the caller must prevent concurrent
// crash/restart (the soak harness holds its cluster lock).
//
// Read order matters: every claim is read before any witness's high water.
// Receipt at b happens-before b emits the ack happens-before A records it,
// and high waters are monotone within an incarnation (crashes are covered
// by RecordCrash), so a genuine report can never observe claim > high water.
func (c *Checker) CrossCheck(nodes []*core.Node) {
	type claim struct {
		a, o, b int
		seq     uint64
	}
	var claims []claim
	for ai, a := range nodes {
		if a == nil {
			continue
		}
		for _, o := range c.senders {
			for b := 1; b <= c.n; b++ {
				if b == o {
					continue // an origin trivially "received" its own stream
				}
				seq, err := a.EvalFor(o, fmt.Sprintf("MAX($%d.received)", b))
				if err == nil && seq > 0 {
					claims = append(claims, claim{ai + 1, o, b, seq})
				}
			}
		}
	}
	if len(claims) == 0 {
		return
	}
	snaps := witnesses(nodes)
	for _, cl := range claims {
		if hw := c.highWater(snaps, cl.b, cl.o); cl.seq > hw {
			c.Violatef("phantom stability report: node %d records node %d received seq %d of origin %d, but node %d only reached %d",
				cl.a, cl.b, cl.seq, cl.o, cl.b, hw)
		}
	}
}

// witnesses reads one Snapshot per live node (the zero Snapshot for a
// crashed one), after the claims a sweep judges against them.
func witnesses(nodes []*core.Node) []core.Snapshot {
	snaps := make([]core.Snapshot, len(nodes))
	for i, n := range nodes {
		if n != nil {
			snaps[i] = n.Snapshot()
		}
	}
	return snaps
}

// highWater is how far witness b has received origin o's stream: its
// receive cursor in snaps or, if higher, what a crashed incarnation of b had
// reached (an ack can outlive its sender's incarnation).
func (c *Checker) highWater(snaps []core.Snapshot, b, o int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return max(snaps[b-1].RecvLast[o], c.crashHW[streamKey{b, o}])
}

// CheckBounded sweeps invariant 5 over a snapshot of the cluster: no live
// node's send-log bytes may exceed capBytes + slack. slack covers the one
// append admission control lets through while the log sits just under the
// cap (the cap is checked before the payload lands, so the overshoot is at
// most one payload). nodes is 0-indexed with nil entries for crashed nodes.
func (c *Checker) CheckBounded(nodes []*core.Node, capBytes, slack int64) {
	for i, n := range nodes {
		if n == nil {
			continue
		}
		if b := n.Snapshot().Log.Bytes; b > capBytes+slack {
			c.Violatef("bounded-memory violation: node %d buffers %d send-log bytes > cap %d + slack %d",
				i+1, b, capBytes, slack)
		}
	}
}

// CheckBoundedMemory sweeps invariant 9's memory clause: with a spill tier
// the cap bounds the in-memory portion of each send buffer — the total
// backlog (LogStats.Bytes) legitimately grows far past it, onto disk.
func (c *Checker) CheckBoundedMemory(nodes []*core.Node, capBytes, slack int64) {
	for i, n := range nodes {
		if n == nil {
			continue
		}
		if log := n.Snapshot().Log; log.MemoryBytes > capBytes+slack {
			c.Violatef("spill bounded-memory violation: node %d holds %d send-log bytes in memory > cap %d + slack %d (spilled %d)",
				i+1, log.MemoryBytes, capBytes, slack, log.SpilledBytes)
		}
	}
}

// AttachPayloadTruth hooks invariant 9's byte-identity clause into a live
// node: every delivered payload must equal truth(origin, seq). Pair it
// with deterministic, sequence-derived sender payloads so ground truth
// needs no copy of the stream. Violations are reported once per node per
// origin to keep the log readable.
func (c *Checker) AttachPayloadTruth(node *core.Node, truth func(origin int, seq uint64) []byte) {
	self := node.Self()
	reported := make(map[int]bool)
	var mu sync.Mutex
	node.OnDeliver(func(m core.Message) {
		want := truth(m.Origin, m.Seq)
		if string(m.Payload) == string(want) {
			return
		}
		mu.Lock()
		first := !reported[m.Origin]
		reported[m.Origin] = true
		mu.Unlock()
		if first {
			c.Violatef("payload corruption: node %d got %d bytes for origin %d seq %d that differ from ground truth (%d bytes)",
				self, len(m.Payload), m.Origin, m.Seq, len(want))
		}
	})
}

// CheckFrontierTruth sweeps invariant 8 over a snapshot of the cluster:
// for every sender s and registered predicate key (quorums maps keys to the
// number of witnesses each needs), three clauses must hold.
//
// (a) No phantom frontier: s's published frontier must not exceed a fresh
// evaluation of the predicate over s's own recorder. The frontier is read
// first and recorder cells are monotone, so however stale a deferred
// drain's snapshot was, a genuine frontier can never be observed above the
// evaluation that defines it.
//
// (b) Witness-backed release: a frontier of f means every waiter parked at
// seq ≤ f has been released, so at least quorum-many witnesses must have
// receive cursors (crash high waters included — an ack can outlive its
// sender's incarnation) that actually reached f. Receipt happens-before the
// ack happens-before the table update happens-before the drain that
// published f, and the cursors (one Snapshot per witness) are read after
// every frontier of the sweep, so a genuine release always passes.
//
// (c) Bounded lag: the frontier must be at or past the ground truth
// recorded by the previous sweep. Sweeps are spaced many drain passes apart,
// so a control plane that is keeping up has long since drained the dirty
// marks behind that older state.
//
// nodes is 0-indexed with nil entries for crashed nodes; the caller must
// prevent concurrent crash/restart (the soak harness holds its cluster
// lock).
func (c *Checker) CheckFrontierTruth(nodes []*core.Node, quorums map[string]int) {
	type claim struct {
		s   int
		key string
		fr  uint64
	}
	var claims []claim
	for _, s := range c.senders {
		sn := nodes[s-1]
		if sn == nil {
			continue
		}
		for key := range quorums {
			v, err := sn.Explain(key)
			if err != nil {
				continue // predicate not registered on this node
			}
			fr := v.Frontier
			gt, err := sn.EvalFor(sn.Self(), v.Source)
			if err != nil {
				c.Violatef("frontier truth: node %d predicate %q unevaluable: %v", s, key, err)
				continue
			}
			if fr > gt {
				c.Violatef("phantom frontier: node %d predicate %q frontier %d ahead of its own recorder evaluation %d",
					s, key, fr, gt)
			}
			if fr > 0 {
				claims = append(claims, claim{s, key, fr})
			}
			c.mu.Lock()
			prev := c.lastTruth[frontierKey{s, key}]
			if gt > prev {
				c.lastTruth[frontierKey{s, key}] = gt
			}
			c.mu.Unlock()
			if prev > 0 && fr < prev {
				c.Violatef("frontier lag unbounded: node %d predicate %q frontier %d still behind ground truth %d from the previous sweep",
					s, key, fr, prev)
			}
		}
	}
	if len(claims) == 0 {
		return
	}
	snaps := witnesses(nodes)
	for _, cl := range claims {
		stable := 0
		for b := 1; b <= c.n; b++ {
			hw := snaps[b-1].Log.Head // the origin trivially "received" its own stream
			if b != cl.s {
				hw = c.highWater(snaps, b, cl.s)
			}
			if hw >= cl.fr {
				stable++
			}
		}
		if stable < quorums[cl.key] {
			c.Violatef("phantom release: node %d predicate %q frontier %d backed by only %d/%d witness receive cursors",
				cl.s, cl.key, cl.fr, stable, quorums[cl.key])
		}
	}
}

// CheckStalls sweeps invariant 6, and with traced the stall half of
// invariant 7, over every verdict of the live nodes stuck for at least after.
// Each must name at least one holding peer, and only peers for which allowed
// returns true: the harness supplies allowed from its ground-truth knowledge
// of which peers the schedule faulted (or which are genuinely behind).
// Traced, each must also carry a non-empty flight-recorder tail for every
// holding peer, so "frontier stuck, held by node 3" always ships a
// post-mortem; a verdict carries its tails once stuck for one
// HeartbeatEvery, so after must be at least that. It returns the number of
// verdicts judged.
func (c *Checker) CheckStalls(nodes []*core.Node, after time.Duration, allowed func(peer int) bool, traced bool) (judged int) {
	for i, n := range nodes {
		if n == nil {
			continue
		}
		for _, v := range n.Snapshot().Predicates {
			if v.Stuck < after {
				continue
			}
			judged++
			if len(v.Holding) == 0 {
				c.Violatef("stall verdict without holders: node %d predicate %q stuck %v at %d/%d naming no peers",
					i+1, v.Key, v.Stuck, v.Frontier, v.Head)
			}
			for _, h := range v.Holding {
				if !allowed(h.Peer) {
					c.Violatef("dishonest stall verdict: node %d predicate %q held by healthy peer %d (frontier %d/%d)",
						i+1, v.Key, h.Peer, v.Frontier, v.Head)
				}
				if traced && len(h.Recent) == 0 {
					c.Violatef("stall trace missing: node %d predicate %q held by peer %d with an empty recorder tail (frontier %d/%d)",
						i+1, v.Key, h.Peer, v.Frontier, v.Head)
				}
			}
		}
	}
	return judged
}

// CheckTraces asserts the timeline half of invariant 7 for one origin
// after convergence: scanning down from the stream head, find a sampled
// operation whose merged timeline covers all seven lifecycle stages, and
// validate its causal order (quorums maps predicate keys to required node
// counts). Recorders on restarted nodes start empty, so ops whose events
// died with a crashed incarnation are skipped; with the cluster converged
// a recent op must still trace end to end, and finding none is itself a
// violation. Brief retries absorb the gap between an ack's table update
// and the frontier hook that records Stabilize.
func (c *Checker) CheckTraces(cl *core.Cluster, origin int, head uint64, sampleEvery int, quorums map[string]int) {
	if head == 0 {
		return
	}
	var tl *optrace.Timeline
	if !testbed.Await(2*time.Second, func() bool {
		tl = findTracedOp(cl, origin, head, sampleEvery)
		return tl != nil
	}) {
		c.Violatef("no fully-traced sampled op for origin %d (head %d, sample 1-in-%d): every candidate timeline was incomplete",
			origin, head, sampleEvery)
		return
	}
	for _, v := range tl.Validate(quorums) {
		c.Violatef("trace ill-ordered: origin %d seq %d: %s", origin, tl.Seq, v)
	}
}

// findTracedOp returns the newest sampled op at or below head whose merged
// timeline has all seven stages, or nil. It bounds the scan so a pathological
// sampling mask cannot spin forever.
func findTracedOp(cl *core.Cluster, origin int, head uint64, sampleEvery int) *optrace.Timeline {
	const maxScan, maxMerges = 1 << 14, 64
	merges := 0
	for seq, scanned := head, 0; seq >= 1 && scanned < maxScan && merges < maxMerges; seq, scanned = seq-1, scanned+1 {
		if !optrace.SampledAt(sampleEvery, origin, seq) {
			continue
		}
		merges++
		tl, err := cl.TraceOp(origin, seq)
		if err == nil && tl.HasAllStages() {
			return tl
		}
	}
	return nil
}

// Delivered returns the checker's view of the highest contiguous sequence
// the receiver has had upcalled for origin.
func (c *Checker) Delivered(receiver, origin int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastDeliv[streamKey{receiver, origin}]
}

// Violatef records an externally detected violation (the harness uses it
// for the convergence invariant).
func (c *Checker) Violatef(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failf(format, args...)
}

// failf appends a violation; callers hold c.mu.
func (c *Checker) failf(format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// Violations returns the recorded violations (empty means all invariants
// held). A trailing marker notes any overflow past the cap.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.violations...)
	if c.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more violations", c.dropped))
	}
	return out
}
