package core

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"stabilizer/internal/frontier"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
)

// PeerLag is one peer holding a predicate's frontier back.
type PeerLag struct {
	Peer   int    `json:"peer"`
	AZ     string `json:"az"`
	Region string `json:"region"`
	// Up is the failure detector's view of the peer: false once it has been
	// silent for 8 ticks.
	Up bool `json:"up"`
	// Ack is the lowest recorder-cell value the predicate reads from this
	// peer: at or below the frontier, which is why the peer holds it.
	Ack uint64 `json:"ack"`
	// Recent is the flight-recorder tail: the newest traced events that
	// involve the peer or describe local operations past the frontier. Filled
	// only while the predicate is stalled and tracing is on.
	Recent []optrace.Event `json:"recent,omitempty"`
}

// PredicateState is the verdict on one registered predicate: what it is,
// where its frontier stands against the send log's head, how long it has sat
// still there and who holds it back. Explain, Snapshot and OnStall hand out
// the same verdict, built in one place.
type PredicateState struct {
	Key       string `json:"key"`
	Source    string `json:"source"`
	DependsOn []int  `json:"dependsOn,omitempty"`
	Frontier  uint64 `json:"frontier"`
	Head      uint64 `json:"head"`
	// Stuck is how long Frontier has sat still below Head; 0 once it reaches
	// Head, and 0 while no peer holds it (a drain is pending). The node's tick
	// reads the clock every HeartbeatEvery, deadline or not, so it starts
	// within one tick of a message being outstanding; Explain, Snapshot and
	// an adaptive controller read the same clock.
	Stuck time.Duration `json:"stuck"`
	// Stalled is Stuck at or past Config.Stall.Deadline; never while the
	// deadline is zero.
	Stalled bool `json:"stalled"`
	// Holding lists, ascending by peer, whenever Frontier < Head, the
	// dependent peers whose operand cells sit at or below the frontier — the
	// ones whose advance would move it. A peer strictly ahead of the frontier
	// cannot be what binds it and is never listed.
	Holding []PeerLag `json:"holding,omitempty"`
}

// Explain is the verdict on the predicate under key, the reserved reclaim
// key included: the one answer to why its frontier is not moving. It is read
// under one hold of the registry lock, against the send log's head.
func (n *Node) Explain(key string) (PredicateState, error) {
	head := n.log.Head()
	st, err := n.registry.State(key, head, n.nowFn())
	if err != nil {
		return PredicateState{}, err
	}
	return n.verdict(st, head), nil
}

// verdict builds the verdict on one predicate from its registry reading
// against head: the only place holders are named.
func (n *Node) verdict(st frontier.PredicateState, head uint64) PredicateState {
	v := PredicateState{
		Key: st.Key, Source: st.Source, DependsOn: st.DependsOn,
		Frontier: st.Frontier, Head: head,
	}
	if st.Frontier >= head {
		return v
	}
	table := n.selfTable()
	for _, c := range st.Cells {
		if c.Node == n.topo.Self {
			continue
		}
		ack := table.Value(c.Node, c.Type)
		if ack > st.Frontier {
			continue
		}
		if i := slices.IndexFunc(v.Holding, func(l PeerLag) bool { return l.Peer == c.Node }); i >= 0 {
			v.Holding[i].Ack = min(v.Holding[i].Ack, ack)
			continue
		}
		tn := n.topo.Nodes[c.Node-1]
		v.Holding = append(v.Holding, PeerLag{Peer: c.Node, AZ: tn.AZ, Region: tn.Region, Up: n.tr.Up(c.Node), Ack: ack})
	}
	if len(v.Holding) == 0 {
		// No peer's cell sits at or below the frontier: the cells were read
		// after the registry lock was dropped, and what holds the frontier
		// is a drain still pending, not a peer.
		return v
	}
	slices.SortFunc(v.Holding, func(a, b PeerLag) int { return a.Peer - b.Peer })
	deadline := n.stall.cfg.Deadline
	v.Stuck, v.Stalled = st.Stuck, deadline > 0 && st.Stuck >= deadline
	if v.Stalled {
		for i := range v.Holding {
			v.Holding[i].Recent = n.traceTail(v.Holding[i].Peer, st.Frontier)
		}
	}
	return v
}

// StallConfig sets when a verdict reads stalled: once a registered
// predicate's frontier has sat still below the send head for Deadline, its
// verdict reads Stalled, OnStall fires and the stabilizer_frontier_stalled
// gauges name the peers holding it. The node's tick sweeps every
// HeartbeatEvery, so a stall is declared within one HeartbeatEvery of its
// deadline. The zero value declares no stall; Explain and Snapshot still
// report Stuck and Holding.
type StallConfig struct {
	// Deadline is how long a lagging frontier may sit still before the
	// predicate is declared stalled (0: never).
	Deadline time.Duration
}

// stallState is the stall sweep's memory, split out of Node so the hot data
// plane never touches it: per stalled key, the holders it last fired.
type stallState struct {
	cfg   StallConfig
	hooks cowList[hook[PredicateState]]
	gauge *metrics.GaugeVec // stabilizer_frontier_stalled{predicate,peer}
	mu    sync.Mutex
	fired map[string][]int // a key is present while stalled
}

// initStallState wires the stall metric families.
func (n *Node) initStallState(cfg StallConfig, mreg *metrics.Registry) {
	st := &stallState{
		cfg:   cfg,
		fired: make(map[string][]int),
	}
	st.gauge = mreg.GaugeVec("stabilizer_frontier_stalled",
		"1 while the predicate's frontier is stalled with this peer holding it.",
		"predicate", "peer")
	// The zone rollup keeps no count: each zone of the topology gets one
	// child that counts the held pairs when it is scraped.
	byZone := mreg.GaugeFuncVec("stabilizer_frontier_stalled_peers",
		"Stalled (predicate, peer) pairs whose holding peer is in this zone.",
		"az", "region")
	nodes := n.topo.Nodes
	for _, tn := range nodes {
		az, rg := tn.AZ, tn.Region
		byZone.Set(func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			count := 0
			for _, peers := range st.fired {
				for _, p := range peers {
					if nodes[p-1].AZ == az && nodes[p-1].Region == rg {
						count++
					}
				}
			}
			return float64(count)
		}, az, rg)
	}
	n.stall = st
}

// OnStall registers fn to hear the verdict on a predicate when it first
// stalls and again whenever a stalled predicate's holders change. fn runs on
// the node's tick, after the heartbeats are queued, and delays the next tick
// while it runs: keep it short or hand off. Requires Config.Stall.Deadline >
// 0. The returned cancel detaches the hook (idempotent); a nil fn is ignored
// and gets a harmless no-op cancel.
func (n *Node) OnStall(fn func(PredicateState)) (cancel func()) {
	return addHook(n, &n.stall.hooks, fn)
}

// checkStalls is one sweep at now: read every predicate's stall clock and,
// with a deadline set, take every verdict, fire the hooks on each stall edge
// and move the stalled gauges with it.
func (n *Node) checkStalls(now time.Time) {
	st := n.stall
	head := n.log.Head()
	states := n.registry.States(head, now)
	if st.cfg.Deadline <= 0 {
		return
	}
	var edges []PredicateState

	st.mu.Lock()
	live := make(map[string]bool, len(states))
	for _, ps := range states {
		v := n.verdict(ps, head)
		live[v.Key] = true
		last, was := st.fired[v.Key]
		switch {
		case v.Stalled:
			peers := make([]int, len(v.Holding))
			for i, l := range v.Holding {
				peers[i] = l.Peer
			}
			if was && slices.Equal(peers, last) {
				continue
			}
			st.setLocked(v.Key, peers, true)
			edges = append(edges, v)
		case was:
			st.setLocked(v.Key, nil, false)
		}
	}
	// A removed predicate takes its gauges along.
	for key := range st.fired {
		if !live[key] {
			st.setLocked(key, nil, false)
		}
	}
	st.mu.Unlock()

	for _, v := range edges {
		for _, h := range st.hooks.load() {
			h.fn(v)
		}
	}
}

// setLocked records key as stalled with peers holding it, or as not stalled,
// and moves its gauges to match. Caller holds st.mu.
func (st *stallState) setLocked(key string, peers []int, stalled bool) {
	for _, p := range st.fired[key] {
		st.gauge.Delete(key, strconv.Itoa(p))
	}
	if !stalled {
		delete(st.fired, key)
		return
	}
	st.fired[key] = peers
	for _, p := range peers {
		st.gauge.With(key, strconv.Itoa(p)).Set(1)
	}
}
