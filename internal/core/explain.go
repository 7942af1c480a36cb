package core

import (
	"slices"
	"time"

	"stabilizer/internal/frontier"
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
	// only once Stuck has reached one HeartbeatEvery and tracing is on.
	Recent []optrace.Event `json:"recent,omitempty"`
}

// PredicateState is the verdict on one registered predicate: what it is,
// where its frontier stands against the send log's head, how long it has sat
// still there and who holds it back. Explain and Snapshot hand out the same
// verdict, built in one place.
type PredicateState struct {
	Key       string `json:"key"`
	Source    string `json:"source"`
	DependsOn []int  `json:"dependsOn,omitempty"`
	Frontier  uint64 `json:"frontier"`
	Head      uint64 `json:"head"`
	// Stuck is how long Frontier has sat still below Head; 0 once it reaches
	// Head, and 0 while no peer holds it (a drain is pending). The node's tick
	// reads the clock every HeartbeatEvery, so it starts within one tick of a
	// message being outstanding; Explain, Snapshot and an adaptive controller
	// read the same clock. It is the one stall signal: how long is too long
	// is the reader's call.
	Stuck time.Duration `json:"stuck"`
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
	v.Stuck = st.Stuck
	// A frontier stuck for less than a tick may still be moving: the
	// recorder-tail scan is kept for one that has sat still through one.
	if v.Stuck >= n.tickEvery {
		for i := range v.Holding {
			v.Holding[i].Recent = n.traceTail(v.Holding[i].Peer, st.Frontier)
		}
	}
	return v
}
