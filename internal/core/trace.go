package core

import (
	"errors"
	"fmt"

	"stabilizer/internal/optrace"
)

// traceTail snapshots the newest events that involve the given peer or
// describe this node's own not-yet-stable operations past frontier — the
// post-mortem slice a stuck verdict carries for each holding peer.
func (n *Node) traceTail(peer int, frontier uint64) []optrace.Event {
	if n.trace == nil {
		return nil
	}
	self := n.topo.Self
	return n.trace.Tail(stallTailEvents, func(ev optrace.Event) bool {
		if ev.Peer == peer {
			return true
		}
		return ev.Origin == self && ev.Seq > frontier
	})
}

// stallTailEvents bounds the recorder tail a stuck verdict carries for each
// holding peer.
const stallTailEvents = 24

// ErrTracingDisabled is returned by trace queries when no live node has a
// recorder.
var ErrTracingDisabled = errors.New("core: tracing is disabled (Config.Trace not set)")

// TraceOp merges every live node's recorder view of one operation into a
// single causally-ordered timeline. Crashed nodes contribute nothing (the
// recorder dies with the node); restarted nodes contribute whatever their
// fresh recorder has seen since.
func (c *Cluster) TraceOp(origin int, seq uint64) (*optrace.Timeline, error) {
	nodes := c.Nodes()
	recs := make([]*optrace.Recorder, 0, len(nodes))
	for _, n := range nodes {
		if n.trace != nil {
			recs = append(recs, n.trace)
		}
	}
	if len(recs) == 0 {
		return nil, ErrTracingDisabled
	}
	tl := optrace.MergeOp(origin, seq, recs)
	if len(tl.Events) == 0 {
		return nil, fmt.Errorf("core: no trace events for origin %d seq %d (unsampled, or evicted from the rings)", origin, seq)
	}
	return tl, nil
}

// SlowestOp traces the slowest sampled operation any live node has seen
// stabilize — the /debug/trace?op=latest-slow query.
func (c *Cluster) SlowestOp() (*optrace.Timeline, error) {
	var (
		bestNode int
		bestSeq  uint64
		bestLat  int64
		found    bool
	)
	for _, n := range c.Nodes() {
		// Each node tracks ops it originated, so the node id is the
		// op's origin.
		if seq, lat, _, ok := n.slow.get(); ok && (!found || lat > bestLat) {
			bestNode, bestSeq, bestLat, found = n.Self(), seq, lat, true
		}
	}
	if !found {
		return nil, errors.New("core: no sampled operation has stabilized yet")
	}
	return c.TraceOp(bestNode, bestSeq)
}

var _ optrace.Source = (*Cluster)(nil)
