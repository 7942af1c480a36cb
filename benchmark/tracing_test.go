package main

import (
	"errors"
	"math"
	"testing"

	"stabilizer/internal/optrace"
	"stabilizer/internal/predlib"
)

// syntheticTimeline is one AllWNodes write from node 1, sequence 10, with
// three peers. Times are nanoseconds. Peer 3 is the slowest to acknowledge,
// so the chain follows peer 3.
func syntheticTimeline() (span, []optrace.Event) {
	sp := span{origin: 1, seq: 10, kind: kindAll, start: 1000, submitted: 3000, end: 100000}
	ev := func(stage optrace.Stage, node, peer int, seq uint64, label string, ts int64) optrace.Event {
		return optrace.Event{Stage: stage, Node: node, Origin: 1, Seq: seq, Peer: peer, Label: label, TS: ts}
	}
	events := []optrace.Event{
		ev(optrace.StageAppend, 1, 0, 10, "", 2000),
		ev(optrace.StageBatchEnqueue, 1, 2, 10, "", 4000),
		ev(optrace.StageBatchEnqueue, 1, 3, 10, "", 5000),
		ev(optrace.StageWireSend, 1, 2, 10, "", 4500),
		ev(optrace.StageWireSend, 1, 3, 10, "", 7000),
		ev(optrace.StageWireRecv, 2, 1, 10, "", 20000),
		ev(optrace.StageWireRecv, 3, 1, 10, "", 40000),
		ev(optrace.StageDeliver, 2, 0, 10, "", 21000),
		ev(optrace.StageDeliver, 3, 0, 10, "", 43000),
		// ACK watermarks at the origin; the one from peer 2 already covers
		// a later sequence, and each peer acknowledges again afterwards.
		ev(optrace.StageAck, 1, 2, 12, "received", 50000),
		ev(optrace.StageAck, 1, 3, 10, "delivered", 60000), // other type: ignored
		ev(optrace.StageAck, 1, 3, 10, "received", 90000),
		ev(optrace.StageAck, 1, 2, 30, "received", 95000),
		ev(optrace.StageAck, 1, 3, 30, "received", 99000),
		// Peer 3 relays what it heard; recorded on node 3, not the origin.
		ev(optrace.StageAck, 3, 2, 12, "received", 45000),
		ev(optrace.StageStabilize, 1, 0, 12, predlib.OneWNodeKey, 50500),
		ev(optrace.StageStabilize, 1, 0, 10, predlib.AllWNodesKey, 96000),
		ev(optrace.StageStabilize, 1, 0, 30, predlib.AllWNodesKey, 99500),
	}
	return sp, events
}

func TestAnalyzeFollowsTheDecidingPeer(t *testing.T) {
	sp, events := syntheticTimeline()
	b, err := analyze(sp, events, predlib.AllWNodesKey)
	if err != nil {
		t.Fatal(err)
	}
	if b.peer != 3 {
		t.Fatalf("deciding peer = %d, want 3 (its ACK immediately precedes the stabilize event)", b.peer)
	}
	want := [len(stageMetrics)]float64{3, 2, 33, 3, 47, 6, 4} // microseconds
	if b.stages != want {
		t.Errorf("stages = %v, want %v", b.stages, want)
	}
	if b.latencyUS != 99 || b.residualUS != 1 {
		t.Errorf("latency %v us, residual %v us; want 99 and 1 (Send called 1 us before the append stamp)", b.latencyUS, b.residualUS)
	}
	if got := b.stageSum() + b.residualUS; math.Abs(got-b.latencyUS) > 1e-9 {
		t.Errorf("stage sum + residual = %v, client-side latency = %v", got, b.latencyUS)
	}

	// Under OneWNode the same operation is decided by peer 2.
	sp.kind, sp.end = kindOne, 52000
	b, err = analyze(sp, events, predlib.OneWNodeKey)
	if err != nil {
		t.Fatal(err)
	}
	if b.peer != 2 || b.stages[stageFlight] != 15.5 || b.stages[stageDeliverToAck] != 29 {
		t.Errorf("OneWNode: peer %d, flight %v, deliver→ack %v; want 2, 15.5, 29", b.peer, b.stages[stageFlight], b.stages[stageDeliverToAck])
	}
}

func TestAnalyzeRejectsEvictedEvents(t *testing.T) {
	sp, events := syntheticTimeline()
	drop := func(match func(optrace.Event) bool) []optrace.Event {
		var kept []optrace.Event
		for _, ev := range events {
			if !match(ev) {
				kept = append(kept, ev)
			}
		}
		return kept
	}
	for name, evs := range map[string][]optrace.Event{
		"no wire_recv on the deciding peer": drop(func(ev optrace.Event) bool { return ev.Stage == optrace.StageWireRecv && ev.Node == 3 }),
		"no append":                         drop(func(ev optrace.Event) bool { return ev.Stage == optrace.StageAppend }),
		// With the covering stabilize evicted, only the later advance (after
		// the client's wait returned) is left.
		"covering stabilize evicted": drop(func(ev optrace.Event) bool {
			return ev.Stage == optrace.StageStabilize && ev.Label == predlib.AllWNodesKey && ev.Seq == 10
		}),
		"no acks": drop(func(ev optrace.Event) bool { return ev.Stage == optrace.StageAck }),
	} {
		sp := sp
		sp.end = 97000
		if _, err := analyze(sp, evs, predlib.AllWNodesKey); !errors.Is(err, errIncomplete) {
			t.Errorf("%s: err = %v, want errIncomplete", name, err)
		}
	}
}

func TestPickSpansKeepsTheTail(t *testing.T) {
	w := &workload{traceTail: 100, traceOps: 10}
	var spans []span
	for i := 0; i < 1000; i++ {
		spans = append(spans, span{seq: uint64(i), end: int64(i)})
	}
	got := pickSpans(w, spans)
	if len(got) != 10 {
		t.Fatalf("picked %d spans, want 10", len(got))
	}
	for _, sp := range got {
		if sp.end < 899 {
			t.Errorf("picked a span ending at %d, outside the final 100 ns", sp.end)
		}
	}
	if got := pickSpans(&workload{traceOps: 2000}, spans); len(got) != len(spans) {
		t.Errorf("a phase that fits is read back whole: got %d of %d", len(got), len(spans))
	}
}
