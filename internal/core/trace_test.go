package core

import (
	"context"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
)

func openTracedCluster(t *testing.T, n int, trace optrace.Config) *Cluster {
	t.Helper()
	net := emunet.NewMemNetwork(nil)
	cl, err := OpenCluster(ClusterConfig{
		Topology:       flatTopology(n),
		Network:        net,
		Metrics:        metrics.NewRegistry(),
		HeartbeatEvery: 20 * time.Millisecond,
		Trace:          trace,
	})
	if err != nil {
		net.Close()
		t.Fatalf("open cluster: %v", err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = net.Close()
	})
	return cl
}

// TestTraceOpEndToEnd drives ops through a traced 3-node cluster and
// asserts the merged timeline covers the whole lifecycle and validates.
func TestTraceOpEndToEnd(t *testing.T) {
	cl := openTracedCluster(t, 3, optrace.Config{SampleEvery: 1, RingSize: 1 << 12})
	sender := cl.Node(1)
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 20; i++ {
		seq, err := sender.Send([]byte("traced payload"))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.WaitAllFor(ctx, last, "all"); err != nil {
		t.Fatalf("WaitAllFor: %v", err)
	}

	// The frontier hook that records Stabilize may run a hair after
	// WaitAllFor unblocks, and a receiver stamps Deliver after its upcalls,
	// which may be after "all" (received) has passed: poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var tl *optrace.Timeline
	for {
		var err error
		tl, err = cl.TraceOp(1, last)
		if err == nil && tl.HasAllStages() && tl.Stages()[optrace.StageDeliver] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("TraceOp: %v", err)
			}
			t.Fatalf("timeline missing stages: %v\n%+v", tl.Stages(), tl.Events)
		}
		time.Sleep(10 * time.Millisecond)
	}

	stages := tl.Stages()
	// Two remote peers: one BatchEnqueue/WireSend per peer at the origin,
	// one WireRecv/Deliver per peer.
	if stages[optrace.StageAppend] < 1 || stages[optrace.StageWireRecv] < 2 || stages[optrace.StageDeliver] < 2 {
		t.Fatalf("stage counts = %v", stages)
	}
	// Events must come from all three nodes.
	nodes := map[int]bool{}
	for _, ev := range tl.Events {
		nodes[ev.Node] = true
	}
	if len(nodes) != 3 {
		t.Fatalf("merged timeline covers nodes %v, want all 3", nodes)
	}
	if bad := tl.Validate(map[string]int{"all": 3}); len(bad) != 0 {
		t.Fatalf("timeline violations: %v", bad)
	}

	// Stage histograms saw samples on the origin's registry.
	stage := cl.Metrics().NodeGroup("1").HistogramVec(optrace.StageFamily, optrace.StageFamilyHelp, metrics.LatencyOpts, "stage")
	for _, seg := range []string{optrace.SegBatchQueue, optrace.SegWireSend, optrace.SegAckReturn} {
		if stage.With(seg).Count() == 0 {
			t.Errorf("stage %q histogram empty on origin", seg)
		}
	}
	// Flight and deliver are observed where the data lands: the receivers.
	recvStage := cl.Metrics().NodeGroup("2").HistogramVec(optrace.StageFamily, optrace.StageFamilyHelp, metrics.LatencyOpts, "stage")
	for _, seg := range []string{optrace.SegFlight, optrace.SegDeliver} {
		if recvStage.With(seg).Count() == 0 {
			t.Errorf("stage %q histogram empty on receiver", seg)
		}
	}

	// SlowestOp resolves to a traced op.
	slow, err := cl.SlowestOp()
	if err != nil {
		t.Fatalf("SlowestOp: %v", err)
	}
	if slow.Origin != 1 || len(slow.Events) == 0 {
		t.Fatalf("SlowestOp = %+v", slow)
	}
}

// TestTraceDisabled asserts the disabled path: no recorder, queries error.
func TestTraceDisabled(t *testing.T) {
	cl := openTracedCluster(t, 2, optrace.Config{})
	if cl.Node(1).trace != nil {
		t.Fatal("recorder exists with tracing disabled")
	}
	if _, err := cl.TraceOp(1, 1); err != ErrTracingDisabled {
		t.Fatalf("TraceOp error = %v, want ErrTracingDisabled", err)
	}
	if _, _, _, ok := cl.Node(1).slow.get(); ok {
		t.Fatal("slowest-op tracker reported an op with tracing disabled")
	}
}

// TestStallHealthIncludesTraceTail crashes a peer and asserts the stalled
// verdict in the Snapshot carries a non-empty recorder tail for the peer
// holding it.
func TestStallHealthIncludesTraceTail(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	cl, err := OpenCluster(ClusterConfig{
		Topology:       flatTopology(3),
		Network:        net,
		Metrics:        metrics.NewRegistry(),
		HeartbeatEvery: 20 * time.Millisecond,
		Stall:          StallConfig{Deadline: 100 * time.Millisecond},
		Trace:          optrace.Config{SampleEvery: 1, RingSize: 1 << 12},
	})
	if err != nil {
		net.Close()
		t.Fatalf("open cluster: %v", err)
	}
	defer func() {
		_ = cl.Close()
		_ = net.Close()
	}()

	sender := cl.Node(1)
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	stalled := make(chan PredicateState, 8)
	sender.OnStall(func(r PredicateState) {
		select {
		case stalled <- r:
		default:
		}
	})

	// Let traffic flow first so the recorder has events for peer 3, then
	// cut node 3 off and keep sending.
	for i := 0; i < 5; i++ {
		if _, err := sender.Send([]byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := cl.Crash(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sender.Send([]byte("stuck")); err != nil {
			t.Fatal(err)
		}
	}

	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("no stall report")
	}

	h := sender.Snapshot()
	foundHolder := false
	for _, ph := range h.Predicates {
		if !ph.Stalled {
			continue
		}
		for _, lag := range ph.Holding {
			if lag.Peer != 3 {
				continue
			}
			foundHolder = true
			if len(lag.Recent) == 0 {
				t.Fatalf("holding peer %d has empty trace tail (predicate %q)", lag.Peer, ph.Key)
			}
			for _, ev := range lag.Recent {
				if ev.Peer != 3 && !(ev.Origin == 1 && ev.Seq > ph.Frontier) {
					t.Fatalf("tail event unrelated to the holder: %+v", ev)
				}
			}
		}
	}
	if !foundHolder {
		t.Fatalf("no stalled predicate held by peer 3: %+v", h.Predicates)
	}
}
