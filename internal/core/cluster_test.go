package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/frontier"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
	"stabilizer/internal/transport"
)

func openTestCluster(t *testing.T, n int) (*Cluster, *metrics.Registry) {
	t.Helper()
	net := emunet.NewMemNetwork(nil)
	reg := metrics.NewRegistry()
	cl, err := OpenCluster(Config{
		Topology:       flatTopology(n),
		Network:        net,
		Metrics:        reg,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		net.Close()
		t.Fatalf("open cluster: %v", err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = net.Close()
	})
	return cl, reg
}

// TestClusterSharedRegistryExposesEveryNode is the tentpole acceptance
// check: one registry, one scrape, every in-process node visible through
// node-labeled families.
func TestClusterSharedRegistryExposesEveryNode(t *testing.T) {
	cl, reg := openTestCluster(t, 3)
	if got := len(cl.Nodes()); got != 3 {
		t.Fatalf("live nodes = %d, want 3", got)
	}

	sender := cl.Node(1)
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 10; i++ {
		seq, err := sender.Send([]byte("payload"))
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
	if err := cl.WaitAllReceive(ctx, 1, last); err != nil {
		t.Fatalf("WaitAllReceive: %v", err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for id := 1; id <= 3; id++ {
		want := fmt.Sprintf(`stabilizer_core_next_seq{node="%d"}`, id)
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
	// The sender's sends and a receiver's deliveries live in the same
	// family, distinguished only by node label.
	fam := reg.Find("stabilizer_core_sends_total")
	if fam == nil {
		t.Fatal("stabilizer_core_sends_total missing")
	}
	byNode := map[string]float64{}
	for _, m := range fam.Metrics {
		byNode[m.Labels["node"]] = m.Value
	}
	if byNode["1"] != 10 {
		t.Errorf("node 1 sends = %v, want 10", byNode["1"])
	}

	// EvalAllFor agrees with the awaited frontier. WaitAllFor only proved
	// node 1's frontier (the predicate is registered there); the other
	// nodes' ACK tables converge asynchronously, so poll.
	for {
		f, err := cl.EvalAllFor(1, "MIN($ALLWNODES)")
		if err != nil {
			t.Fatalf("EvalAllFor: %v", err)
		}
		if f >= last {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("EvalAllFor stuck at %d, want >= %d", f, last)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The cluster-wide snapshot covers every node.
	if s := cl.Snapshot(); len(s) != 3 {
		t.Errorf("Snapshot() returned %d entries, want 3", len(s))
	}
}

func TestClusterCloseOrderedIdempotent(t *testing.T) {
	cl, _ := openTestCluster(t, 3)
	if err := cl.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if cl.Node(1) != nil || len(cl.Nodes()) != 0 {
		t.Fatal("nodes still live after Close")
	}
	if _, err := cl.Restart(1); err == nil {
		t.Fatal("Restart succeeded on a closed cluster")
	}
}

func TestClusterCrashRestart(t *testing.T) {
	cl, _ := openTestCluster(t, 3)
	sender := cl.Node(1)
	var last uint64
	for i := 0; i < 5; i++ {
		seq, err := sender.Send([]byte("pre-crash"))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.WaitAllReceive(ctx, 1, last); err != nil {
		t.Fatal(err)
	}

	dead, err := cl.Crash(2)
	if err != nil {
		t.Fatalf("crash: %v", err)
	}
	if cl.Node(2) != nil {
		t.Fatal("crashed node still listed live")
	}
	// Post-mortem read on the dead handle: its receive high-water is what
	// the chaos checker feeds RecordCrash.
	if got := dead.Snapshot().RecvLast[1]; got != last {
		t.Errorf("dead handle's RecvLast[1] = %d, want %d", got, last)
	}
	if _, err := cl.Crash(2); err == nil {
		t.Fatal("double crash succeeded")
	}

	if _, err := cl.Restart(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if cl.Node(2) == nil {
		t.Fatal("restarted node not listed live")
	}
	if _, err := cl.Restart(2); err == nil {
		t.Fatal("restart of a running node succeeded")
	}
	// The restarted node catches back up on the sender's stream.
	seq, err := sender.Send([]byte("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitAllReceive(ctx, 1, seq); err != nil {
		t.Fatalf("restarted node never caught up: %v", err)
	}
}

func TestClusterWaitAllForUnknownPredicate(t *testing.T) {
	cl, _ := openTestCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := cl.WaitAllFor(ctx, 1, "nope"); err == nil {
		t.Fatal("WaitAllFor on unregistered predicate succeeded")
	}
}

// TestClusterBootsEveryNodeFromTheTemplate: every node of the topology is
// built from the one Config template — here, auto-reclaim disabled — and a
// restarted node is built from it again.
func TestClusterBootsEveryNodeFromTheTemplate(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	cl, err := OpenCluster(Config{
		Topology:           flatTopology(2),
		Network:            net,
		HeartbeatEvery:     20 * time.Millisecond,
		DisableAutoReclaim: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.IDs(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("IDs = %v, want [1 2]", got)
	}
	reclaims := func(id int) bool { return cl.Node(id).registry.Has(ReclaimPredicateKey) }
	if reclaims(1) || reclaims(2) {
		t.Fatalf("reclaim installed on (node 1, node 2) = (%v, %v), want neither", reclaims(1), reclaims(2))
	}
	if _, err := cl.Crash(2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Restart(2); err != nil {
		t.Fatal(err)
	}
	if reclaims(2) {
		t.Fatal("the restarted node was not built from the template")
	}
}

type nopPersister struct{}

func (nopPersister) Persist(Message) error { return nil }

// TestOpenIsOpenClusterOfSelf: Open boots Topology.Self through the cluster
// boot path, and the node it returns is built from every field of its Config
// — the Checkpoint OpenCluster refuses included — with its families in the
// caller's registry under its own node label.
func TestOpenIsOpenClusterOfSelf(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	reg := metrics.NewRegistry()
	n, err := Open(Config{
		Topology:           flatTopology(3).WithSelf(2),
		Network:            net,
		HeartbeatEvery:     125 * time.Millisecond,
		Persister:          nopPersister{},
		Checkpoint:         &Checkpoint{NextSeq: 42},
		DisableAutoReclaim: true,
		Metrics:            reg,
		Flow:               transport.FlowConfig{MaxBytes: 1 << 20},
		Trace:              optrace.Config{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Self() != 2 || n.log.NextSeq() != 42 || n.persister == nil || n.trace == nil ||
		n.log.Stats().CapBytes != 1<<20 || n.tickEvery != 125*time.Millisecond || n.registry.Has(ReclaimPredicateKey) {
		t.Fatalf("node %d was not built from its config", n.Self())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `stabilizer_core_next_seq{node="2"}`; !strings.Contains(sb.String(), want) {
		t.Fatalf("the caller's registry is missing %s", want)
	}
}

// TestClusterRefusesSharedCheckpoint: a Checkpoint is one node's state, so
// OpenCluster refuses it at any node count — a restarted cluster node would
// be rebuilt from it and re-issue sequences its peers already hold — with an
// error that names Open, the one way to resume a node.
func TestClusterRefusesSharedCheckpoint(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	for _, n := range []int{1, 3} {
		cl, err := OpenCluster(Config{Topology: flatTopology(n), Network: net, Checkpoint: &Checkpoint{NextSeq: 5}})
		if err == nil {
			_ = cl.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "Checkpoint") || !strings.Contains(err.Error(), "Open") {
			t.Fatalf("%d nodes: err = %v, want a refusal naming Checkpoint and Open", n, err)
		}
	}
}

// waitAllForGoroutines counts the goroutines WaitAllFor started that are
// still running: other goroutines come and go with the links (a redial under
// load), these must not outlive the call.
func waitAllForGoroutines() int {
	buf := make([]byte, 4<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Cluster).WaitAllFor.func")
}

// TestClusterWaitAllForErrorLeavesNoGoroutines: when one node's wait fails,
// WaitAllFor returns its error and the other nodes' waits end with it, under
// a context that never does.
func TestClusterWaitAllForErrorLeavesNoGoroutines(t *testing.T) {
	cl, _ := openTestCluster(t, 3)
	for _, n := range cl.Nodes() {
		if err := n.RegisterPredicate("p", "MIN($ALLWNODES)"); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- cl.WaitAllFor(context.Background(), 1<<40, "p") }()
	waitUntil(t, 5*time.Second, "a waiter on every node", func() bool {
		for _, n := range cl.Nodes() {
			if n.registry.WaiterCount() != 1 {
				return false
			}
		}
		return true
	})
	if n := waitAllForGoroutines(); n != 3 {
		t.Fatalf("%d WaitAllFor goroutines parked, want one per node", n)
	}
	if err := cl.Node(2).RemovePredicate("p"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, frontier.ErrPredUnknown) {
			t.Fatalf("WaitAllFor: %v, want ErrPredUnknown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitAllFor still waiting after a node's wait failed")
	}
	waitUntil(t, 5*time.Second, "WaitAllFor's goroutines to end", func() bool {
		return waitAllForGoroutines() == 0
	})
}
