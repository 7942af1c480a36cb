package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/emunet"
)

// TestPredicateAdjustmentOnPeerFailure exercises the paper's §III-E
// recovery recipe end to end: a secondary crashes mid-stream, the sender's
// strong predicate stalls, OnPeer reports the secondary down, the application
// drops the dead node via ChangePredicate, and the stalled waiter completes.
func TestPredicateAdjustmentOnPeerFailure(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	topo := flatTopology(4)

	nodes := make([]*Node, 4)
	for i := 1; i <= 4; i++ {
		n, err := Open(Config{
			Topology:       topo.WithSelf(i),
			Network:        net,
			HeartbeatEvery: 7500 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		nodes[i-1] = n
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				_ = n.Close()
			}
		}
	}()
	sender := nodes[0]
	if err := sender.RegisterPredicate("strong", "MIN($ALLWNODES-$MYWNODE)"); err != nil {
		t.Fatal(err)
	}

	// The application's recovery policy: on failure, re-derive every
	// predicate that depends on the dead node without it (the reserved
	// reclaim predicate refuses the change).
	sender.OnPeer(func(peer int, up bool) {
		if up {
			return
		}
		for _, v := range sender.Snapshot().Predicates {
			for _, d := range v.DependsOn {
				if d == peer {
					_ = sender.ChangePredicate(v.Key,
						fmt.Sprintf("MIN($ALLWNODES-$MYWNODE-$%d)", peer))
					break
				}
			}
		}
	})

	// Let the mesh come up, then murder node 4 and send.
	time.Sleep(100 * time.Millisecond)
	_ = nodes[3].Close()
	nodes[3] = nil

	seq, err := sender.Send([]byte("survives failures"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, seq, "strong"); err != nil {
		t.Fatalf("waiter never released after predicate adjustment: %v", err)
	}
	v, _ := sender.Explain("strong")
	for _, d := range v.DependsOn {
		if d == 4 {
			t.Fatalf("predicate still depends on dead node: %v", v.DependsOn)
		}
	}
}

// TestReceiverCrashAndRecoveryResumesStream kills a receiver and brings a
// fresh incarnation back: the sender's retransmission buffer replays the
// backlog and the strong predicate eventually covers everything.
func TestReceiverCrashAndRecoveryResumesStream(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	topo := flatTopology(3)

	open := func(i int) *Node {
		n, err := Open(Config{
			Topology:           topo.WithSelf(i),
			Network:            net,
			HeartbeatEvery:     10 * time.Millisecond,
			DisableAutoReclaim: i == 1, // keep the backlog replayable
		})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		return n
	}
	n1, n2, n3 := open(1), open(2), open(3)
	defer func() { _ = n1.Close(); _ = n2.Close() }()

	if err := n1.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	// Warm up, then crash node 3 and keep sending into the outage.
	time.Sleep(50 * time.Millisecond)
	_ = n3.Close()
	var last uint64
	for i := 0; i < 20; i++ {
		var err error
		last, err = n1.Send([]byte(fmt.Sprintf("outage-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}

	// Fresh incarnation of node 3 (state lost).
	var mu sync.Mutex
	var delivered []uint64
	n3 = open(3)
	defer func() { _ = n3.Close() }()
	n3.OnDeliver(func(m Message) {
		if m.Origin == 1 {
			mu.Lock()
			delivered = append(delivered, m.Seq)
			mu.Unlock()
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := n1.WaitFor(ctx, last, "all"); err != nil {
		t.Fatalf("stream never recovered: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 20 {
		t.Fatalf("recovered node delivered %d/20 messages", len(delivered))
	}
	for i, s := range delivered {
		if s != uint64(i+1) {
			t.Fatalf("recovered delivery out of order at %d: %d", i, s)
		}
	}
}

// TestTCPFabricEndToEnd runs the full stack over real loopback TCP.
func TestTCPFabricEndToEnd(t *testing.T) {
	matrix := emunet.NewMatrix()
	matrix.Default = emunet.Link{OneWayLatency: 2 * time.Millisecond, BandwidthBps: emunet.Mbps(200)}
	net := emunet.NewTCPNetwork(matrix)
	defer net.Close()
	topo := flatTopology(3)

	var nodes []*Node
	for i := 1; i <= 3; i++ {
		n, err := Open(Config{Topology: topo.WithSelf(i), Network: net})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	sender := nodes[0]
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got int
	for _, n := range nodes[1:] {
		n.OnDeliver(func(m Message) {
			mu.Lock()
			got++
			mu.Unlock()
		})
	}
	payload := make([]byte, 8<<10)
	var last uint64
	for i := 0; i < 100; i++ {
		var err error
		last, err = sender.Send(payload)
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, last, "all"); err != nil {
		t.Fatalf("waitfor over TCP: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got != 200 {
		t.Fatalf("delivered %d/200 over TCP", got)
	}
}

// TestConcurrentSendersAllOrigins drives every node as a sender at once;
// each origin's stream must stay FIFO at each receiver.
func TestConcurrentSendersAllOrigins(t *testing.T) {
	c := startCluster(t, flatTopology(4), nil)
	const per = 100

	type key struct{ receiver, origin int }
	var mu sync.Mutex
	seqs := make(map[key][]uint64)
	for i, n := range c.nodes {
		me := i + 1
		n.OnDeliver(func(m Message) {
			mu.Lock()
			k := key{me, m.Origin}
			seqs[k] = append(seqs[k], m.Seq)
			mu.Unlock()
		})
		if err := n.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	lasts := make([]uint64, 4)
	for i, n := range c.nodes {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := 0; m < per; m++ {
				seq, err := n.Send([]byte(fmt.Sprintf("o%d-%d", i+1, m)))
				if err != nil {
					t.Errorf("send: %v", err)
					return
				}
				lasts[i] = seq
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i, n := range c.nodes {
		if err := n.WaitFor(ctx, lasts[i], "all"); err != nil {
			t.Fatalf("node %d waitfor: %v", i+1, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for receiver := 1; receiver <= 4; receiver++ {
		for origin := 1; origin <= 4; origin++ {
			if receiver == origin {
				continue
			}
			got := seqs[key{receiver, origin}]
			if len(got) != per {
				t.Fatalf("receiver %d got %d/%d from origin %d", receiver, len(got), per, origin)
			}
			for i, s := range got {
				if s != uint64(i+1) {
					t.Fatalf("receiver %d origin %d: FIFO violated at %d (%d)", receiver, origin, i, s)
				}
			}
		}
	}
}

// TestRegisterPredicateValidation covers reserved keys and bad sources at
// the node level.
func TestRegisterPredicateValidation(t *testing.T) {
	c := startCluster(t, flatTopology(2), emunet.NewMatrix().Scaled(1).Scaled(1))
	n := c.nodes[0]
	if err := n.RegisterPredicate(ReclaimPredicateKey, "MIN($1)"); err == nil {
		t.Fatal("reserved key accepted")
	}
	if err := n.ChangePredicate(ReclaimPredicateKey, "MIN($1)"); err == nil {
		t.Fatal("reserved key change accepted")
	}
	if err := n.RemovePredicate(ReclaimPredicateKey); err == nil {
		t.Fatal("reserved key removal accepted")
	}
	if err := n.RegisterPredicate("bad", "MIN($99)"); err == nil {
		t.Fatal("unresolvable predicate accepted")
	}
	if err := n.RegisterPredicate("ok", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, v := range n.Snapshot().Predicates {
		keys = append(keys, v.Key)
	}
	if want := []string{ReclaimPredicateKey, "ok"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("snapshot lists predicates %q, want %q", keys, want)
	}
}

func TestReportStabilityValidation(t *testing.T) {
	c := startCluster(t, flatTopology(2), nil)
	n := c.nodes[0]
	if err := n.ReportStability(1, "nonexistent", 5); err == nil {
		t.Fatal("unknown type accepted")
	}
	if err := n.ReportStability(99, "received", 5); err == nil {
		t.Fatal("bad origin accepted")
	}
	if err := n.RegisterStabilityType("bad name!"); err == nil {
		t.Fatal("malformed type name accepted")
	}
	if err := n.RegisterStabilityType("audited"); err != nil {
		t.Fatal(err)
	}
	if err := n.ReportStability(2, "audited", 5); err != nil {
		t.Fatal(err)
	}
	v, err := n.EvalFor(2, "MAX($1.audited)")
	if err != nil || v != 5 {
		t.Fatalf("node 1's audited cell for origin 2 = %d, %v", v, err)
	}
}

func TestOpenValidation(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	if _, err := Open(Config{Network: net}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := Open(Config{Topology: flatTopology(2)}); err == nil {
		t.Fatal("nil network accepted")
	}
	bad := flatTopology(2)
	bad.Self = 5
	if _, err := Open(Config{Topology: bad, Network: net}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestEvalAdHocPredicate(t *testing.T) {
	c := startCluster(t, flatTopology(2), nil)
	sender := c.nodes[0]
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	seq, err := sender.Send([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, seq, "all"); err != nil {
		t.Fatal(err)
	}
	got, err := sender.EvalFor(sender.Self(), "MAX($ALLWNODES)")
	if err != nil || got != seq {
		t.Fatalf("Eval = %d, %v; want %d", got, err, seq)
	}
	if _, err := sender.EvalFor(sender.Self(), "MIN($99)"); err == nil {
		t.Fatal("bad ad-hoc predicate accepted")
	}
}
