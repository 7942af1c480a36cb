package core

import (
	"context"
	"testing"
	"time"

	"stabilizer/internal/emunet"
)

// TestAllNodesReachSameConclusions verifies the paper's §III-A claim: each
// WAN node detects stability independently and asynchronously, but all
// reach the same conclusions eventually. Every node evaluates the same
// predicate about node 1's stream; once traffic quiesces, all evaluations
// agree.
func TestAllNodesReachSameConclusions(t *testing.T) {
	c := startCluster(t, flatTopology(4), nil)
	sender := c.nodes[0]
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 30; i++ {
		var err error
		last, err = sender.Send([]byte("converge"))
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, last, "all"); err != nil {
		t.Fatal(err)
	}

	// The sender knows everything is stable; the other nodes learn it with
	// each link's next write (a heartbeat here), within a short settle
	// window.
	const pred = "MIN($ALLWNODES)"
	deadline := time.Now().Add(5 * time.Second)
	for {
		agree := true
		for _, n := range c.nodes {
			f, err := n.EvalFor(1, pred)
			if err != nil {
				t.Fatal(err)
			}
			if f != last {
				agree = false
			}
		}
		if agree {
			return
		}
		if time.Now().After(deadline) {
			for i, n := range c.nodes {
				f, _ := n.EvalFor(1, pred)
				t.Logf("node %d evaluates %q about origin 1 as %d (want %d)", i+1, pred, f, last)
			}
			t.Fatal("nodes never converged on the same stability conclusion")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEvalForValidation covers origin-range and compile errors.
func TestEvalForValidation(t *testing.T) {
	c := startCluster(t, flatTopology(2), nil)
	if _, err := c.nodes[0].EvalFor(0, "MIN($1)"); err == nil {
		t.Fatal("origin 0 accepted")
	}
	if _, err := c.nodes[0].EvalFor(3, "MIN($1)"); err == nil {
		t.Fatal("origin out of range accepted")
	}
	if _, err := c.nodes[0].EvalFor(2, "MIN($9)"); err == nil {
		t.Fatal("bad predicate accepted")
	}
	if _, err := c.nodes[0].EvalFor(2, "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
}

// TestEvalForTrailsByAtMostOneHeartbeat pins what a bystander may believe
// about a foreign origin's stream. Reports go to the origin at once and to
// everyone else with the link's next write, a heartbeat at the latest, so
// node 3's evaluation about origin 1 (a) is never ahead of the truth — what
// each node really holds, read after the claim, since the truth only grows —
// and (b) equals the origin's own within two heartbeat periods of the origin
// seeing everything stable.
func TestEvalForTrailsByAtMostOneHeartbeat(t *testing.T) {
	const (
		heartbeat = 250 * time.Millisecond
		pred      = "MIN($ALLWNODES)"
	)
	fabric := emunet.NewMemNetwork(nil)
	topo := flatTopology(4)
	nodes := make([]*Node, topo.N())
	for i := range nodes {
		n, err := Open(Config{Topology: topo.WithSelf(i + 1), Network: fabric, HeartbeatEvery: heartbeat})
		if err != nil {
			t.Fatalf("open node %d: %v", i+1, err)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
		_ = fabric.Close()
	})
	origin, bystander := nodes[0], nodes[2]
	if err := origin.RegisterPredicate("all", pred); err != nil {
		t.Fatal(err)
	}
	sample := func() uint64 {
		t.Helper()
		claim, err := bystander.EvalFor(1, pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes[1:] {
			if truth := n.Snapshot().RecvLast[1]; claim > truth {
				t.Fatalf("node 3 evaluates %q about origin 1 as %d; node %d holds only %d", pred, claim, n.Self(), truth)
			}
		}
		return claim
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var last uint64
	for i := 0; i < 40; i++ {
		var err error
		if last, err = origin.Send([]byte("trail")); err != nil {
			t.Fatal(err)
		}
		sample()
		if i%8 == 7 {
			if err := origin.WaitFor(ctx, last, "all"); err != nil {
				t.Fatal(err)
			}
			sample()
		}
	}
	if err := origin.WaitFor(ctx, last, "all"); err != nil {
		t.Fatal(err)
	}
	quiet := time.Now()
	for sample() != last {
		if time.Since(quiet) > 2*heartbeat {
			t.Fatalf("node 3 still evaluates %q about origin 1 as %d, %v after the origin saw %d stable",
				pred, sample(), time.Since(quiet), last)
		}
		time.Sleep(time.Millisecond)
	}
	if own, err := origin.EvalFor(origin.Self(), pred); err != nil || own != last {
		t.Fatalf("origin's own evaluation = %d, %v; want %d", own, err, last)
	}
}
