// Failover example: the paper's fault-tolerance story (§III-E) end to end.
//
//  1. A secondary data center crashes; the sender's heartbeat detector
//     fires, and the application drops the dead node from its predicates
//     with change_predicate — stalled writers resume immediately.
//
//  2. The primary itself "crashes" and restarts from a Checkpoint,
//     resuming sequence numbering exactly where it stopped; peers accept
//     the new incarnation and the stream continues with no gaps.
//
//     go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"stabilizer"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	topo := &stabilizer.Topology{
		Self: 1,
		Nodes: []stabilizer.TopologyNode{
			{Name: "Primary", AZ: "az1", Region: "west"},
			{Name: "MirrorA", AZ: "az2", Region: "west"},
			{Name: "MirrorB", AZ: "az3", Region: "east"},
			{Name: "MirrorC", AZ: "az4", Region: "east"},
		},
	}
	network := stabilizer.NewMemNetwork(nil)
	defer network.Close()

	open := func(i int) (*stabilizer.Node, error) {
		return stabilizer.Open(stabilizer.Config{
			Topology:       topo.WithSelf(i),
			Network:        network,
			HeartbeatEvery: 20 * time.Millisecond,
		})
	}
	nodes := make([]*stabilizer.Node, 4)
	for i := 1; i <= 4; i++ {
		n, err := open(i)
		if err != nil {
			return err
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
	primary := nodes[0]

	// Durability policy: every remote mirror must hold each update.
	if err := primary.RegisterPredicate("durable", stabilizer.AllWNodes()); err != nil {
		return err
	}

	// §III-E recovery policy: when a mirror dies, rebuild any predicate
	// that still watches it.
	primary.OnPeer(func(peer int, up bool) {
		if up {
			return
		}
		name, _ := topo.NodeAt(peer)
		fmt.Printf("!! detected failure of %s ($%d); reconfiguring predicates\n", name.Name, peer)
		for _, v := range primary.Snapshot().Predicates {
			for _, d := range v.DependsOn {
				if d == peer {
					// The reserved reclaim predicate refuses the change.
					_ = primary.ChangePredicate(v.Key, stabilizer.ExcludeNodes([]int{peer}))
					break
				}
			}
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	write := func(label string) error {
		seq, err := primary.Send([]byte(label))
		if err != nil {
			return err
		}
		start := time.Now()
		if err := primary.WaitFor(ctx, seq, "durable"); err != nil {
			return err
		}
		fmt.Printf("write %-22q seq=%-3d durable in %v\n",
			label, seq, time.Since(start).Round(time.Millisecond))
		return nil
	}

	fmt.Println("— healthy cluster —")
	for i := 1; i <= 3; i++ {
		if err := write(fmt.Sprintf("update-%d", i)); err != nil {
			return err
		}
	}

	fmt.Println("\n— MirrorC crashes —")
	_ = nodes[3].Close()
	nodes[3] = nil
	// This write stalls until the failure detector fires and the
	// recovery policy drops MirrorC from the durability predicate.
	if err := write("written-during-outage"); err != nil {
		return err
	}
	fmt.Printf("predicate is now: %s\n", mustSource(primary, "durable"))

	fmt.Println("\n— primary crashes and restarts from checkpoint —")
	ckpt := primary.Checkpoint()
	_ = primary.Close()
	restarted, err := stabilizer.Open(stabilizer.Config{
		Topology:       topo.WithSelf(1),
		Network:        network,
		HeartbeatEvery: 20 * time.Millisecond,
		Checkpoint:     ckpt,
	})
	if err != nil {
		return err
	}
	nodes[0] = restarted
	primary = restarted
	fmt.Printf("restarted: next sequence = %d (no gap, no reuse)\n", primary.NextSeq())

	if err := primary.RegisterPredicate("durable", stabilizer.ExcludeNodes([]int{4})); err != nil {
		return err
	}
	for i := 1; i <= 2; i++ {
		if err := write(fmt.Sprintf("post-restart-%d", i)); err != nil {
			return err
		}
	}
	fmt.Println("\nall writes durable across both failures")
	return nil
}

func mustSource(n *stabilizer.Node, key string) string {
	v, err := n.Explain(key)
	if err != nil {
		return "<" + err.Error() + ">"
	}
	return v.Source
}
