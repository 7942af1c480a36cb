// Adaptive example: closed-loop consistency on the user-defined ladder.
//
// The paper's predicates are static policy: the application says what
// "stable" means and waits. This example runs the SLO-driven controller on
// top — a ladder of predicates from strongest to weakest, and a target for
// how fast appends should stabilize. While the cluster is healthy, writers
// get the strongest rung (every mirror holds each update). When a mirror
// dies and stability stalls, the controller steps the ladder down on its
// own — writers resume under the weaker guarantee instead of blocking
// forever — and after the mirror comes back and the SLO has been healthy
// for the cooldown, it climbs back up rung by rung.
//
//	go run ./examples/adaptive
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
		fmt.Fprintln(os.Stderr, "adaptive:", err)
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

	// The ladder, strongest rung first: every mirror -> a majority of
	// mirrors -> any one mirror. The controller may only walk it one rung
	// at a time; demo-sized windows keep the run short.
	ctrl, err := primary.StartAdaptive("stable", stabilizer.LadderWNodes(), stabilizer.AdaptiveConfig{
		Target:      50 * time.Millisecond,
		Objective:   0.9,
		ShortWindow: 400 * time.Millisecond,
		LongWindow:  1200 * time.Millisecond,
		Burn:        2,
		MinDwell:    150 * time.Millisecond,
		Cooldown:    time.Second,
		StallAfter:  300 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	cancel := ctrl.OnTransition(func(tr stabilizer.AdaptiveTransition) {
		fmt.Printf("  >> controller: %-4s %s -> %s (%s)\n",
			tr.Direction, tr.FromRung.Name, tr.ToRung.Name, tr.Reason)
	})
	defer cancel()

	ctx, cancelCtx := context.WithTimeout(context.Background(), time.Minute)
	defer cancelCtx()
	write := func(label string) error {
		seq, err := primary.Send([]byte(label))
		if err != nil {
			return err
		}
		start := time.Now()
		if err := primary.WaitFor(ctx, seq, "stable"); err != nil {
			return err
		}
		fmt.Printf("write %-22q seq=%-3d stable in %-8v rung=%s\n",
			label, seq, time.Since(start).Round(time.Millisecond),
			ctrl.Rung().Name)
		return nil
	}

	fmt.Println("— healthy cluster: strongest rung —")
	for i := 1; i <= 3; i++ {
		if err := write(fmt.Sprintf("update-%d", i)); err != nil {
			return err
		}
	}

	fmt.Println("\n— MirrorC crashes: stability stalls, controller steps down —")
	_ = nodes[3].Close()
	nodes[3] = nil
	// This write blocks under the "all" rung until the stall detector
	// fires and the controller steps down — no operator, no OnPeer
	// policy, just the SLO loop. In this 4-node topology a majority of
	// W-nodes is 3, which the 3 mirrors only satisfy when all of them
	// ack — so the majority rung stalls too and the controller honestly
	// walks on to "one" before the write releases.
	if err := write("written-during-outage"); err != nil {
		return err
	}
	for i := 1; i <= 2; i++ {
		if err := write(fmt.Sprintf("degraded-%d", i)); err != nil {
			return err
		}
	}

	fmt.Println("\n— MirrorC restarts: backlog drains, controller climbs back —")
	restarted, err := open(4)
	if err != nil {
		return err
	}
	nodes[3] = restarted

	deadline := time.Now().Add(20 * time.Second)
	for ctrl.RungIndex() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("controller did not recover to the strongest rung (stuck on %q)", ctrl.Rung().Name)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := write("post-recovery"); err != nil {
		return err
	}

	fmt.Println("\ntransition history:")
	for _, tr := range ctrl.History() {
		fmt.Printf("  %s %-4s %s -> %s (%s)\n",
			tr.At.Format("15:04:05.000"), tr.Direction, tr.FromRung.Name, tr.ToRung.Name, tr.Reason)
	}
	fmt.Println("\nwrites held to the SLO across the outage; guarantee restored automatically")
	return nil
}
