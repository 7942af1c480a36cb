package core

import (
	"context"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/frontier"
	"stabilizer/internal/optrace"
)

// holders lists a verdict's holding peers.
func holders(v PredicateState) []int {
	peers := make([]int, len(v.Holding))
	for i, l := range v.Holding {
		peers[i] = l.Peer
	}
	return peers
}

// openCuttableCluster boots three traced nodes on a memory fabric whose links
// the returned injector can cut, with a 12.5ms heartbeat.
func openCuttableCluster(t *testing.T) (*Cluster, *faultinject.Injector) {
	t.Helper()
	net := emunet.NewMemNetwork(nil)
	inj := faultinject.New(net, nil)
	cl, err := OpenCluster(Config{
		Topology:       flatTopology(3),
		Network:        net,
		HeartbeatEvery: 12500 * time.Microsecond,
		Trace:          optrace.Config{SampleEvery: 1, RingSize: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = net.Close()
	})
	return cl, inj
}

// TestExplainNamesTheCutPeer cuts node 3 off in both directions and asks the
// sender why its frontiers stopped. The all-nodes predicate is stuck, held by
// peer 3 alone — down once the failure detector has counted 8 quiet ticks, with
// a recorder tail, which a verdict carries from one tick stuck on; a predicate
// over nodes 1 and 2 holds nothing; and after the heal nothing holds and
// nothing is stuck.
func TestExplainNamesTheCutPeer(t *testing.T) {
	cl, inj := openCuttableCluster(t)
	sender := cl.Node(1)
	for key, src := range map[string]string{"all": "MIN($ALLWNODES)", "pair": "MIN($1, $2)"} {
		if err := sender.RegisterPredicate(key, src); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Warm up, so the recorder holds events with peer 3, then cut it off.
	seq, err := sender.Send([]byte("warm"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.WaitFor(ctx, seq, "all"); err != nil {
		t.Fatal(err)
	}
	inj.Partition([]int{3}, 3)
	if seq, err = sender.Send([]byte("cut")); err != nil {
		t.Fatal(err)
	}

	var v PredicateState
	waitUntil(t, 5*time.Second, "'all' stuck, held by a peer that is down", func() bool {
		v, err = sender.Explain("all")
		return err == nil && v.Stuck > 0 && len(v.Holding) == 1 && !v.Holding[0].Up
	})
	if h := v.Holding[0]; h.Peer != 3 || h.Ack >= seq || len(h.Recent) == 0 {
		t.Fatalf("'all' held by %+v, want peer 3 below seq %d with a recorder tail", h, seq)
	}
	if v.Frontier >= v.Head {
		t.Fatalf("stuck verdict %+v: frontier not below head", v)
	}
	// The same reading a hair short of one tick carries no tail.
	st, err := sender.registry.State("all", v.Head, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		stuck time.Duration
		tail  bool
	}{{sender.tickEvery - 1, false}, {sender.tickEvery, true}} {
		st.Stuck = tc.stuck
		if got := sender.verdict(st, v.Head); len(got.Holding) != 1 || (len(got.Holding[0].Recent) > 0) != tc.tail {
			t.Fatalf("verdict stuck %v: %+v, want a recorder tail %v", tc.stuck, got.Holding, tc.tail)
		}
	}

	if err := sender.WaitFor(ctx, seq, "pair"); err != nil {
		t.Fatal(err)
	}
	if p, err := sender.Explain("pair"); err != nil || p.Stuck != 0 || len(p.Holding) != 0 {
		t.Fatalf("'pair' over nodes 1 and 2: %+v, %v; want nothing holding it", p, err)
	}

	inj.HealPartition([]int{3}, 3)
	if err := sender.WaitFor(ctx, seq, "all"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "'all' to reach its head with nothing stuck", func() bool {
		v, err = sender.Explain("all")
		return err == nil && v.Frontier == v.Head
	})
	if v.Stuck != 0 || len(v.Holding) != 0 {
		t.Fatalf("healed verdict %+v: want nothing stuck or holding", v)
	}
}

// TestVerdictWithADrainPendingIsNotStalled sticks 'all' behind a cut peer,
// then moves that peer's cell in the sender's recorder without noting it, as
// an ACK does between its table write and the drain that follows. No peer
// holds the frontier any more, so the verdict must not read stuck: a stuck
// verdict that names no holder is what chaos invariant 6 rejects.
func TestVerdictWithADrainPendingIsNotStalled(t *testing.T) {
	cl, inj := openCuttableCluster(t)
	sender := cl.Node(1)
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seq, err := sender.Send([]byte("warm"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.WaitFor(ctx, seq, "all"); err != nil {
		t.Fatal(err)
	}
	inj.Partition([]int{3}, 3)
	if seq, err = sender.Send([]byte("cut")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "'all' stuck, held by peer 3", func() bool {
		v, err := sender.Explain("all")
		return err == nil && v.Stuck > 0 && len(holders(v)) == 1 && holders(v)[0] == 3
	})

	sender.selfTable().Update(3, frontier.TypeReceived, seq)
	v, err := sender.Explain("all")
	if err != nil {
		t.Fatal(err)
	}
	if v.Stuck != 0 || len(v.Holding) != 0 {
		t.Fatalf("verdict with a drain pending: stuck=%v frontier=%d head=%d holders=%v; want nothing stuck or holding",
			v.Stuck, v.Frontier, v.Head, holders(v))
	}
}
