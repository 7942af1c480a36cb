package paxos

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/testbed"
)

func startReplicas(t *testing.T, n int) (*MemHub, []*Replica) {
	t.Helper()
	hub := NewMemHub(n)
	replicas := make([]*Replica, n)
	for i := 1; i <= n; i++ {
		replicas[i-1] = NewReplica(hub.Bus(i))
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			r.Close()
		}
		hub.Close()
	})
	return hub, replicas
}

func campaign(t *testing.T, r *Replica) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Campaign(ctx); err != nil {
		t.Fatalf("campaign: %v", err)
	}
}

func TestProposeCommitsOnAll(t *testing.T) {
	hub, rs := startReplicas(t, 5)
	campaign(t, rs[0])

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var slots []uint64
	for i := 0; i < 10; i++ {
		slot, err := rs[0].Propose(ctx, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		slots = append(slots, slot)
	}
	hub.Wait()
	for i, slot := range slots {
		want := []byte(fmt.Sprintf("v%d", i))
		for ri, r := range rs {
			v, ok := r.Value(slot)
			if !ok && ri != 0 {
				// Followers commit when the next Accept piggybacks the
				// watermark; the final slots may still be uncommitted
				// remotely. Only the leader must have all.
				continue
			}
			if ok && !bytes.Equal(v, want) {
				t.Fatalf("replica %d slot %d = %q, want %q", ri+1, slot, v, want)
			}
		}
	}
	if got := rs[0].CommittedThrough(); got != slots[len(slots)-1] {
		t.Fatalf("leader committed through %d, want %d", got, slots[len(slots)-1])
	}
}

func TestApplyInOrder(t *testing.T) {
	hub, rs := startReplicas(t, 3)
	var mu sync.Mutex
	applied := make(map[int][]uint64)
	for i, r := range rs {
		idx := i
		r.OnApply(func(slot uint64, value []byte) {
			mu.Lock()
			applied[idx] = append(applied[idx], slot)
			mu.Unlock()
		})
	}
	campaign(t, rs[0])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := rs[0].Propose(ctx, []byte{byte(i)}); err != nil {
			t.Fatalf("propose: %v", err)
		}
	}
	hub.Wait()
	mu.Lock()
	defer mu.Unlock()
	for idx, slots := range applied {
		for i := 1; i < len(slots); i++ {
			if slots[i] != slots[i-1]+1 {
				t.Fatalf("replica %d applied out of order: %v", idx+1, slots)
			}
		}
	}
	if len(applied[0]) != 20 {
		t.Fatalf("leader applied %d entries, want 20", len(applied[0]))
	}
}

func TestProposeWithoutLeadershipFails(t *testing.T) {
	_, rs := startReplicas(t, 3)
	if _, _, err := rs[1].ProposeAsync([]byte("x")); err != ErrNotLeader {
		t.Fatalf("ProposeAsync on follower: err = %v, want ErrNotLeader", err)
	}
}

func TestPreemptionStepsDownOldLeader(t *testing.T) {
	hub, rs := startReplicas(t, 3)
	campaign(t, rs[0])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := rs[0].Propose(ctx, []byte("old")); err != nil {
		t.Fatalf("propose: %v", err)
	}
	// A second node campaigns with a higher ballot.
	campaign(t, rs[1])
	hub.Wait()
	if rs[0].IsLeader() {
		t.Fatal("old leader did not step down after preemption")
	}
	if !rs[1].IsLeader() {
		t.Fatal("new leader did not take over")
	}
	// The committed value must survive the leadership change.
	if _, err := rs[1].Propose(ctx, []byte("new")); err != nil {
		t.Fatalf("propose after takeover: %v", err)
	}
	hub.Wait()
	v, ok := rs[1].Value(1)
	if !ok || !bytes.Equal(v, []byte("old")) {
		t.Fatalf("slot 1 after takeover = %q (ok=%v), want \"old\"", v, ok)
	}
}

func TestNewLeaderAdoptsUncommittedValue(t *testing.T) {
	// Partition-style scenario: leader 1 gets an accept to only one other
	// replica (no majority beyond itself + r2 = majority in n=5? use n=5,
	// accept reaches only r2: 2 < 3 so uncommitted), then a new leader
	// campaigns including r2 and must adopt the value.
	hub := NewMemHub(5)
	var dropMu sync.Mutex
	dropAccepts := false
	hub.Drop = func(from, to int, payload []byte) bool {
		dropMu.Lock()
		defer dropMu.Unlock()
		if !dropAccepts {
			return false
		}
		// While partitioned, node 1 can only reach node 2, and node 5 is
		// cut off from node 3 — so node 3's campaign quorum must be
		// {3, 2, 4} (or {3, 2, 1}), which always includes the orphan
		// holder. A quorum without node 2 could legally lose the value.
		// Any campaign quorum for node 3 is then 3 + two of {1,2,4};
		// every such pair includes node 1 or node 2, both of which hold
		// the orphan (node 1 self-accepted it as the old leader).
		return (from == 1 && to != 2) || (from == 5 && to == 3) || (from == 3 && to == 5)
	}
	rs := make([]*Replica, 5)
	for i := 1; i <= 5; i++ {
		rs[i-1] = NewReplica(hub.Bus(i))
	}
	defer func() {
		for _, r := range rs {
			r.Close()
		}
		hub.Close()
	}()

	campaign(t, rs[0])
	hub.Wait()

	dropMu.Lock()
	dropAccepts = true
	dropMu.Unlock()

	_, done, err := rs[0].ProposeAsync([]byte("orphan"))
	if err != nil {
		t.Fatalf("propose async: %v", err)
	}
	hub.Wait() // accept reached only node 2

	// Node 3 campaigns; its majority {3,2,4} includes node 2, which holds
	// the orphan value, so the new leader must adopt and commit it.
	campaign(t, rs[2])
	hub.Wait()

	v, ok := rs[2].Value(1)
	if !ok || !bytes.Equal(v, []byte("orphan")) {
		t.Fatalf("new leader slot 1 = %q (ok=%v), want adopted \"orphan\"", v, ok)
	}
	// The old proposer's waiter must have been released with an error.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("orphan propose reported success despite partition")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("orphan propose waiter never released")
	}
}

func TestCampaignRaceSingleWinner(t *testing.T) {
	hub, rs := startReplicas(t, 5)
	// All five campaign concurrently; afterwards exactly the
	// highest-surviving ballot's owner is leader and proposals from that
	// node commit.
	var wg sync.WaitGroup
	for _, r := range rs {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			_ = r.Campaign(ctx) // losers may error; that's fine
		}(r)
	}
	wg.Wait()
	hub.Wait()

	leaders := 0
	var leader *Replica
	for _, r := range rs {
		if r.IsLeader() {
			leaders++
			leader = r
		}
	}
	if leaders > 1 {
		t.Fatalf("%d simultaneous leaders", leaders)
	}
	if leaders == 0 {
		// All campaigns preempted one another; rerun one deterministic
		// campaign to converge.
		leader = rs[4]
		campaign(t, leader)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := leader.Propose(ctx, []byte("final")); err != nil {
		t.Fatalf("winner propose: %v", err)
	}
}

func TestPipelinedProposals(t *testing.T) {
	hub, rs := startReplicas(t, 3)
	campaign(t, rs[0])
	const n = 200
	dones := make([]<-chan error, 0, n)
	for i := 0; i < n; i++ {
		_, done, err := rs[0].ProposeAsync([]byte{byte(i)})
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		dones = append(dones, done)
	}
	for i, d := range dones {
		select {
		case err := <-d:
			if err != nil {
				t.Fatalf("pipelined proposal %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pipelined proposal %d timed out", i)
		}
	}
	hub.Wait()
	if got := rs[0].CommittedThrough(); got != n {
		t.Fatalf("committed through %d, want %d", got, n)
	}
}

// TestCoreBusReplicaKeepsEveryPayload: over a Stabilizer node an Accept is a
// delivered payload, lent from the read chunk only until the upcall returns,
// so an acceptor keeps a copy of its value (decode makes it). 200 distinct
// 1 KiB values, more than three read chunks per connection, are committed,
// and every one is read back on a remote replica after the chunk has been
// reused under the early ones.
func TestCoreBusReplicaKeepsEveryPayload(t *testing.T) {
	bed, err := testbed.Boot(core.Config{Topology: testbed.Flat(3)}, testbed.Fabric{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bed.Close() })
	var rs []*Replica
	for _, node := range bed.Nodes() {
		rs = append(rs, NewReplica(NewCoreBus(node)))
	}
	t.Cleanup(func() {
		for _, r := range rs {
			r.Close()
		}
	})
	campaign(t, rs[0])
	const n = 200
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5, byte(i * 7)}, 256) }
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var slots []uint64
	for i := 0; i <= n; i++ { // the last Accept carries the commit of the n before it
		slot, err := rs[0].Propose(ctx, value(i))
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		slots = append(slots, slot)
	}
	remote := rs[2]
	if !testbed.Await(10*time.Second, func() bool { return remote.CommittedThrough() >= slots[n-1] }) {
		t.Fatalf("remote replica committed through %d, want %d", remote.CommittedThrough(), slots[n-1])
	}
	for i, slot := range slots[:n] {
		if v, ok := remote.Value(slot); !ok || !bytes.Equal(v, value(i)) {
			t.Fatalf("value %d on the remote replica changed after its upcall returned", i)
		}
	}
}
