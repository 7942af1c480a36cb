package quorum

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/testbed"
)

type qcluster struct {
	kvs []*KV
}

func startQuorum(t *testing.T, n int, members []int, nw, nr int) *qcluster {
	t.Helper()
	bed, err := testbed.Boot(core.Config{Topology: testbed.Flat(n)}, testbed.Fabric{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bed.Close() })
	c := &qcluster{}
	for _, node := range bed.Nodes() {
		kv, err := New(Config{Node: node, Members: members, Nw: nw, Nr: nr})
		if err != nil {
			t.Fatalf("quorum node %d: %v", node.Self(), err)
		}
		c.kvs = append(c.kvs, kv)
	}
	return c
}

func TestWriteThenReadSeesValue(t *testing.T) {
	c := startQuorum(t, 3, []int{1, 2, 3}, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ver, err := c.kvs[0].Write(ctx, "k", []byte("v1"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	val, gotVer, err := c.kvs[1].Read(ctx, "k")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(val) != "v1" || gotVer != ver {
		t.Fatalf("read = %q@%d, want v1@%d", val, gotVer, ver)
	}
}

func TestReadIntersectsWriteQuorum(t *testing.T) {
	// 5 members, Nw=3, Nr=3: any read quorum overlaps any write quorum.
	c := startQuorum(t, 5, []int{1, 2, 3, 4, 5}, 3, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("v%d", i)
		if _, err := c.kvs[0].Write(ctx, "counter", []byte(want)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		// Read from a different node each time.
		reader := c.kvs[i%5]
		got, _, err := reader.Read(ctx, "counter")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("read %d = %q, want %q (quorum intersection violated)", i, got, want)
		}
	}
}

func TestNonMemberClientCanWriteAndRead(t *testing.T) {
	// Node 2 is a pure client (not in the member set), like Utah2 in
	// the paper's Fig. 3 setup.
	c := startQuorum(t, 4, []int{1, 3, 4}, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.kvs[1].Write(ctx, "k", []byte("from-client")); err != nil {
		t.Fatalf("client write: %v", err)
	}
	got, _, err := c.kvs[1].Read(ctx, "k")
	if err != nil || string(got) != "from-client" {
		t.Fatalf("client read = %q, %v", got, err)
	}
	// The client stores no replica itself.
	if _, ok := c.kvs[1].Version("k"); ok {
		t.Fatal("non-member stored a replica")
	}
	// Members do.
	if _, ok := c.kvs[0].Version("k"); !ok {
		t.Fatal("member missing replica after quorum write")
	}
}

// TestReplicaKeepsEveryPayload: a delivered payload is lent from the read
// chunk only until the upcall returns, so a replica keeps a copy (storeEntry
// makes it). 200 distinct 1 KiB values, more than three read chunks per
// connection, are written, and every one is read back from a remote replica's
// store after the chunk has been reused under the early ones.
func TestReplicaKeepsEveryPayload(t *testing.T) {
	c := startQuorum(t, 3, []int{1, 2, 3}, 2, 2)
	const n = 200
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5, byte(i * 7)}, 256) }
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if _, err := c.kvs[0].Write(ctx, fmt.Sprintf("k/%d", i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	remote := c.kvs[2]
	if !testbed.Await(10*time.Second, func() bool { _, ok := remote.Version(fmt.Sprintf("k/%d", n-1)); return ok }) {
		t.Fatal("the remote replica never applied the last write")
	}
	for i := 0; i < n; i++ {
		if r := remote.localRead(fmt.Sprintf("k/%d", i)); !r.found || !bytes.Equal(r.value, value(i)) {
			t.Fatalf("value %d on the remote replica changed after its upcall returned", i)
		}
	}
}

func TestReadMissingKey(t *testing.T) {
	c := startQuorum(t, 3, []int{1, 2, 3}, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := c.kvs[0].Read(ctx, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestReadTimesOutWithoutQuorum(t *testing.T) {
	// Only node 1 exists: the remaining members never respond.
	topo := &config.Topology{Self: 1, Nodes: []config.Node{
		{Name: "a", AZ: "z1"}, {Name: "b", AZ: "z2"}, {Name: "c", AZ: "z3"},
	}}
	network := emunet.NewMemNetwork(nil)
	defer network.Close()
	node, err := core.Open(core.Config{Topology: topo, Network: network})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	kv, err := New(Config{Node: node, Members: []int{1, 2, 3}, Nw: 2, Nr: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := kv.Read(ctx, "k"); !errors.Is(err, ErrReadTimeout) {
		t.Fatalf("err = %v, want ErrReadTimeout", err)
	}
}

func TestQuorumConfigValidation(t *testing.T) {
	topo := &config.Topology{Self: 1, Nodes: []config.Node{{Name: "a", AZ: "z"}}}
	network := emunet.NewMemNetwork(nil)
	defer network.Close()
	node, err := core.Open(core.Config{Topology: topo, Network: network})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	bad := []Config{
		{Node: node, Members: nil, Nw: 1, Nr: 1},
		{Node: node, Members: []int{1}, Nw: 0, Nr: 1},
		{Node: node, Members: []int{1, 2, 3}, Nw: 1, Nr: 1}, // Nw+Nr ≤ N
		{Node: nil, Members: []int{1}, Nw: 1, Nr: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	c := startQuorum(t, 3, []int{1, 2, 3}, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Background readers must never see an error other than not-found.
	// (Reads concurrent with a write may legitimately observe either
	// version — the protocol only orders reads against *non-concurrent*
	// writes, §IV-B — so no monotonicity is asserted here.)
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := c.kvs[r].Read(ctx, "hot"); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	var lastVer uint64
	for i := 0; i < 30; i++ {
		ver, err := c.kvs[0].Write(ctx, "hot", []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		lastVer = ver
	}
	close(stop)
	wg.Wait()
	// After all writes completed, a quorum read sees the final value.
	got, ver, err := c.kvs[2].Read(ctx, "hot")
	if err != nil || string(got) != "v29" || ver != lastVer {
		t.Fatalf("final read = %q@%d, %v; want v29@%d", got, ver, err, lastVer)
	}
}
