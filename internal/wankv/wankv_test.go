package wankv

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
	"stabilizer/internal/kvstore"
	"stabilizer/internal/testbed"
	"stabilizer/internal/transport"
)

type testCluster struct {
	stores []*Store
}

func startKVCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	bed, err := testbed.Boot(core.Config{Topology: testbed.Flat(n)}, testbed.Fabric{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bed.Close() })
	c := &testCluster{}
	for _, node := range bed.Nodes() {
		c.stores = append(c.stores, New(node))
	}
	return c
}

func TestPutMirrorsToAllNodes(t *testing.T) {
	c := startKVCluster(t, 3)
	w := c.stores[0]
	if err := w.RegisterPredicate("all", "MIN(($ALLWNODES-$MYWNODE).delivered)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := w.PutWait(ctx, "user/42", []byte("alice"), "all")
	if err != nil {
		t.Fatalf("put wait: %v", err)
	}
	if res.Seq == 0 || res.Version == 0 {
		t.Fatalf("bad result %+v", res)
	}
	// Every mirror has it.
	for i := 2; i <= 3; i++ {
		v, err := c.stores[i-1].GetFrom(1, "user/42")
		if err != nil {
			t.Fatalf("node %d mirror read: %v", i, err)
		}
		if string(v.Value) != "alice" || v.Num != res.Version {
			t.Fatalf("node %d mirror = %q@%d, want alice@%d", i, v.Value, v.Num, res.Version)
		}
	}
	// The owner reads its own pool.
	v, err := w.Get("user/42")
	if err != nil || string(v.Value) != "alice" {
		t.Fatalf("owner read = %q, %v", v.Value, err)
	}
}

func TestVersionHistoryPreservedOnMirrors(t *testing.T) {
	c := startKVCluster(t, 2)
	w := c.stores[0]
	if err := w.RegisterPredicate("all", "MIN(($ALLWNODES-$MYWNODE).delivered)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var vers []uint64
	for i := 0; i < 5; i++ {
		res, err := w.PutWait(ctx, "k", []byte{byte(i)}, "all")
		if err != nil {
			t.Fatal(err)
		}
		vers = append(vers, res.Version)
	}
	before := time.Now()
	res, err := w.PutWait(ctx, "k", []byte{99}, "all")
	if err != nil {
		t.Fatal(err)
	}
	_ = res

	v, err := c.stores[1].GetFrom(1, "k")
	if err != nil || v.Value[0] != 99 {
		t.Fatalf("latest mirror = %v, %v", v, err)
	}
	// get_by_time on the mirror sees the older version.
	old, err := c.stores[1].GetByTimeFrom(1, "k", before)
	if err != nil {
		t.Fatalf("get_by_time: %v", err)
	}
	if old.Value[0] != 4 {
		t.Fatalf("get_by_time value = %d, want 4", old.Value[0])
	}
	for i := 1; i < len(vers); i++ {
		if vers[i] <= vers[i-1] {
			t.Fatalf("versions not increasing: %v", vers)
		}
	}
}

func TestKeysOnMirror(t *testing.T) {
	c := startKVCluster(t, 2)
	w := c.stores[0]
	if err := w.RegisterPredicate("all", "MIN(($ALLWNODES-$MYWNODE).delivered)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var last PutResult
	for _, k := range []string{"a/1", "a/2", "b/1"} {
		var err error
		last, err = w.Put(k, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WaitStable(ctx, last.Seq, "all"); err != nil {
		t.Fatal(err)
	}
	keys, err := c.stores[1].Keys(1, "a/")
	if err != nil || len(keys) != 2 {
		t.Fatalf("mirror keys = %v, %v", keys, err)
	}
}

func TestGetFromBadOrigin(t *testing.T) {
	c := startKVCluster(t, 2)
	if _, err := c.stores[0].GetFrom(0, "k"); !errors.Is(err, ErrBadOrigin) {
		t.Fatalf("origin 0 err = %v", err)
	}
	if _, err := c.stores[0].GetFrom(9, "k"); !errors.Is(err, ErrBadOrigin) {
		t.Fatalf("origin 9 err = %v", err)
	}
}

func TestTwoWritersOwnPools(t *testing.T) {
	c := startKVCluster(t, 2)
	for i, s := range c.stores {
		if err := s.RegisterPredicate("all", "MIN(($ALLWNODES-$MYWNODE).delivered)"); err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The same key in two different pools holds different data —
	// pools are per-owner namespaces.
	if _, err := c.stores[0].PutWait(ctx, "cfg", []byte("one"), "all"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.stores[1].PutWait(ctx, "cfg", []byte("two"), "all"); err != nil {
		t.Fatal(err)
	}
	v1, err := c.stores[1].GetFrom(1, "cfg")
	if err != nil || string(v1.Value) != "one" {
		t.Fatalf("node2 mirror of node1 pool = %q, %v", v1.Value, err)
	}
	v2, err := c.stores[0].GetFrom(2, "cfg")
	if err != nil || string(v2.Value) != "two" {
		t.Fatalf("node1 mirror of node2 pool = %q, %v", v2.Value, err)
	}
}

func TestApplyHookFires(t *testing.T) {
	topo := &config.Topology{Self: 1, Nodes: []config.Node{
		{Name: "a", AZ: "z1"}, {Name: "b", AZ: "z2"},
	}}
	network := emunet.NewMemNetwork(nil)
	defer network.Close()
	n1, err := core.Open(core.Config{Topology: topo.WithSelf(1), Network: network})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := core.Open(core.Config{Topology: topo.WithSelf(2), Network: network})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	var mu sync.Mutex
	var hooks []string
	w1 := New(n1)
	New(n2, WithApplyHook(func(origin int, key string, ver uint64) {
		mu.Lock()
		hooks = append(hooks, fmt.Sprintf("%d:%s:%d", origin, key, ver))
		mu.Unlock()
	}))

	if err := w1.RegisterPredicate("all", "MIN(($ALLWNODES-$MYWNODE).delivered)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := w1.PutWait(ctx, "x", []byte("v"), "all"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hooks) != 1 || hooks[0] != "1:x:1" {
		t.Fatalf("hooks = %v", hooks)
	}
}

// TestMirrorKeepsEveryPayload: a delivered payload is lent from the read chunk
// only until the upcall returns, so a mirror keeps a copy (kvstore.Apply makes
// it). 200 distinct 1 KiB values, more than three read chunks per connection,
// are written, and every one is read back on a remote mirror after the chunk
// has been reused under the early ones.
func TestMirrorKeepsEveryPayload(t *testing.T) {
	c := startKVCluster(t, 3)
	const n = 200
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5, byte(i * 7)}, 256) }
	var last uint64
	for i := 0; i < n; i++ {
		res, err := c.stores[0].Put(fmt.Sprintf("k/%d", i), value(i))
		if err != nil {
			t.Fatal(err)
		}
		last = res.Seq
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.stores[2].WaitApplied(ctx, 1, last); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := c.stores[2].GetFrom(1, fmt.Sprintf("k/%d", i))
		if err != nil || !bytes.Equal(v.Value, value(i)) {
			t.Fatalf("value %d on the remote mirror changed after its upcall returned (err %v)", i, err)
		}
	}
}

func TestWithLocalStoreUsesProvided(t *testing.T) {
	topo := &config.Topology{Self: 1, Nodes: []config.Node{{Name: "solo", AZ: "z"}}}
	network := emunet.NewMemNetwork(nil)
	defer network.Close()
	node, err := core.Open(core.Config{Topology: topo, Network: network})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	local := kvstore.New()
	_, _ = local.Put("preexisting", []byte("yes"))
	w := New(node, WithLocalStore(local))
	v, err := w.Get("preexisting")
	if err != nil || string(v.Value) != "yes" {
		t.Fatalf("preexisting = %q, %v", v.Value, err)
	}
}

func TestUpdateCodecRoundTrip(t *testing.T) {
	ts := time.Unix(42, 137)
	enc := encodeUpdate("key/name", []byte("value bytes"), 7, ts)
	key, val, ver, gotTS, err := decodeUpdate(enc)
	if err != nil {
		t.Fatal(err)
	}
	if key != "key/name" || !bytes.Equal(val, []byte("value bytes")) || ver != 7 || !gotTS.Equal(ts) {
		t.Fatalf("decoded %q %q %d %v", key, val, ver, gotTS)
	}
	// Foreign payloads are rejected, not mis-applied.
	if _, _, _, _, err := decodeUpdate([]byte("garbage-not-an-update")); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("garbage err = %v", err)
	}
	if _, _, _, _, err := decodeUpdate(nil); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("nil err = %v", err)
	}
}

func TestGetStabilityFrontierAdvances(t *testing.T) {
	c := startKVCluster(t, 2)
	w := c.stores[0]
	if err := w.RegisterPredicate("p", "MIN($ALLWNODES-$MYWNODE)"); err != nil {
		t.Fatal(err)
	}
	res, err := w.Put("k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.WaitStable(ctx, res.Seq, "p"); err != nil {
		t.Fatal(err)
	}
	f, err := w.GetStabilityFrontier("p")
	if err != nil || f < res.Seq {
		t.Fatalf("frontier = %d, %v; want ≥ %d", f, err, res.Seq)
	}
	// change_predicate is plumbed through.
	if err := w.ChangePredicate("p", "MAX($ALLWNODES-$MYWNODE)"); err != nil {
		t.Fatal(err)
	}
}

// TestPutCtxShedsAtCapButCommitsLocally: a put whose context will not wait is
// refused at a full send log with an error that is both ErrBackpressure and
// the context's — and, as PutCtx documents, the version is in the local pool
// anyway: only replication was refused.
func TestPutCtxShedsAtCapButCommitsLocally(t *testing.T) {
	topo := &config.Topology{Self: 1, Nodes: []config.Node{{Name: "a", AZ: "az1"}, {Name: "b", AZ: "az2"}}}
	network := emunet.NewMemNetwork(nil)
	defer network.Close()
	node, err := core.Open(core.Config{
		Topology: topo, Network: network,
		Flow:               transport.FlowConfig{MaxBytes: 1 << 10},
		DisableAutoReclaim: true, // nothing ever truncates: the cap must trip
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	w := New(node)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	value := bytes.Repeat([]byte("v"), 200)
	for i := 0; ; i++ {
		res, err := w.PutCtx(ctx, "k", value)
		if err == nil {
			if i > 16 {
				t.Fatal("a 1 KiB send log took 16 200-byte puts")
			}
			continue
		}
		if !errors.Is(err, transport.ErrBackpressure) || !errors.Is(err, context.Canceled) {
			t.Fatalf("put %d: err=%v, want ErrBackpressure wrapping context.Canceled", i, err)
		}
		if res != (PutResult{}) {
			t.Fatalf("refused put returned %+v", res)
		}
		v, err := w.Get("k")
		if err != nil || v.Num != uint64(i+1) {
			t.Fatalf("local pool after the refused put %d: version %d, %v", i, v.Num, err)
		}
		return
	}
}
