package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/metrics"
)

// cluster spins up one Node per topology entry on a shared in-memory
// fabric.
type cluster struct {
	nodes []*Node
	net   *emunet.MemNetwork
	// metrics is the registry the nodes share, when the helper passed one.
	metrics *metrics.Registry
}

func startCluster(t *testing.T, topo *config.Topology, matrix *emunet.Matrix) *cluster {
	t.Helper()
	c := &cluster{net: emunet.NewMemNetwork(matrix)}
	for i := 1; i <= topo.N(); i++ {
		n, err := Open(Config{
			Topology:       topo.WithSelf(i),
			Network:        c.net,
			HeartbeatEvery: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			_ = n.Close()
		}
		_ = c.net.Close()
	})
	return c
}

func flatTopology(n int) *config.Topology {
	topo := &config.Topology{Self: 1}
	for i := 1; i <= n; i++ {
		topo.Nodes = append(topo.Nodes, config.Node{
			Name:   fmt.Sprintf("node%d", i),
			AZ:     fmt.Sprintf("az%d", i),
			Region: fmt.Sprintf("region%d", i),
		})
	}
	return topo
}

func TestSendDeliverAndWaitAllNodes(t *testing.T) {
	c := startCluster(t, flatTopology(4), nil)
	sender := c.nodes[0]

	var mu sync.Mutex
	got := make(map[int][]string) // receiver -> payloads in order
	for i, n := range c.nodes[1:] {
		idx := i + 2
		n.OnDeliver(func(m Message) {
			mu.Lock()
			got[idx] = append(got[idx], string(m.Payload))
			mu.Unlock()
		})
	}

	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatalf("register predicate: %v", err)
	}

	var lastSeq uint64
	for i := 0; i < 10; i++ {
		seq, err := sender.Send([]byte(fmt.Sprintf("msg-%d", i)))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		lastSeq = seq
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, lastSeq, "all"); err != nil {
		t.Fatalf("waitfor: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for idx := 2; idx <= 4; idx++ {
		msgs := got[idx]
		if len(msgs) != 10 {
			t.Fatalf("node %d delivered %d messages, want 10", idx, len(msgs))
		}
		for i, m := range msgs {
			if want := fmt.Sprintf("msg-%d", i); m != want {
				t.Fatalf("node %d message %d = %q, want %q (FIFO violated)", idx, i, m, want)
			}
		}
	}
}

func TestWaitForMajorityReleasesBeforeAll(t *testing.T) {
	// Shape one node to be much slower than the rest; a majority
	// predicate must release without waiting for it.
	matrix := emunet.NewMatrix()
	matrix.Default = emunet.Link{OneWayLatency: time.Millisecond}
	for p := 2; p <= 5; p++ {
		matrix.SetSymmetric(1, p, emunet.Link{OneWayLatency: time.Millisecond})
	}
	matrix.SetSymmetric(1, 5, emunet.Link{OneWayLatency: 300 * time.Millisecond})

	c := startCluster(t, flatTopology(5), matrix)
	sender := c.nodes[0]
	if err := sender.RegisterPredicate("maj", "KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)"); err != nil {
		t.Fatalf("register: %v", err)
	}
	seq, err := sender.Send([]byte("payload"))
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, seq, "maj"); err != nil {
		t.Fatalf("waitfor majority: %v", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("majority wait took %v; should not have waited for the 300ms straggler", d)
	}
}

func TestMonitorStabilityFrontierMonotonic(t *testing.T) {
	c := startCluster(t, flatTopology(3), nil)
	sender := c.nodes[0]
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES-$MYWNODE)"); err != nil {
		t.Fatalf("register: %v", err)
	}
	var mu sync.Mutex
	var seen []uint64
	cancel, err := sender.MonitorStabilityFrontier("all", func(seq uint64) {
		mu.Lock()
		seen = append(seen, seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("monitor: %v", err)
	}
	defer cancel()

	var last uint64
	for i := 0; i < 20; i++ {
		last, err = sender.Send([]byte("x"))
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := sender.WaitFor(ctx, last, "all"); err != nil {
		t.Fatalf("waitfor: %v", err)
	}

	// WaitFor can return first: a drain releases waiters before it fires
	// monitors.
	waitUntil(t, 5*time.Second, "the monitor to report the last sequence", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) > 0 && seen[len(seen)-1] >= last
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("monitor values not strictly increasing: %v", seen)
		}
	}
	if seen[len(seen)-1] != last {
		t.Fatalf("final monitor value %d, want %d", seen[len(seen)-1], last)
	}
}

func TestCustomStabilityType(t *testing.T) {
	c := startCluster(t, flatTopology(3), nil)
	sender, receiver := c.nodes[0], c.nodes[1]

	for _, n := range c.nodes {
		if err := n.RegisterStabilityType("verified"); err != nil {
			t.Fatalf("register type: %v", err)
		}
	}
	if err := sender.RegisterPredicate("ver2", "MIN(($ALLWNODES-$MYWNODE).verified)"); err != nil {
		t.Fatalf("register predicate: %v", err)
	}

	// Receivers verify each message as it arrives.
	for i, n := range c.nodes[1:] {
		_ = i
		nn := n
		n.OnDeliver(func(m Message) {
			if err := nn.ReportStability(m.Origin, "verified", m.Seq); err != nil {
				t.Errorf("report verified: %v", err)
			}
		})
	}
	_ = receiver

	seq, err := sender.Send([]byte("check me"))
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, seq, "ver2"); err != nil {
		t.Fatalf("waitfor verified: %v", err)
	}
}

func TestChangePredicateAtRuntime(t *testing.T) {
	matrix := emunet.NewMatrix()
	matrix.SetSymmetric(1, 2, emunet.Link{OneWayLatency: time.Millisecond})
	matrix.SetSymmetric(1, 3, emunet.Link{OneWayLatency: 400 * time.Millisecond})
	matrix.SetSymmetric(2, 3, emunet.Link{OneWayLatency: 400 * time.Millisecond})

	c := startCluster(t, flatTopology(3), matrix)
	sender := c.nodes[0]
	if err := sender.RegisterPredicate("p", "MIN($ALLWNODES-$MYWNODE)"); err != nil {
		t.Fatalf("register: %v", err)
	}
	seq, err := sender.Send([]byte("slow"))
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	// Drop the slow node 3 from the observation list at runtime.
	if err := sender.ChangePredicate("p", "MIN($ALLWNODES-$MYWNODE-$3)"); err != nil {
		t.Fatalf("change: %v", err)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, seq, "p"); err != nil {
		t.Fatalf("waitfor after change: %v", err)
	}
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("wait after reconfiguration took %v; straggler should be excluded", d)
	}
	v, err := sender.Explain("p")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if len(v.DependsOn) != 1 || v.DependsOn[0] != 2 {
		t.Fatalf("depends on %v, want [2]", v.DependsOn)
	}
}

func TestWaitForContextCancel(t *testing.T) {
	c := startCluster(t, flatTopology(2), emunet.NewMatrix())
	sender := c.nodes[0]
	if err := sender.RegisterPredicate("never", "MIN($ALLWNODES)"); err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	// Wait for a sequence far beyond anything sent.
	err := sender.WaitFor(ctx, 999999, "never")
	if err == nil {
		t.Fatal("waitfor should fail when the context expires")
	}
}

func TestCheckpointRestartResumesSequence(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	topo := flatTopology(3)

	nodes := make([]*Node, 0, 3)
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
		t.Fatalf("register: %v", err)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		var err error
		last, err = sender.Send([]byte("pre-crash"))
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, last, "all"); err != nil {
		t.Fatalf("waitfor: %v", err)
	}

	ckpt := sender.Checkpoint()
	if err := sender.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	restarted, err := Open(Config{
		Topology:   topo.WithSelf(1),
		Network:    net,
		Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	nodes[0] = restarted

	seq, err := restarted.Send([]byte("post-crash"))
	if err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if seq != last+1 {
		t.Fatalf("restarted sequence = %d, want %d", seq, last+1)
	}
	if err := restarted.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatalf("register after restart: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := restarted.WaitFor(ctx2, seq, "all"); err != nil {
		t.Fatalf("waitfor after restart: %v", err)
	}
}

// TestPeerDownDetection: node 1's OnPeer hook hears a cut-off peer go down
// and, after the heal, come back up — once each, in that order.
func TestPeerDownDetection(t *testing.T) {
	inj := faultinject.New(nil)
	net := emunet.NewMemNetwork(nil)
	net.SetConnHook(inj.Hook())
	cl, err := OpenCluster(Config{
		Topology:       flatTopology(3),
		Network:        net,
		HeartbeatEvery: 12500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cl.Close()
		inj.Close()
		_ = net.Close()
	}()
	n1 := cl.Node(1)

	type event struct {
		peer int
		up   bool
	}
	var mu sync.Mutex
	var events []event
	n1.OnPeer(func(p int, up bool) {
		mu.Lock()
		events = append(events, event{p, up})
		mu.Unlock()
	})
	// of3 lists what node 1 has heard about node 3 since the mesh came up.
	mark := 0
	of3 := func() []event {
		mu.Lock()
		defer mu.Unlock()
		var out []event
		for _, e := range events[mark:] {
			if e.peer == 3 {
				out = append(out, e)
			}
		}
		return out
	}

	// Once every peer has acknowledged a message, node 1 has heard from each
	// of them: any boot-time up has fired, and what follows is the fault's.
	if err := n1.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	seq, err := n1.Send([]byte("warm"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n1.WaitFor(ctx, seq, "all"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	mark = len(events)
	mu.Unlock()

	inj.Partition([]int{3}, 3)
	waitUntil(t, 3*time.Second, "node 3 reported down", func() bool { return len(of3()) >= 1 })
	inj.HealPartition([]int{3}, 3)
	waitUntil(t, 3*time.Second, "node 3 reported up again", func() bool { return len(of3()) >= 2 })
	// A repeat would land within a few failure-detector ticks.
	time.Sleep(300 * time.Millisecond)
	if got, want := of3(), []event{{3, false}, {3, true}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("OnPeer heard %v about node 3 across the cut and heal, want %v", got, want)
	}
}

func TestBufferReclaimedWhenReceivedEverywhere(t *testing.T) {
	c := startCluster(t, flatTopology(3), nil)
	sender := c.nodes[0]
	if err := sender.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatalf("register: %v", err)
	}
	payload := make([]byte, 4096)
	var last uint64
	for i := 0; i < 50; i++ {
		var err error
		last, err = sender.Send(payload)
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, last, "all"); err != nil {
		t.Fatalf("waitfor: %v", err)
	}
	// Reclamation runs on the same recompute path that released the
	// waiter, so by now the buffer must be (nearly) empty.
	deadline := time.Now().Add(2 * time.Second)
	for sender.Snapshot().Log.Bytes > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if b := sender.Snapshot().Log.Bytes; b != 0 {
		t.Fatalf("send buffer still holds %d bytes after full stability", b)
	}
}
