package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/emunet"
	"stabilizer/internal/frontier"
	"stabilizer/internal/metrics"
)

// settledGoroutines returns the goroutine count once it has held still for
// 20ms, so goroutines of earlier tests still on their way out are not
// counted against this one.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	last := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == last {
			return cur
		}
		last = cur
	}
	t.Fatalf("goroutine count never settled (last %d)", last)
	return 0
}

// TestNodeTickRunsTheStallClock cuts a peer off. The node's tick reads every
// predicate's stall clock each HeartbeatEvery, so the first Explain after the
// cut already sees the time the frontier has sat still, to within a tick.
func TestNodeTickRunsTheStallClock(t *testing.T) {
	const heartbeat = 12500 * time.Microsecond // openCuttableCluster's
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
	if _, err := sender.Send([]byte("cut")); err != nil {
		t.Fatal(err)
	}
	const cut = 500 * time.Millisecond
	time.Sleep(cut)
	v, err := sender.Explain("all")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("first verdict %v after the cut: stuck %v", cut, v.Stuck)
	if v.Stuck < cut-2*heartbeat || len(v.Holding) != 1 || v.Holding[0].Peer != 3 {
		t.Fatalf("first verdict %v after the cut: %+v; want stuck at least %v, held by peer 3",
			cut, v, cut-2*heartbeat)
	}
}

// TestNodeTickAddsNoGoroutines: the stall clocks, every adaptive controller
// and every SLO monitor run on the transport's tick, so a node with two
// running controllers and a monitor runs exactly as many goroutines as one
// with neither.
func TestNodeTickAddsNoGoroutines(t *testing.T) {
	open := func() *Node {
		net := emunet.NewMemNetwork(nil)
		n, err := Open(Config{
			Topology:       flatTopology(1),
			Network:        net,
			HeartbeatEvery: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = n.Close()
			_ = net.Close()
		})
		return n
	}
	base := settledGoroutines(t)
	open()
	plain := settledGoroutines(t) - base

	armed := open()
	ladder := mustLadder(t,
		adaptive.Rung{Name: "all", Source: "MIN($ALLWNODES)"},
		adaptive.Rung{Name: "one", Source: "KTH_MAX(1, $ALLWNODES)"},
	)
	for _, key := range []string{"a", "b"} {
		if _, err := armed.StartAdaptive(key, ladder, adaptive.Config{Target: time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewSLOMonitor(armed, "a", metrics.SLOConfig{Threshold: 1 << 20, Objective: 0.99}); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(t) - base - plain; got != plain {
		t.Fatalf("a node with two controllers and an SLO monitor runs %d goroutines, one with neither %d", got, plain)
	}
}

// TestNodeTickDrivesSLOMonitors attaches a monitor to a node whose transport
// tick never fires and steps the node tick by hand, one virtual second
// apart. Every stabilization of "all" crosses a 2ms link, past the 1ms
// threshold, so a burst burns both windows at once: the monitor fires on the
// first tick after it, resolves on the first tick whose short window holds
// no sample of it, and fires nothing once Close has returned, even with a
// tick racing the Close.
func TestNodeTickDrivesSLOMonitors(t *testing.T) {
	matrix := emunet.NewMatrix()
	matrix.Default = emunet.Link{OneWayLatency: 2 * time.Millisecond}
	net := emunet.NewMemNetwork(matrix)
	cl, err := OpenCluster(Config{Topology: flatTopology(2), Network: net, HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = net.Close()
	})
	n := cl.Node(1)
	if err := n.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	cfg := metrics.SLOConfig{Threshold: 1 << 20, Objective: 0.99, ShortWindow: 4 * time.Second, LongWindow: 16 * time.Second}
	if _, err := NewSLOMonitor(n, "none", cfg); !errors.Is(err, frontier.ErrPredUnknown) {
		t.Fatalf("monitor on an unregistered key: %v, want ErrPredUnknown", err)
	}
	var mu sync.Mutex
	var alerts []metrics.BurnAlert
	cfg.OnAlert = func(a metrics.BurnAlert) {
		mu.Lock()
		alerts = append(alerts, a)
		mu.Unlock()
	}
	fired := func() []metrics.BurnAlert {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(alerts)
	}
	m, err := NewSLOMonitor(n, "all", cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var seq uint64
		for i := 0; i < 10; i++ {
			if seq, err = n.Send([]byte("burn")); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.WaitFor(ctx, seq, "all"); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Unix(10_000, 0)
	at := func(i int) time.Time { return start.Add(time.Duration(i) * time.Second) }
	n.tick(at(0))
	burst()
	for i := 1; i <= 6; i++ {
		n.tick(at(i))
	}
	got := fired()
	if len(got) != 2 || !got[0].Firing || got[0].At != at(1) || got[0].Name != "all" ||
		got[1].Firing || got[1].At != at(5) {
		t.Fatalf("alerts %+v; want firing at tick 1 and resolved at tick 5", got)
	}

	// A burst the next tick would fire on, and a Close racing that tick.
	burst()
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for i := 7; i <= 12; i++ {
			n.tick(at(i))
		}
	}()
	m.Close()
	atClose := len(fired())
	<-ticked
	n.tick(at(13))
	if got := fired(); len(got) != atClose {
		t.Fatalf("alerts after Close returned: %+v", got[atClose:])
	}
	if len(n.tickers.load()) != 0 {
		t.Fatal("the node tick still drives a closed monitor")
	}
}

// TestNodeTickStepsAdaptiveControllers: with no goroutine of its own, a
// controller still steps down when its predicate stalls, on the node's tick.
func TestNodeTickStepsAdaptiveControllers(t *testing.T) {
	cl, inj := openCuttableCluster(t)
	sender := cl.Node(1)
	ladder := mustLadder(t,
		adaptive.Rung{Name: "all", Source: "MIN($ALLWNODES)"},
		adaptive.Rung{Name: "majority", Source: "KTH_MAX(2, $ALLWNODES)"},
	)
	ctrl, err := sender.StartAdaptive("stable", ladder, adaptive.Config{
		Target: time.Second, StallAfter: 50 * time.Millisecond, MinDwell: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Partition([]int{3}, 3)
	if _, err := sender.Send([]byte("cut")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the controller to step down", func() bool { return ctrl.RungIndex() == 1 })
	if h := ctrl.History(); len(h) != 1 || h[0].Reason != "stall" {
		t.Fatalf("transitions %+v, want one step down on the stall", h)
	}
}

// TestWaitForReturnsNilOnlyAtTheFrontier: a waiter parked when its node
// closes and one that calls after Close each get an error, at once.
func TestWaitForReturnsNilOnlyAtTheFrontier(t *testing.T) {
	c := startCluster(t, flatTopology(2), nil)
	n := c.nodes[0]
	if err := n.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	never := n.NextSeq() + 100
	wait := func(key string) <-chan error {
		errc := make(chan error, 1)
		go func() { errc <- n.WaitFor(context.Background(), never, key) }()
		return errc
	}
	result := func(errc <-chan error, what string) error {
		t.Helper()
		select {
		case err := <-errc:
			return err
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: WaitFor still parked after 2s", what)
			return nil
		}
	}
	parked := func() bool { return n.registry.WaiterCount() == 1 }

	closed := wait("all")
	waitUntil(t, 5*time.Second, "a waiter on 'all'", parked)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := result(closed, "waiter at Close"); !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter at Close: %v, want ErrClosed", err)
	}
	if err := result(wait("all"), "WaitFor after Close"); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitFor after Close: %v, want ErrClosed", err)
	}
}
