package testbed

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
)

func lan() *emunet.Matrix {
	m := emunet.NewMatrix()
	m.Default = emunet.Link{OneWayLatency: time.Millisecond}
	return m
}

// TestBootRefusesFaultsOnTCP: faults are a state of the memory fabric's
// links, which TCP sockets do not carry, so a TCP bed with faults does not
// boot, and one without them does.
func TestBootRefusesFaultsOnTCP(t *testing.T) {
	if bed, err := Boot(core.Config{Topology: Flat(2)}, Fabric{Kind: "tcp", Faults: true}); err == nil {
		_ = bed.Close()
		t.Fatal("a TCP bed booted with faults")
	}
	bed, err := Boot(core.Config{Topology: Flat(2)}, Fabric{Kind: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	_ = bed.Close()
}

// TestReadyWaitsForEveryDirectedLink cuts one direction of one link that does
// not touch node 1. A barrier that watches one node's links (node 1 sends,
// everyone acks: what Fig. 3 used to wait for) is satisfied; Ready must not
// be until the heal.
func TestReadyWaitsForEveryDirectedLink(t *testing.T) {
	bed, err := Boot(core.Config{Topology: Flat(3)}, Fabric{Matrix: lan(), Faults: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bed.Close()
	bed.Inj.CutLink(3, 2)

	ready := make(chan error, 1)
	go func() { ready <- bed.Ready(30 * time.Second) }()

	// Ready's own message from node 1 reaches everyone and is acked: the
	// one-node barrier holds.
	n1 := bed.Node(1)
	if !Await(10*time.Second, func() bool {
		for _, p := range []int{2, 3} {
			if n1.Snapshot().Acks["received"][p-1] < 1 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("node 1's links never came up")
	}
	select {
	case err := <-ready:
		t.Fatalf("Ready returned (%v) with link 3->2 cut", err)
	case <-time.After(200 * time.Millisecond):
	}

	bed.Inj.HealLink(3, 2)
	if err := <-ready; err != nil {
		t.Fatalf("Ready after the heal: %v", err)
	}
}

func TestReadyTimesOutNamingTheLink(t *testing.T) {
	bed, err := Boot(core.Config{Topology: Flat(2)}, Fabric{Matrix: lan(), Faults: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bed.Close()
	bed.Inj.CutLink(1, 2)
	bed.Inj.CutLink(2, 1)
	if err := bed.Ready(100 * time.Millisecond); err == nil {
		t.Fatal("Ready succeeded over a cut link")
	}
}

// A spike on the direction 2→1 delays what node 2 says to node 1 however it
// travels: on node 2's link, or written back on node 1's own connection, the
// way the reports about a lone message return. So node 1's lone Send and its
// wait for node 2's report take at least the spike.
func TestSpikeDelaysTheReportsBack(t *testing.T) {
	const spike = 100 * time.Millisecond
	bed, err := Boot(core.Config{Topology: Flat(2)}, Fabric{Faults: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bed.Close()
	n1 := bed.Node(1)
	if err := n1.RegisterPredicate("two", "MIN($2)"); err != nil {
		t.Fatal(err)
	}
	if err := bed.Ready(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	bed.Inj.Spike(2, 1, spike)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	seq, err := n1.Send([]byte("lone"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.WaitFor(ctx, seq, "two"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < spike {
		t.Fatalf("Send and WaitFor(MIN($2)) took %v under a %v spike on 2->1", d, spike)
	}
}

// TestBootIsSeedPinned boots twice from one seed and once from another and
// compares the fabric's jitter draws, observed as the one-way delay of
// successive writes over a link whose delay is almost all jitter. The bed has
// a single node, so nothing but the test dials.
func TestBootIsSeedPinned(t *testing.T) {
	const (
		jitter = 40 * time.Millisecond
		draws  = 6
		slack  = 8 * time.Millisecond
	)
	m := emunet.NewMatrix()
	m.Default = emunet.Link{OneWayLatency: time.Millisecond, Jitter: jitter}
	delays := func(seed int64) []time.Duration {
		bed, err := Boot(core.Config{Topology: Flat(1)}, Fabric{Matrix: m, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer bed.Close()
		l, err := bed.Net.Listen(3)
		if err != nil {
			t.Fatal(err)
		}
		arrived := make(chan time.Time, 1)
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 1)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
				arrived <- time.Now()
			}
		}()
		conn, err := bed.Net.Dial(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		out := make([]time.Duration, draws)
		for i := range out {
			start := time.Now()
			if _, err := conn.Write([]byte{1}); err != nil {
				t.Fatal(err)
			}
			out[i] = (<-arrived).Sub(start)
		}
		return out
	}
	differ := func(a, b []time.Duration) bool {
		for i := range a {
			if d := a[i] - b[i]; d > slack || d < -slack {
				return true
			}
		}
		return false
	}
	a, b, c := delays(7), delays(7), delays(8)
	if differ(a, b) {
		t.Errorf("seed 7 booted twice drew different jitter: %v vs %v", a, b)
	}
	if !differ(a, c) {
		t.Errorf("seeds 7 and 8 drew the same jitter: %v vs %v", a, c)
	}
	cfg := faultinject.GenConfig{N: 4, Horizon: time.Second}
	if x, y := faultinject.Generate(7, cfg), faultinject.Generate(7, cfg); x.Fingerprint() != y.Fingerprint() {
		t.Errorf("seed 7 generated two schedules: %s vs %s", x.Fingerprint(), y.Fingerprint())
	}
}

// TestStampsReconcileWhenMonitorFiresFirst: the frontier monitor can stamp a
// sequence stable before the sender has recorded when it sent it. A recorder
// that computes the latency at stamping time would read a zero send time.
func TestStampsReconcileWhenMonitorFiresFirst(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var s Stamps
	s.Stable("p", 2, t0.Add(7*time.Millisecond))
	s.Sent(1, 2, t0)
	s.Sent(3, 3, t0.Add(time.Millisecond))
	s.Stable("p", 3, t0.Add(4*time.Millisecond))
	s.Stable("p", 3, t0.Add(time.Hour)) // a repeated frontier stamps nothing
	for seq, want := range map[uint64]time.Duration{1: 7 * time.Millisecond, 2: 7 * time.Millisecond, 3: 3 * time.Millisecond} {
		if got, ok := s.Latency("p", seq); !ok || got != want {
			t.Errorf("latency of seq %d = %v, %v; want %v", seq, got, ok, want)
		}
	}
	if _, ok := s.Latency("q", 1); ok {
		t.Error("latency for a key that never stamped")
	}
	s.Sent(4, 4, t0)
	if got := s.Latencies("p", 1, 4); len(got) != 3 || got.Max() != 7*time.Millisecond || got.Percentile(0.5) != 7*time.Millisecond {
		t.Errorf("Latencies = %v; want the three stamped sequences", got)
	}
}

func TestPacedHoldsRate(t *testing.T) {
	const rate = 4000
	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- Paced(rate*11/10, AtRate(rate), func(int) error { sent.Add(1); return nil })
	}()
	time.Sleep(time.Second)
	if got := sent.Load(); got < rate*95/100 || got > rate*105/100 {
		t.Errorf("%d sends in the first second at %d/s", got, rate)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLoopStopCancelsACallPastItsGrace(t *testing.T) {
	entered := make(chan struct{})
	stuck := Every(time.Millisecond, func(ctx context.Context) bool {
		close(entered)
		<-ctx.Done()
		return true
	})
	<-entered
	if stuck.Stop(20 * time.Millisecond) {
		t.Error("Stop reported a clean stop for a call it had to cancel")
	}
	var calls atomic.Int64
	idle := Every(time.Millisecond, func(context.Context) bool { calls.Add(1); return true })
	if !Await(5*time.Second, func() bool { return calls.Load() >= 3 }) {
		t.Fatal("loop never ran")
	}
	if !idle.Stop(0) {
		t.Error("Stop reported a cancelled call on an idle loop")
	}
	n := calls.Load()
	time.Sleep(5 * time.Millisecond)
	if calls.Load() != n {
		t.Error("loop ran after Stop")
	}
}

// TestCloseLeavesNoGoroutines drives everything a bed starts — nodes, the
// injector's conns, a pump, a restart — and requires Close to take it all
// down.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	bed, err := Boot(core.Config{Topology: Flat(3), DisableAutoReclaim: true}, Fabric{Matrix: lan(), Seed: 3, Faults: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := bed.Ready(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	n1 := bed.Node(1)
	pump := Every(time.Millisecond, func(ctx context.Context) bool {
		_, err := n1.SendCtx(ctx, []byte("x"))
		return err == nil
	})
	if _, err := bed.Crash(3); err != nil {
		t.Fatal(err)
	}
	if _, err := bed.Restart(3, func(*core.Node) {}); err != nil {
		t.Fatal(err)
	}
	pump.Stop(0)
	if err := bed.Close(); err != nil {
		t.Fatal(err)
	}
	if !Await(10*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before Boot, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
}
