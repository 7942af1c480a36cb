package chaos

import (
	"context"
	"testing"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/testbed"
)

// TestRestartAttachesBeforeDelivery crash-restarts a receiver under a running
// pump with a checker attachment that takes 20 ms — a goroutine parked between
// Cluster.Restart returning and the hooks going on. Unless the bed holds the
// peers' links across that gap, the sender reconnects (a 1 ms link) and
// re-delivers the head of the stream to a node nobody is watching yet, and the
// checker reports a delivery gap that never happened.
func TestRestartAttachesBeforeDelivery(t *testing.T) {
	cycles := 50
	if testing.Short() {
		cycles = 10
	}
	matrix := emunet.NewMatrix()
	matrix.Default = emunet.Link{OneWayLatency: time.Millisecond}
	bed, err := testbed.Boot(core.Config{
		Topology:           testbed.Flat(3),
		HeartbeatEvery:     heartbeatEvery,
		DisableAutoReclaim: true, // a fresh incarnation is resent the stream from seq 1
	}, testbed.Fabric{Matrix: matrix, Seed: 1, Faults: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bed.Close()

	const sender, victim = 1, 3
	check := NewChecker(3, []int{sender})
	for _, n := range bed.Nodes() {
		check.Attach(n)
	}
	sn := bed.Node(sender)
	pump := testbed.Every(time.Millisecond, func(ctx context.Context) bool {
		_, err := sn.SendCtx(ctx, make([]byte, 64))
		return err == nil
	})
	for i := 0; i < cycles; i++ {
		if _, err := bed.Crash(victim); err != nil {
			t.Fatal(err)
		}
		check.RecordRestart(victim)
		if _, err := bed.Restart(victim, func(n *core.Node) {
			time.Sleep(20 * time.Millisecond)
			check.Attach(n)
		}); err != nil {
			t.Fatal(err)
		}
		// Let the new incarnation take deliveries before it is crashed again.
		if !testbed.Await(10*time.Second, func() bool { return check.Delivered(victim, sender) > 0 }) {
			t.Fatalf("cycle %d: nothing re-delivered to the restarted node", i)
		}
	}
	pump.Stop(0)
	head := sn.NextSeq() - 1
	if !testbed.Await(20*time.Second, func() bool { return check.Delivered(victim, sender) == head }) {
		t.Errorf("restarted node saw %d/%d of the stream", check.Delivered(victim, sender), head)
	}
	for _, v := range check.Violations() {
		t.Error(v)
	}
}
