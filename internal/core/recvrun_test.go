package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/frontier"
	"stabilizer/internal/metrics"
	"stabilizer/internal/wire"
)

// TestRunReportsReceivedBeforeUpcallsDeliveredAfter pins the receive path's
// reporting contract, run by run: "received" is reported for the whole run
// before the first application upcall (the run is decoded, past the duplicate
// filter and in Stabilizer's hands), "delivered" only after the last upcall
// has returned, and each costs one ACK per link however long the run is.
//
// Nodes 1 and 2 are real; node 3 is played by the test over a raw
// connection, so node 2 receives origin 3's stream as exactly one k-frame
// run. Node 1 is the observer, a bystander to origin 3's stream: node 2's
// reports about it ride the link's heartbeats.
func TestRunReportsReceivedBeforeUpcallsDeliveredAfter(t *testing.T) {
	const k, blockAt = 8, 3
	fabric := emunet.NewMemNetwork(nil)
	reg := metrics.NewRegistry()
	topo := flatTopology(3)
	var nodes [2]*Node
	for i := range nodes {
		n, err := Open(Config{Topology: topo.WithSelf(i + 1), Network: fabric,
			HeartbeatEvery: 20 * time.Millisecond, Metrics: reg})
		if err != nil {
			t.Fatalf("open node %d: %v", i+1, err)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
		_ = fabric.Close()
	})
	observer, receiver := nodes[0], nodes[1]

	var returned atomic.Uint64 // upcalls that have returned: the truth for "delivered"
	blocked, release := make(chan struct{}), make(chan struct{})
	receiver.OnDeliver(func(m Message) {
		if m.Seq == blockAt {
			close(blocked)
			<-release
		}
		returned.Store(m.Seq)
	})
	cell := func(typ string) uint64 {
		v, err := observer.EvalFor(3, "MAX($2."+typ+")")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// honest fails if a cell node 1 holds for node 2 is ahead of the truth at
	// node 2. The cells are read first: the truth only grows.
	honest := func() {
		t.Helper()
		recv, deliv := cell("received"), cell("delivered")
		if truth := receiver.Snapshot().RecvLast[3]; recv > truth {
			t.Fatalf("received cell %d exceeds what node 2 holds (%d)", recv, truth)
		}
		if truth := returned.Load(); deliv > truth {
			t.Fatalf("delivered cell %d exceeds the upcalls returned (%d)", deliv, truth)
		}
	}

	conn, err := fabric.Dial(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, &wire.Hello{From: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewReader(conn).Next(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	var burst []byte
	for s := uint64(1); s <= k; s++ {
		burst = wire.AppendFrame(burst, &wire.Data{Seq: s, SentUnixNano: 1, Payload: []byte{byte(s)}})
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}

	<-blocked
	deadline := time.Now().Add(5 * time.Second)
	for cell("received") != k {
		honest()
		if time.Now().After(deadline) {
			t.Fatalf("received cell is %d with the upcall of frame %d blocked, want the whole run (%d)", cell("received"), blockAt, k)
		}
		time.Sleep(time.Millisecond)
	}
	honest()
	if d := cell("delivered"); d > blockAt-1 {
		t.Fatalf("delivered cell %d with the upcall of frame %d still running", d, blockAt)
	}

	close(release)
	for cell("delivered") != k {
		honest()
		if time.Now().After(deadline) {
			t.Fatalf("delivered cell stuck at %d after the run's upcalls returned, want %d", cell("delivered"), k)
		}
		time.Sleep(time.Millisecond)
	}
	honest()
	// Origin 3's own row advanced by completeness, in every well-known type.
	for _, typ := range []string{"received", "persisted", "delivered"} {
		if v, _ := receiver.EvalFor(3, "MAX($3."+typ+")"); v != k {
			t.Fatalf("origin's own %s cell at node 2 is %d, want %d", typ, v, k)
		}
	}
	// One received and one delivered report on the link to node 1 — not k of
	// each. The delivered cell above shows the second has been written.
	acks := reg.NodeGroup("2").CounterVec("stabilizer_transport_frames_sent_total", "", "peer", "kind").With("1", "ack")
	if n := acks.Value(); n != 2 {
		t.Fatalf("node 2 wrote %d ack frames to node 1 for a %d-frame run, want 2", n, k)
	}
	if n := receiver.Snapshot().Deliveries; n != k {
		t.Fatalf("deliveries counter is %d, want one per message (%d)", n, k)
	}
}

// BenchmarkHandleDataRun measures the core receive path per message at
// several run lengths: the recorder update, the reports posted on the node's
// board and one OnDeliver upcall. Every iteration delivers fresh sequences, so
// every report raises its cell, as on a live stream.
func BenchmarkHandleDataRun(b *testing.B) {
	for _, k := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			fabric := emunet.NewMemNetwork(nil)
			defer fabric.Close()
			// Only node 2 of 8 runs: its links never connect.
			n, err := Open(Config{Topology: flatTopology(8).WithSelf(2), Network: fabric})
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			var delivered uint64
			n.OnDeliver(func(m Message) { delivered = m.Seq })
			h := (*trHandler)(n)
			run := make([]wire.Data, k)
			payload := make([]byte, 64)
			seq := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				for j := range run {
					seq++
					run[j] = wire.Data{Seq: seq, SentUnixNano: 1, Payload: payload}
				}
				h.HandleDataRun(1, run)
			}
			b.StopTimer()
			if delivered != seq {
				b.Fatalf("last upcall saw seq %d, want %d", delivered, seq)
			}
			if got := n.tables[0].Value(2, frontier.TypeDelivered); got != seq {
				b.Fatalf("delivered cell %d, want %d", got, seq)
			}
		})
	}
}
