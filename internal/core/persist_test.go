package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/kvstore"
)

// TestPersistedStabilityEndToEnd drives the full "persisted" pipeline the way
// an application reports it: each receiver's OnDeliver handler writes the
// message through a real write-ahead log and, once the write succeeds, calls
// ReportStability("persisted") from inside the delivery upcall; the persisted
// ACKs stream back, a .persisted predicate releases the sender, and the WAL
// replays the payloads after a simulated crash.
func TestPersistedStabilityEndToEnd(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	topo := flatTopology(3)

	walPaths := make([]string, 3)
	wals := make([]*kvstore.WAL, 3)
	nodes := make([]*Node, 3)
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		n, err := Open(Config{Topology: topo.WithSelf(i), Network: net})
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		nodes[i-1] = n
		if i == 1 {
			continue
		}
		walPaths[i-1] = filepath.Join(dir, fmt.Sprintf("node%d.wal", i))
		w, err := kvstore.OpenWAL(walPaths[i-1], false)
		if err != nil {
			t.Fatalf("open wal %d: %v", i, err)
		}
		wals[i-1] = w
		store := kvstore.New(kvstore.WithWAL(w))
		n.OnDeliver(func(m Message) {
			if _, err := store.Put(fmt.Sprintf("msg/%d/%d", m.Origin, m.Seq), m.Payload); err != nil {
				return
			}
			if err := n.ReportStability(m.Origin, "persisted", m.Seq); err != nil {
				t.Errorf("node %d: report persisted %d: %v", n.Self(), m.Seq, err)
			}
		})
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	sender := nodes[0]
	if err := sender.RegisterPredicate("durable", "MIN(($ALLWNODES-$MYWNODE).persisted)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var last uint64
	for i := 0; i < 10; i++ {
		var err error
		last, err = sender.Send([]byte(fmt.Sprintf("durable-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.WaitFor(ctx, last, "durable"); err != nil {
		t.Fatalf("persisted predicate never satisfied: %v", err)
	}

	// The recorder agrees: both receivers report persisted ≥ last.
	for peer := 2; peer <= 3; peer++ {
		v, err := sender.EvalFor(1, fmt.Sprintf("MAX($%d.persisted)", peer))
		if err != nil || v < last {
			t.Fatalf("node %d persisted ack = %d, %v; want ≥ %d", peer, v, err, last)
		}
	}

	// Simulated crash: recover each receiver's WAL and verify every
	// payload survived in order.
	for peer := 2; peer <= 3; peer++ {
		if err := wals[peer-1].Close(); err != nil {
			t.Fatalf("close wal %d: %v", peer, err)
		}
		records, err := kvstore.ReadWAL(walPaths[peer-1])
		if err != nil {
			t.Fatalf("read wal %d: %v", peer, err)
		}
		if len(records) != 10 {
			t.Fatalf("node %d recovered %d/10 records", peer, len(records))
		}
		for i, r := range records {
			wantKey := fmt.Sprintf("msg/1/%d", i+1)
			wantVal := fmt.Sprintf("durable-%d", i)
			if r.Key != wantKey || string(r.Value) != wantVal {
				t.Fatalf("node %d record %d = %q=%q, want %q=%q",
					peer, i, r.Key, r.Value, wantKey, wantVal)
			}
		}
	}
}
