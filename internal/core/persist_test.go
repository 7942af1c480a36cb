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

// walPersister persists delivered messages to a kvstore WAL — the durable
// flavor of the "persisted" stability level (§III-A: "persistent logging"
// as one interpretation of 'having a copy').
type walPersister struct {
	store *kvstore.Store
}

var _ Persister = (*walPersister)(nil)

func (p *walPersister) Persist(m Message) error {
	_, err := p.store.Put(fmt.Sprintf("msg/%d/%d", m.Origin, m.Seq), m.Payload)
	return err
}

// TestPersistedStabilityEndToEnd drives the full "persisted" pipeline: a
// receiver persists delivered messages through a real write-ahead log, the
// persisted ACKs stream back, a .persisted predicate releases the sender,
// and the WAL replays the payloads after a simulated crash.
func TestPersistedStabilityEndToEnd(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	topo := flatTopology(3)

	walPaths := make([]string, 3)
	wals := make([]*kvstore.WAL, 3)
	nodes := make([]*Node, 3)
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		var persister Persister
		if i != 1 {
			walPaths[i-1] = filepath.Join(dir, fmt.Sprintf("node%d.wal", i))
			w, err := kvstore.OpenWAL(walPaths[i-1], false)
			if err != nil {
				t.Fatalf("open wal %d: %v", i, err)
			}
			wals[i-1] = w
			persister = &walPersister{store: kvstore.New(kvstore.WithWAL(w))}
		}
		n, err := Open(Config{
			Topology:  topo.WithSelf(i),
			Network:   net,
			Persister: persister,
		})
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		nodes[i-1] = n
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

// TestPersisterErrorWithholdsAck: a failing persister must not produce
// persisted stability.
func TestPersisterErrorWithholdsAck(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	topo := flatTopology(2)

	n1, err := Open(Config{Topology: topo.WithSelf(1), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := Open(Config{
		Topology:  topo.WithSelf(2),
		Network:   net,
		Persister: failingPersister{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	if err := n1.RegisterPredicate("recv", "MIN($ALLWNODES-$MYWNODE)"); err != nil {
		t.Fatal(err)
	}
	seq, err := n1.Send([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Received stability arrives...
	if err := n1.WaitFor(ctx, seq, "recv"); err != nil {
		t.Fatal(err)
	}
	// ...but persisted must stay at zero.
	time.Sleep(50 * time.Millisecond)
	if v := n1.Snapshot().Acks["persisted"][1]; v != 0 {
		t.Fatalf("failing persister produced persisted ack %d", v)
	}
}

type failingPersister struct{}

func (failingPersister) Persist(Message) error { return fmt.Errorf("disk full") }
