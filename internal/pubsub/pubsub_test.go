package pubsub

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/testbed"
)

type psCluster struct {
	brokers []*Broker
}

func startBrokers(t *testing.T, n int) *psCluster {
	t.Helper()
	return startBrokersCustom(t, n)
}

func startBrokersCustom(t *testing.T, n int, opts ...Option) *psCluster {
	t.Helper()
	bed, err := testbed.Boot(core.Config{Topology: testbed.Flat(n)}, testbed.Fabric{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bed.Close() })
	c := &psCluster{}
	for _, node := range bed.Nodes() {
		b, err := New(node, opts...)
		if err != nil {
			t.Fatalf("broker %d: %v", node.Self(), err)
		}
		c.brokers = append(c.brokers, b)
	}
	return c
}

func waitActive(t *testing.T, b *Broker, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(b.ActiveBrokers()) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("active brokers = %v, want %d", b.ActiveBrokers(), want)
}

func TestPublishReachesSubscribers(t *testing.T) {
	c := startBrokers(t, 3)
	var mu sync.Mutex
	got := make(map[int][]string)
	for i := 2; i <= 3; i++ {
		idx := i
		c.brokers[i-1].Subscribe(func(m Message) {
			mu.Lock()
			got[idx] = append(got[idx], string(m.Payload))
			mu.Unlock()
		})
	}
	waitActive(t, c.brokers[0], 2)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := c.brokers[0].PublishWait(ctx, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for idx := 2; idx <= 3; idx++ {
		if len(got[idx]) != 5 {
			t.Fatalf("broker %d got %d messages, want 5", idx, len(got[idx]))
		}
		for i, m := range got[idx] {
			if m != fmt.Sprintf("m%d", i) {
				t.Fatalf("broker %d message order broken: %v", idx, got[idx])
			}
		}
	}
}

func TestPredicateTracksActiveBrokers(t *testing.T) {
	c := startBrokers(t, 4)
	pub := c.brokers[0]
	if pred := pub.DeliveryPredicate(); pred != "MIN($MYWNODE)" {
		t.Fatalf("idle predicate = %q", pred)
	}
	cancel3 := c.brokers[2].Subscribe(func(Message) {})
	waitActive(t, pub, 1)
	if pred := pub.DeliveryPredicate(); pred != "MIN($3.delivered)" {
		t.Fatalf("predicate = %q", pred)
	}
	c.brokers[3].Subscribe(func(Message) {})
	waitActive(t, pub, 2)
	if pred := pub.DeliveryPredicate(); !strings.Contains(pred, "$3.delivered") || !strings.Contains(pred, "$4.delivered") {
		t.Fatalf("predicate = %q", pred)
	}
	// Unsubscribe drops the broker from the observation list (§VI-D).
	cancel3()
	waitActive(t, pub, 1)
	if pred := pub.DeliveryPredicate(); strings.Contains(pred, "$3") {
		t.Fatalf("predicate still watches inactive broker: %q", pred)
	}
}

func TestPublishWaitWithNoSubscribers(t *testing.T) {
	c := startBrokers(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.brokers[0].PublishWait(ctx, []byte("x")); !errors.Is(err, ErrNoSubscribers) {
		t.Fatalf("err = %v, want ErrNoSubscribers", err)
	}
}

func TestPublishWaitDoesNotWaitForSubscriberlessSites(t *testing.T) {
	// Node 3 has no subscriber; only node 2's delivery is awaited.
	c := startBrokers(t, 3)
	c.brokers[1].Subscribe(func(Message) {})
	waitActive(t, c.brokers[0], 1)
	v, err := c.brokers[0].Node().Explain(DeliveryPredicateKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.DependsOn) != 1 || v.DependsOn[0] != 2 {
		t.Fatalf("delivery predicate depends on %v, want [2]", v.DependsOn)
	}
}

func TestMultipleLocalSubscribersOneAnnouncement(t *testing.T) {
	c := startBrokers(t, 2)
	cancelA := c.brokers[1].Subscribe(func(Message) {})
	cancelB := c.brokers[1].Subscribe(func(Message) {})
	waitActive(t, c.brokers[0], 1)
	// Cancelling one of two keeps the broker active.
	cancelA()
	time.Sleep(50 * time.Millisecond)
	if got := c.brokers[0].ActiveBrokers(); len(got) != 1 {
		t.Fatalf("active = %v after partial unsubscribe", got)
	}
	cancelB()
	waitActive(t, c.brokers[0], 0)
	// Double-cancel is a no-op.
	cancelB()
}

func TestMonitorDeliveryAndFrontier(t *testing.T) {
	c := startBrokers(t, 2)
	c.brokers[1].Subscribe(func(Message) {})
	waitActive(t, c.brokers[0], 1)

	var mu sync.Mutex
	var monitored []uint64
	cancel, err := c.brokers[0].MonitorDelivery(func(f uint64) {
		mu.Lock()
		monitored = append(monitored, f)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	seq, err := c.brokers[0].PublishWait(ctx, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.brokers[0].Frontier()
	if err != nil || f < seq {
		t.Fatalf("frontier = %d, %v; want ≥ %d", f, err, seq)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(monitored) == 0 {
		t.Fatal("delivery monitor never fired")
	}
}

func TestSubscriberSeesTimestamps(t *testing.T) {
	c := startBrokers(t, 2)
	gotMsg := make(chan Message, 1)
	c.brokers[1].Subscribe(func(m Message) {
		m.Payload = bytes.Clone(m.Payload) // lent only until we return
		select {
		case gotMsg <- m:
		default:
		}
	})
	waitActive(t, c.brokers[0], 1)
	before := time.Now()
	if _, err := c.brokers[0].Publish([]byte("ts")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gotMsg:
		if m.SentAt.Before(before.Add(-time.Second)) || m.ReceivedAt.Before(m.SentAt) {
			t.Fatalf("timestamps wrong: sent %v received %v", m.SentAt, m.ReceivedAt)
		}
		if m.Origin != 1 || string(m.Payload) != "ts" {
			t.Fatalf("message = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
}
