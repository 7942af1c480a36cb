package pubsub

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTopicsAreIsolated(t *testing.T) {
	c := startBrokers(t, 3)
	var mu sync.Mutex
	got := make(map[string][]string) // topic -> payloads at broker 2

	for _, topic := range []string{"orders", "metrics"} {
		topic := topic
		c.brokers[1].SubscribeTopic(topic, func(m Message) {
			mu.Lock()
			got[topic] = append(got[topic], string(m.Payload))
			mu.Unlock()
		})
	}
	waitActiveTopic(t, c.brokers[0], "orders", 1)
	waitActiveTopic(t, c.brokers[0], "metrics", 1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.brokers[0].PublishWaitTopic(ctx, "orders", []byte("o1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.brokers[0].PublishWaitTopic(ctx, "metrics", []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.brokers[0].PublishWaitTopic(ctx, "orders", []byte("o2")); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got["orders"]) != 2 || got["orders"][0] != "o1" || got["orders"][1] != "o2" {
		t.Fatalf("orders = %v", got["orders"])
	}
	if len(got["metrics"]) != 1 || got["metrics"][0] != "m1" {
		t.Fatalf("metrics = %v", got["metrics"])
	}
}

func waitActiveTopic(t *testing.T, b *Broker, topic string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(b.ActiveBrokersFor(topic)) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("topic %q active = %v, want %d", topic, b.ActiveBrokersFor(topic), want)
}

func TestPerTopicPredicates(t *testing.T) {
	c := startBrokers(t, 3)
	c.brokers[1].SubscribeTopic("t1", func(Message) {})
	c.brokers[2].SubscribeTopic("t2", func(Message) {})
	waitActiveTopic(t, c.brokers[0], "t1", 1)
	waitActiveTopic(t, c.brokers[0], "t2", 1)

	p1 := c.brokers[0].DeliveryPredicateFor("t1")
	p2 := c.brokers[0].DeliveryPredicateFor("t2")
	if !strings.Contains(p1, "$2") || strings.Contains(p1, "$3") {
		t.Fatalf("t1 predicate = %q", p1)
	}
	if !strings.Contains(p2, "$3") || strings.Contains(p2, "$2") {
		t.Fatalf("t2 predicate = %q", p2)
	}
	// Distinct key namespaces.
	if DeliveryPredicateKeyFor("t1") == DeliveryPredicateKeyFor("t2") {
		t.Fatal("topic predicate keys collide")
	}
	if DeliveryPredicateKeyFor(DefaultTopic) != DeliveryPredicateKey {
		t.Fatal("default topic key mismatch")
	}
}

func TestPublishWaitUnknownTopicNoSubscribers(t *testing.T) {
	c := startBrokers(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.brokers[0].PublishWaitTopic(ctx, "ghost", []byte("x")); !errors.Is(err, ErrNoSubscribers) {
		t.Fatalf("err = %v, want ErrNoSubscribers", err)
	}
}

func TestTopicTooLong(t *testing.T) {
	c := startBrokers(t, 2)
	if _, err := c.brokers[0].PublishTopic(strings.Repeat("x", 5000), nil); !errors.Is(err, ErrBadTopic) {
		t.Fatalf("err = %v, want ErrBadTopic", err)
	}
}

func TestTopicsListing(t *testing.T) {
	c := startBrokers(t, 2)
	c.brokers[0].SubscribeTopic("b-topic", func(Message) {})
	c.brokers[0].SubscribeTopic("a-topic", func(Message) {})
	topics := c.brokers[0].Topics()
	// DefaultTopic ("") is always present.
	if len(topics) != 3 || topics[1] != "a-topic" || topics[2] != "b-topic" {
		t.Fatalf("topics = %q", topics)
	}
}

func TestRetentionReplaysBacklog(t *testing.T) {
	topo := startBrokers(t, 2) // broker without retention on node 2
	_ = topo

	c := startBrokersWithOpts(t, 2, WithRetention(3))
	pub, sub := c.brokers[0], c.brokers[1]

	// Publish five messages with NO subscriber anywhere.
	for _, p := range []string{"m1", "m2", "m3", "m4", "m5"} {
		if _, err := pub.PublishTopic("logs", []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the remote broker has retained the tail.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		sub.mu.Lock()
		n := len(sub.topic("logs").retained)
		sub.mu.Unlock()
		if n == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A late subscriber receives exactly the retained tail, marked
	// Replayed, in order.
	var mu sync.Mutex
	var replayed []string
	sub.SubscribeTopic("logs", func(m Message) {
		if m.Replayed {
			mu.Lock()
			replayed = append(replayed, string(m.Payload))
			mu.Unlock()
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if len(replayed) != 3 || replayed[0] != "m3" || replayed[2] != "m5" {
		t.Fatalf("replayed = %v, want [m3 m4 m5]", replayed)
	}
}

// TestRetainedPayloadIsACopy: a delivered payload is lent from the
// connection's read chunk only until the upcall returns, so the retention
// ring keeps a copy — an entry must not share the chunk, nor see a
// subscriber's writes to the message it was handed.
func TestRetainedPayloadIsACopy(t *testing.T) {
	c := startBrokersWithOpts(t, 2, WithRetention(1))
	pub, sub := c.brokers[0], c.brokers[1]
	delivered := make(chan *byte, 1)
	sub.Subscribe(func(m Message) {
		m.Payload[0] = 'X' // a subscriber writing to the payload it was lent
		delivered <- &m.Payload[0]
	})
	waitActive(t, pub, 1)
	if _, err := pub.Publish([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	var live *byte
	select {
	case live = <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
	var replayed string
	sub.Subscribe(func(m Message) {
		if m.Replayed {
			replayed = string(m.Payload)
		}
	})
	if replayed != "tail" {
		t.Fatalf("replayed %q, want %q: a subscriber's write reached the retained payload", replayed, "tail")
	}
	sub.mu.Lock()
	kept := sub.topic(DefaultTopic).retained[0].Payload
	sub.mu.Unlock()
	if &kept[0] == live {
		t.Fatal("retained payload shares the delivered message's backing memory")
	}
}

func TestRetentionDisabledByDefault(t *testing.T) {
	c := startBrokers(t, 2)
	if _, err := c.brokers[0].Publish([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	seen := false
	c.brokers[1].Subscribe(func(m Message) {
		if m.Replayed {
			seen = true
		}
	})
	time.Sleep(20 * time.Millisecond)
	if seen {
		t.Fatal("non-retaining broker replayed a message")
	}
}

// startBrokersWithOpts is startBrokers with broker options.
func startBrokersWithOpts(t *testing.T, n int, opts ...Option) *psCluster {
	t.Helper()
	c := startBrokersCustom(t, n, opts...)
	return c
}
