// Package pubsub is the paper's pub/sub service prototype (§V-B): a thin
// broker layer over Stabilizer. One broker runs per data center; publish
// multicasts a message to every peer broker through the asynchronous data
// plane, and subscribe registers a callback for incoming messages. Brokers
// announce whether they have live subscribers; the publisher's delivery
// predicate tracks exactly the active brokers and is re-built with
// change_predicate whenever the active set changes — the dynamic
// reconfiguration mechanism evaluated in §VI-D.
//
// Two extensions the paper lists as easy follow-ups are implemented here:
//
//   - Topics. Publishers and subscribers can scope traffic to named
//     topics; activity announcements, delivery predicates and retention
//     are all per topic. The zero-value topic "" preserves the paper's
//     single-topic prototype behaviour.
//   - Retention (the prototype's take on Pulsar's persistent topics).
//     With WithRetention(n), each broker keeps the most recent n messages
//     per topic and replays them to late subscribers before live traffic.
package pubsub

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"stabilizer/internal/core"
)

// DefaultTopic is the paper's single implicit topic.
const DefaultTopic = ""

// DeliveryPredicateKey is the managed delivery predicate of DefaultTopic;
// other topics use DeliveryPredicateKeyFor.
const DeliveryPredicateKey = "pubsub_delivery"

// DeliveryPredicateKeyFor returns the managed predicate key for a topic.
func DeliveryPredicateKeyFor(topic string) string {
	if topic == DefaultTopic {
		return DeliveryPredicateKey
	}
	return DeliveryPredicateKey + "@" + topic
}

// methodSubState is the App selector announcing broker activity.
const methodSubState uint16 = 0x5053 // "PS"

// msgMagic marks pub/sub payloads on the shared data plane.
const msgMagic uint16 = 0x5042 // "PB"

// Errors returned by the broker.
var (
	// ErrNoSubscribers is returned by PublishWait when no broker (local
	// or remote) has a subscriber for the topic.
	ErrNoSubscribers = errors.New("pubsub: no active brokers")
	// ErrBadTopic rejects topics that do not fit the wire encoding.
	ErrBadTopic = errors.New("pubsub: topic too long")
)

// maxTopicLen bounds topic names on the wire.
const maxTopicLen = 1 << 10

// Message is one published message as seen by a subscriber.
type Message struct {
	// Topic the message was published under.
	Topic string
	// Origin is the publishing broker's node index.
	Origin int
	// Seq is the publisher-assigned sequence number.
	Seq uint64
	// Payload is the published data, valid until the SubscribeFunc returns:
	// a live message lends it from the read chunk (core.Message.Payload). A
	// subscriber that keeps it copies it.
	Payload []byte
	// SentAt is the publisher's send timestamp; ReceivedAt the local
	// delivery timestamp (end-to-end latency = ReceivedAt - SentAt).
	SentAt     time.Time
	ReceivedAt time.Time
	// Replayed marks retained messages delivered to a late subscriber.
	Replayed bool
}

// SubscribeFunc consumes delivered messages.
type SubscribeFunc func(m Message)

// Option configures a Broker.
type Option func(*Broker)

// WithRetention keeps the most recent limit messages per topic and replays
// them to new local subscribers (0, the default, retains nothing — the
// paper's non-persistent prototype).
func WithRetention(limit int) Option {
	return func(b *Broker) {
		if limit > 0 {
			b.retention = limit
		}
	}
}

// topicState is one topic's bookkeeping on a broker.
type topicState struct {
	subs     map[int]SubscribeFunc
	active   map[int]bool // remote brokers with ≥1 subscriber
	retained []Message
}

// Broker is one data center's pub/sub endpoint.
type Broker struct {
	node      *core.Node
	self      int
	retention int

	mu      sync.Mutex
	topics  map[string]*topicState
	nextSub int
}

// New attaches a broker to node and installs the default topic's delivery
// predicate.
func New(node *core.Node, opts ...Option) (*Broker, error) {
	b := &Broker{
		node:   node,
		self:   node.Self(),
		topics: make(map[string]*topicState),
	}
	for _, o := range opts {
		o(b)
	}
	b.mu.Lock()
	st := b.topic(DefaultTopic)
	src := b.predicateLocked(st)
	b.mu.Unlock()
	if err := node.RegisterPredicate(DeliveryPredicateKey, src); err != nil {
		return nil, fmt.Errorf("pubsub: register delivery predicate: %w", err)
	}
	node.OnDeliver(b.deliver)
	node.OnApp(b.handleApp)
	node.OnPeer(func(peer int, up bool) {
		if up {
			b.announceTo(peer)
		}
	})
	return b, nil
}

// topic returns (creating) a topic's state. Caller holds b.mu.
func (b *Broker) topic(name string) *topicState {
	st, ok := b.topics[name]
	if !ok {
		st = &topicState{
			subs:   make(map[int]SubscribeFunc),
			active: make(map[int]bool),
		}
		b.topics[name] = st
	}
	return st
}

// Publish multicasts payload on the default topic.
func (b *Broker) Publish(payload []byte) (uint64, error) {
	return b.PublishTopic(DefaultTopic, payload)
}

// PublishTopic multicasts payload on the named topic through the
// asynchronous data plane and returns immediately with its sequence number.
// The send log copies what it sends before the call returns
// (transport.SendLog.AppendCtx).
func (b *Broker) PublishTopic(topic string, payload []byte) (uint64, error) {
	if len(topic) > maxTopicLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadTopic, len(topic))
	}
	buf := make([]byte, 0, 4+len(topic)+len(payload))
	buf = binary.BigEndian.AppendUint16(buf, msgMagic)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(topic)))
	buf = append(buf, topic...)
	buf = append(buf, payload...)
	seq, err := b.node.Send(buf)
	if err != nil {
		return 0, err
	}
	b.retain(Message{
		Topic:   topic,
		Origin:  b.self,
		Seq:     seq,
		Payload: payload,
		SentAt:  time.Now(),
	})
	return seq, nil
}

// PublishWait publishes on the default topic and blocks until every active
// broker has delivered the message to its subscribers.
func (b *Broker) PublishWait(ctx context.Context, payload []byte) (uint64, error) {
	return b.PublishWaitTopic(ctx, DefaultTopic, payload)
}

// PublishWaitTopic is PublishWait for a named topic.
func (b *Broker) PublishWaitTopic(ctx context.Context, topic string, payload []byte) (uint64, error) {
	b.mu.Lock()
	st := b.topic(topic)
	audience := len(st.active) + len(st.subs)
	b.mu.Unlock()
	if audience == 0 {
		return 0, fmt.Errorf("%w: topic %q", ErrNoSubscribers, topic)
	}
	if err := b.ensurePredicate(topic); err != nil {
		return 0, err
	}
	seq, err := b.PublishTopic(topic, payload)
	if err != nil {
		return 0, err
	}
	if err := b.node.WaitFor(ctx, seq, DeliveryPredicateKeyFor(topic)); err != nil {
		return seq, err
	}
	return seq, nil
}

// Subscribe registers fn for the default topic.
func (b *Broker) Subscribe(fn SubscribeFunc) (cancel func()) {
	return b.SubscribeTopic(DefaultTopic, fn)
}

// SubscribeTopic registers fn for incoming messages on topic and returns a
// cancel function. The broker announces topic activity on the first
// subscription and inactivity after the last cancellation. With retention
// enabled, fn first receives the retained backlog (Replayed = true).
func (b *Broker) SubscribeTopic(topic string, fn SubscribeFunc) (cancel func()) {
	b.mu.Lock()
	st := b.topic(topic)
	id := b.nextSub
	b.nextSub++
	first := len(st.subs) == 0
	st.subs[id] = fn
	backlog := make([]Message, len(st.retained))
	copy(backlog, st.retained)
	b.mu.Unlock()

	for _, m := range backlog {
		m.Replayed = true
		m.ReceivedAt = time.Now()
		fn(m)
	}
	if first {
		b.broadcastState(topic, true)
	}
	return func() {
		b.mu.Lock()
		st := b.topic(topic)
		if _, ok := st.subs[id]; !ok {
			b.mu.Unlock()
			return
		}
		delete(st.subs, id)
		last := len(st.subs) == 0
		b.mu.Unlock()
		if last {
			b.broadcastState(topic, false)
		}
	}
}

// ActiveBrokers lists the remote brokers holding default-topic subscribers.
func (b *Broker) ActiveBrokers() []int { return b.ActiveBrokersFor(DefaultTopic) }

// ActiveBrokersFor lists the remote brokers holding subscribers for topic.
func (b *Broker) ActiveBrokersFor(topic string) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.topic(topic)
	out := make([]int, 0, len(st.active))
	for n := range st.active {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Topics lists the topics this broker has seen, sorted.
func (b *Broker) Topics() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.topics))
	for t := range b.topics {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// DeliveryPredicate returns the default topic's current predicate source.
func (b *Broker) DeliveryPredicate() string { return b.DeliveryPredicateFor(DefaultTopic) }

// DeliveryPredicateFor returns a topic's current predicate source.
func (b *Broker) DeliveryPredicateFor(topic string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.predicateLocked(b.topic(topic))
}

// MonitorDelivery registers fn on the default topic's delivery frontier.
func (b *Broker) MonitorDelivery(fn func(frontier uint64)) (cancel func(), err error) {
	return b.node.MonitorStabilityFrontier(DeliveryPredicateKey, fn)
}

// Frontier reports the newest published sequence delivered at every active
// default-topic broker.
func (b *Broker) Frontier() (uint64, error) {
	return b.node.StabilityFrontier(DeliveryPredicateKey)
}

// Node exposes the underlying Stabilizer node (experiments use it to
// install custom predicates alongside the managed ones).
func (b *Broker) Node() *core.Node { return b.node }

// --- internals ---

// retain appends m to its topic's retained ring, with a copy of its payload:
// the caller's buffer on publish, and on delivery a payload lent only until
// the upcall returns (Message.Payload).
func (b *Broker) retain(m Message) {
	if b.retention == 0 {
		return
	}
	m.Payload = append([]byte{}, m.Payload...)
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.topic(m.Topic)
	st.retained = append(st.retained, m)
	if excess := len(st.retained) - b.retention; excess > 0 {
		st.retained = append([]Message{}, st.retained[excess:]...)
	}
}

// deliver hands one multicast message to local subscribers of its topic.
func (b *Broker) deliver(m core.Message) {
	if len(m.Payload) < 4 || binary.BigEndian.Uint16(m.Payload) != msgMagic {
		return
	}
	tlen := int(binary.BigEndian.Uint16(m.Payload[2:]))
	if len(m.Payload) < 4+tlen {
		return
	}
	topic := string(m.Payload[4 : 4+tlen])
	msg := Message{
		Topic:      topic,
		Origin:     m.Origin,
		Seq:        m.Seq,
		Payload:    m.Payload[4+tlen:],
		SentAt:     m.SentAt,
		ReceivedAt: time.Now(),
	}
	b.retain(msg)

	b.mu.Lock()
	st := b.topic(topic)
	fns := make([]SubscribeFunc, 0, len(st.subs))
	for _, fn := range st.subs {
		fns = append(fns, fn)
	}
	b.mu.Unlock()
	for _, fn := range fns {
		fn(msg)
	}
}

// handleApp processes broker-activity announcements: [active byte][topic].
func (b *Broker) handleApp(m core.AppMessage) {
	if m.Method != methodSubState || m.IsResponse || len(m.Payload) < 1 {
		return
	}
	activeNow := m.Payload[0] == 1
	topic := string(m.Payload[1:])
	b.mu.Lock()
	st := b.topic(topic)
	changed := st.active[m.From] != activeNow
	if activeNow {
		st.active[m.From] = true
	} else {
		delete(st.active, m.From)
	}
	src := b.predicateLocked(st)
	b.mu.Unlock()
	if changed {
		// Reconfigure the observation list at runtime (§VI-D).
		b.upsertPredicate(topic, src)
	}
}

// ensurePredicate makes sure the topic's managed predicate exists.
func (b *Broker) ensurePredicate(topic string) error {
	b.mu.Lock()
	src := b.predicateLocked(b.topic(topic))
	b.mu.Unlock()
	key := DeliveryPredicateKeyFor(topic)
	if err := b.node.RegisterPredicate(key, src); err != nil {
		// Already registered: refresh instead.
		return b.node.ChangePredicate(key, src)
	}
	return nil
}

func (b *Broker) upsertPredicate(topic, src string) {
	key := DeliveryPredicateKeyFor(topic)
	if err := b.node.ChangePredicate(key, src); err != nil {
		_ = b.node.RegisterPredicate(key, src)
	}
}

// broadcastState announces this broker's activity for topic to every peer.
func (b *Broker) broadcastState(topic string, active bool) {
	topo := b.node.Topology()
	for p := 1; p <= topo.N(); p++ {
		if p == b.self {
			continue
		}
		b.sendState(p, topic, active)
	}
}

// announceTo re-announces current state to a (re)connected peer so late
// joiners and healed partitions converge.
func (b *Broker) announceTo(peer int) {
	b.mu.Lock()
	var activeTopics []string
	for name, st := range b.topics {
		if len(st.subs) > 0 {
			activeTopics = append(activeTopics, name)
		}
	}
	b.mu.Unlock()
	for _, topic := range activeTopics {
		b.sendState(peer, topic, true)
	}
}

func (b *Broker) sendState(peer int, topic string, active bool) {
	p := make([]byte, 0, 1+len(topic))
	if active {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = append(p, topic...)
	_ = b.node.SendApp(peer, 0, methodSubState, false, p)
}

// predicateLocked renders the delivery predicate over a topic's active
// remote brokers. With no active remote broker, delivery is trivially
// local: the predicate tracks only the publisher itself. Caller holds mu.
//
// Note: because all topics share the publisher's sequence stream, a
// topic's frontier covering sequence s implies delivery of *all* messages
// ≤ s at that topic's active brokers — a conservative (stronger) bound.
func (b *Broker) predicateLocked(st *topicState) string {
	if len(st.active) == 0 {
		return "MIN($MYWNODE)"
	}
	nodes := make([]int, 0, len(st.active))
	for n := range st.active {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	terms := make([]string, len(nodes))
	for i, n := range nodes {
		terms[i] = fmt.Sprintf("$%d.delivered", n)
	}
	return "MIN(" + strings.Join(terms, ", ") + ")"
}
