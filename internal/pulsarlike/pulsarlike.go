// Package pulsarlike is the reproduction's stand-in for Apache Pulsar's
// non-persistent geo-replication (§VI-C): an independent broker mesh that
// forwards published messages to remote brokers through per-link bounded
// store-and-forward queues. Two Pulsar behaviours relevant to the paper's
// Fig. 7 comparison are modeled:
//
//   - Buffering on slow links. The paper had to patch Pulsar to buffer
//     (instead of silently dropping) messages when a WAN link is slow;
//     that patched behaviour is this broker's default.
//   - JVM garbage-collection pauses. Pulsar is a Java system; the paper
//     attributes its rising LAN latency at higher publish rates to GC.
//     The broker injects stop-the-world pauses after a configurable
//     volume of allocations, so pause frequency grows with message rate.
//
// The wire protocol reuses package wire's framing; the transport is
// deliberately simpler than Stabilizer's (blocking queues, no control/data
// separation) — that contrast is the point of the experiment.
package pulsarlike

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/wire"
)

// Message is one delivered message at a subscriber.
type Message struct {
	Origin     int
	Seq        uint64
	Payload    []byte
	SentAt     time.Time
	ReceivedAt time.Time
}

// Config parameterizes a Broker.
type Config struct {
	// Self and N identify the broker in an N-site mesh.
	Self, N int
	// Network is the (emulated) WAN fabric.
	Network emunet.Network
	// QueueCap bounds each per-link queue in messages (default 65536,
	// comfortably above the paper's 10,000-message runs).
	QueueCap int
	// GCEveryBytes triggers a stop-the-world pause after this many bytes
	// of message allocations (default 8 MB). Zero disables GC modeling.
	GCEveryBytes int64
	// GCPause is the stop-the-world duration (default 12ms).
	GCPause time.Duration
}

// Broker is one site's pub/sub broker.
type Broker struct {
	cfg      Config
	listener net.Listener

	seq atomic.Uint64

	mu     sync.Mutex
	subs   []func(Message)
	ackCb  func(by int, seq uint64, latency time.Duration)
	sent   map[uint64]time.Time
	queues map[int]*sendQueue

	gcMu    sync.RWMutex // writers = GC pause; readers = all work
	gcBytes atomic.Int64

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	recvMu    sync.Mutex
	recvStats map[int]*RecvStats
}

// RecvStats aggregates per-origin delivery statistics (Fig. 7 throughput).
type RecvStats struct {
	Messages int
	Bytes    int64
	First    time.Time
	Last     time.Time
}

// Throughput returns the average delivery rate in bits per second.
func (s *RecvStats) Throughput() float64 {
	d := s.Last.Sub(s.First).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / d
}

// New creates a broker; call Start to join the mesh.
func New(cfg Config) (*Broker, error) {
	if cfg.Network == nil {
		return nil, errors.New("pulsarlike: Config.Network is required")
	}
	if cfg.Self < 1 || cfg.Self > cfg.N {
		return nil, fmt.Errorf("pulsarlike: self %d out of range [1,%d]", cfg.Self, cfg.N)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 65536
	}
	if cfg.GCEveryBytes == 0 {
		cfg.GCEveryBytes = 8 << 20
	}
	if cfg.GCPause == 0 {
		cfg.GCPause = 12 * time.Millisecond
	}
	return &Broker{
		cfg:       cfg,
		sent:      make(map[uint64]time.Time),
		queues:    make(map[int]*sendQueue),
		recvStats: make(map[int]*RecvStats),
		stop:      make(chan struct{}),
	}, nil
}

// Start listens and connects to every peer broker.
func (b *Broker) Start() error {
	l, err := b.cfg.Network.Listen(b.cfg.Self)
	if err != nil {
		return fmt.Errorf("pulsarlike: listen: %w", err)
	}
	b.listener = l
	b.wg.Add(1)
	go b.acceptLoop()
	for p := 1; p <= b.cfg.N; p++ {
		if p == b.cfg.Self {
			continue
		}
		q := newSendQueue(b.cfg.QueueCap)
		b.mu.Lock()
		b.queues[p] = q
		b.mu.Unlock()
		b.wg.Add(1)
		go b.forward(p, q)
	}
	return nil
}

// Close shuts the broker down.
func (b *Broker) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	close(b.stop)
	_ = b.listener.Close()
	b.mu.Lock()
	for _, q := range b.queues {
		q.close()
	}
	b.mu.Unlock()
	b.wg.Wait()
	return nil
}

// Subscribe registers a local subscriber callback. Message.Payload is lent
// from the connection's read chunk until fn returns (wire.Reader states the
// rule); a subscriber that keeps it copies it.
func (b *Broker) Subscribe(fn func(Message)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, fn)
}

// OnAck registers a publisher-side callback fired when a remote broker
// acknowledges delivery of a message (used to measure end-to-end latency).
func (b *Broker) OnAck(fn func(by int, seq uint64, latency time.Duration)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ackCb = fn
}

// Publish forwards payload to every remote broker. It blocks while a link
// queue is full (patched-Pulsar buffering semantics) and never drops.
func (b *Broker) Publish(payload []byte) (uint64, error) {
	if b.closed.Load() {
		return 0, net.ErrClosed
	}
	seq := b.seq.Add(1)
	now := time.Now()
	b.alloc(int64(len(payload)))
	b.gate()

	d := &wire.Data{Seq: seq, SentUnixNano: now.UnixNano(), Payload: payload}
	b.mu.Lock()
	b.sent[seq] = now
	queues := make([]*sendQueue, 0, len(b.queues))
	for _, q := range b.queues {
		queues = append(queues, q)
	}
	b.mu.Unlock()
	for _, q := range queues {
		if err := q.push(d); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// RecvStatsFor returns a copy of the delivery statistics for origin.
func (b *Broker) RecvStatsFor(origin int) RecvStats {
	b.recvMu.Lock()
	defer b.recvMu.Unlock()
	if s := b.recvStats[origin]; s != nil {
		return *s
	}
	return RecvStats{}
}

// --- internals ---

// alloc charges the GC model and triggers a stop-the-world pause when the
// allocation budget is exhausted.
func (b *Broker) alloc(n int64) {
	if b.cfg.GCEveryBytes <= 0 {
		return
	}
	if b.gcBytes.Add(n) >= b.cfg.GCEveryBytes {
		b.gcBytes.Store(0)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.gcMu.Lock() // stop the world
			defer b.gcMu.Unlock()
			select {
			case <-time.After(b.cfg.GCPause):
			case <-b.stop:
			}
		}()
	}
}

// gate blocks while a GC pause is in progress.
func (b *Broker) gate() {
	b.gcMu.RLock()
	//lint:ignore SA2001 empty critical section intentionally models STW
	b.gcMu.RUnlock()
}

func (b *Broker) forward(peer int, q *sendQueue) {
	defer b.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		d, err := q.pop()
		if err != nil {
			return
		}
		b.gate()
		if conn == nil {
			conn, err = b.dialWithRetry(peer)
			if err != nil {
				return
			}
		}
		if err := wire.WriteFrame(conn, d); err != nil {
			_ = conn.Close()
			conn = nil
			// Patched semantics: retry on a fresh connection rather
			// than dropping.
			if conn, err = b.dialWithRetry(peer); err != nil {
				return
			}
			if err := wire.WriteFrame(conn, d); err != nil {
				return
			}
		}
	}
}

func (b *Broker) dialWithRetry(peer int) (net.Conn, error) {
	backoff := 20 * time.Millisecond
	for {
		conn, err := b.cfg.Network.Dial(b.cfg.Self, peer)
		if err == nil {
			if err := wire.WriteFrame(conn, &wire.Hello{From: uint16(b.cfg.Self)}); err != nil {
				_ = conn.Close()
				return nil, err
			}
			// Delivery ACKs flow back on this connection; read them
			// until the connection dies.
			b.wg.Add(1)
			go b.readAcks(conn)
			return conn, nil
		}
		select {
		case <-b.stop:
			return nil, net.ErrClosed
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// readAcks drains the reverse direction of a dialed connection, delivering
// publisher-side delivery acknowledgments.
func (b *Broker) readAcks(conn net.Conn) {
	defer b.wg.Done()
	go func() {
		<-b.stop
		_ = conn.Close()
	}()
	r := wire.NewReader(conn)
	for {
		msg, err := r.Next()
		if err != nil {
			return
		}
		if a, ok := msg.(*wire.Ack); ok {
			b.handleAck(a)
		}
	}
}

func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.listener.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.serve(conn)
	}
}

func (b *Broker) serve(conn net.Conn) {
	defer b.wg.Done()
	defer conn.Close()
	go func() {
		<-b.stop
		_ = conn.Close()
	}()
	r := wire.NewReader(conn)
	msg, err := r.Next()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		return
	}
	from := int(hello.From)
	for {
		msg, err := r.Next()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.Data:
			b.deliver(from, m, conn)
		case *wire.Ack:
			b.handleAck(m)
		}
	}
}

func (b *Broker) deliver(from int, d *wire.Data, conn net.Conn) {
	now := time.Now()
	b.alloc(int64(len(d.Payload)))
	b.gate()

	b.recvMu.Lock()
	st := b.recvStats[from]
	if st == nil {
		st = &RecvStats{First: now}
		b.recvStats[from] = st
	}
	st.Messages++
	st.Bytes += int64(len(d.Payload))
	st.Last = now
	b.recvMu.Unlock()

	msg := Message{
		Origin:     from,
		Seq:        d.Seq,
		Payload:    d.Payload,
		SentAt:     time.Unix(0, d.SentUnixNano),
		ReceivedAt: now,
	}
	b.mu.Lock()
	subs := make([]func(Message), len(b.subs))
	copy(subs, b.subs)
	b.mu.Unlock()
	for _, fn := range subs {
		fn(msg)
	}
	// Acknowledge delivery back to the publisher on the same connection.
	_ = wire.WriteFrame(conn, &wire.Ack{
		Origin: uint16(from),
		By:     uint16(b.cfg.Self),
		Type:   1,
		Seq:    d.Seq,
	})
}

func (b *Broker) handleAck(a *wire.Ack) {
	b.mu.Lock()
	sent, ok := b.sent[a.Seq]
	cb := b.ackCb
	b.mu.Unlock()
	if !ok || cb == nil {
		return
	}
	cb(int(a.By), a.Seq, time.Since(sent))
}

// sendQueue is a bounded blocking FIFO of data frames.
type sendQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	items    []*wire.Data
	cap      int
	closed   bool
}

func newSendQueue(capacity int) *sendQueue {
	q := &sendQueue{cap: capacity}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

func (q *sendQueue) push(d *wire.Data) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && len(q.items) >= q.cap {
		q.notFull.Wait()
	}
	if q.closed {
		return net.ErrClosed
	}
	q.items = append(q.items, d)
	q.notEmpty.Signal()
	return nil
}

func (q *sendQueue) pop() (*wire.Data, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && len(q.items) == 0 {
		q.notEmpty.Wait()
	}
	if len(q.items) == 0 {
		return nil, net.ErrClosed
	}
	d := q.items[0]
	q.items = q.items[1:]
	q.notFull.Signal()
	return d, nil
}

func (q *sendQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}
