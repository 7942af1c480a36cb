package paxos

import (
	"sync"

	"stabilizer/internal/core"
)

// Bus abstracts the messaging substrate a replica runs on: FIFO, lossless
// links between every pair of nodes.
type Bus interface {
	// Self is the local node's 1-based index; N the cluster size.
	Self() int
	N() int
	// Broadcast sends payload to every other node, FIFO per sender.
	Broadcast(payload []byte) error
	// Send sends payload to one node, FIFO per pair.
	Send(to int, payload []byte) error
	// SetHandler installs the delivery callback (call before traffic). The
	// payload is valid until fn returns; fn copies what it keeps.
	SetHandler(fn func(from int, payload []byte))
}

// methodPaxos is the App selector for point-to-point paxos messages.
const methodPaxos uint16 = 0x5058

// CoreBus runs paxos over a Stabilizer node: broadcasts ride the streaming
// data plane (Accept dissemination enjoys retransmission and FIFO for
// free), point-to-point messages use the App channel. The paxos protocol
// itself makes no use of stability predicates — it brings its own quorum
// rule, which is the thing the Fig. 6 experiment compares.
type CoreBus struct {
	node *core.Node

	mu sync.Mutex
	fn func(from int, payload []byte)
}

var _ Bus = (*CoreBus)(nil)

// NewCoreBus wraps a Stabilizer node as a paxos bus.
func NewCoreBus(node *core.Node) *CoreBus {
	b := &CoreBus{node: node}
	node.OnDeliver(func(m core.Message) {
		b.dispatch(m.Origin, m.Payload)
	})
	node.OnApp(func(m core.AppMessage) {
		if m.Method != methodPaxos || m.IsResponse {
			return
		}
		b.dispatch(m.From, m.Payload)
	})
	return b
}

// Self implements Bus.
func (b *CoreBus) Self() int { return b.node.Self() }

// N implements Bus.
func (b *CoreBus) N() int { return b.node.Topology().N() }

// Broadcast implements Bus. The payload is copied before it returns (the
// send-side rule of transport.SendLog.AppendCtx).
func (b *CoreBus) Broadcast(payload []byte) error {
	_, err := b.node.Send(payload)
	return err
}

// Send implements Bus.
func (b *CoreBus) Send(to int, payload []byte) error {
	return b.node.SendApp(to, 0, methodPaxos, false, payload)
}

// SetHandler implements Bus.
func (b *CoreBus) SetHandler(fn func(from int, payload []byte)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fn = fn
}

func (b *CoreBus) dispatch(from int, payload []byte) {
	if len(payload) < 2 || payload[0] != 0x50 || payload[1] != 0x58 {
		return // not paxos traffic
	}
	b.mu.Lock()
	fn := b.fn
	b.mu.Unlock()
	if fn != nil {
		fn(from, payload)
	}
}

// MemBus is an in-process bus for unit and property tests: each node has a
// mailbox drained by a single dispatcher goroutine, so delivery order per
// receiver matches send order (FIFO per pair and then some), with optional
// message dropping to exercise loss tolerance.
type MemBus struct {
	self int
	hub  *MemHub

	mu         sync.Mutex
	fn         func(from int, payload []byte)
	mailbox    []memMsg
	notEmpty   sync.Cond
	dispatched bool
	closed     bool
}

type memMsg struct {
	from    int
	payload []byte
}

var _ Bus = (*MemBus)(nil)

// MemHub connects MemBus endpoints.
type MemHub struct {
	n     int
	mu    sync.Mutex
	buses map[int]*MemBus
	// Drop, when set, is consulted per message; returning true drops it.
	Drop func(from, to int, payload []byte) bool

	flightMu sync.Mutex
	flight   sync.Cond
	inflight int
}

// NewMemHub creates a hub for n nodes.
func NewMemHub(n int) *MemHub {
	h := &MemHub{n: n, buses: make(map[int]*MemBus, n)}
	h.flight.L = &h.flightMu
	return h
}

func (h *MemHub) addFlight(d int) {
	h.flightMu.Lock()
	h.inflight += d
	if h.inflight == 0 {
		h.flight.Broadcast()
	}
	h.flightMu.Unlock()
}

// Bus returns (creating on first use) node idx's endpoint.
func (h *MemHub) Bus(idx int) *MemBus {
	h.mu.Lock()
	defer h.mu.Unlock()
	if b, ok := h.buses[idx]; ok {
		return b
	}
	b := &MemBus{self: idx, hub: h}
	b.notEmpty.L = &b.mu
	h.buses[idx] = b
	return b
}

// Wait blocks until the hub is quiescent: no message queued or being
// handled. Handlers that send further messages extend the wait, so Wait
// observes the end of whole message cascades (test barrier).
func (h *MemHub) Wait() {
	h.flightMu.Lock()
	for h.inflight > 0 {
		h.flight.Wait()
	}
	h.flightMu.Unlock()
}

// Close stops every endpoint's dispatcher.
func (h *MemHub) Close() {
	h.mu.Lock()
	buses := make([]*MemBus, 0, len(h.buses))
	for _, b := range h.buses {
		buses = append(buses, b)
	}
	h.mu.Unlock()
	for _, b := range buses {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		b.notEmpty.Broadcast()
	}
}

// Self implements Bus.
func (b *MemBus) Self() int { return b.self }

// N implements Bus.
func (b *MemBus) N() int { return b.hub.n }

// Broadcast implements Bus.
func (b *MemBus) Broadcast(payload []byte) error {
	for to := 1; to <= b.hub.n; to++ {
		if to == b.self {
			continue
		}
		if err := b.Send(to, payload); err != nil {
			return err
		}
	}
	return nil
}

// Send implements Bus. Messages land in the receiver's mailbox and are
// delivered in order by its dispatcher goroutine.
func (b *MemBus) Send(to int, payload []byte) error {
	h := b.hub
	h.mu.Lock()
	target := h.buses[to]
	drop := h.Drop
	h.mu.Unlock()
	if target == nil {
		return nil // node not created yet; message lost (like a dead peer)
	}
	if drop != nil && drop(b.self, to, payload) {
		return nil
	}
	cp := append([]byte{}, payload...)
	h.addFlight(1)
	target.enqueue(memMsg{from: b.self, payload: cp})
	return nil
}

// SetHandler implements Bus. The dispatcher starts on first installation.
func (b *MemBus) SetHandler(fn func(from int, payload []byte)) {
	b.mu.Lock()
	b.fn = fn
	start := !b.dispatched
	b.dispatched = true
	b.mu.Unlock()
	if start {
		go b.dispatch()
	}
}

func (b *MemBus) enqueue(m memMsg) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.hub.addFlight(-1)
		return
	}
	b.mailbox = append(b.mailbox, m)
	b.mu.Unlock()
	b.notEmpty.Broadcast()
}

func (b *MemBus) dispatch() {
	for {
		b.mu.Lock()
		for len(b.mailbox) == 0 && !b.closed {
			b.notEmpty.Wait()
		}
		if b.closed {
			// Drain accounting for any stranded messages.
			stranded := len(b.mailbox)
			b.mailbox = nil
			b.mu.Unlock()
			b.hub.addFlight(-stranded)
			return
		}
		m := b.mailbox[0]
		b.mailbox = b.mailbox[1:]
		fn := b.fn
		b.mu.Unlock()
		if fn != nil {
			fn(m.from, m.payload)
		}
		b.hub.addFlight(-1)
	}
}
