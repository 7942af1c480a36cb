// Package emunet emulates a wide-area network on a single machine. It is
// this reproduction's substitute for the paper's TC-based latency/bandwidth
// injection (§VI): every directed link between two WAN nodes is shaped by a
// one-way latency and a token-bucket bandwidth limit taken from a Matrix.
//
// Two fabrics are provided behind the same Network interface:
//
//   - MemNetwork: in-process, built on buffered memory connections (memConn:
//     a write returns once buffered, as on a socket). Deterministic to set
//     up, no sockets, used by tests and most experiments.
//   - TCPNetwork: real TCP over loopback, used to exercise the full socket
//     path.
//
// On MemNetwork each direction of a connection is one queue that carries its
// link's schedule, as tc shapes a link's own egress queue. On TCPNetwork all
// shaping happens at the dialing endpoint: its writes are delayed and
// throttled by the forward link profile, and its reads by the reverse
// profile, so the accepting side can use the socket unmodified.
package emunet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Link is one directed link's emulation profile.
type Link struct {
	// OneWayLatency is the propagation delay applied to every byte.
	OneWayLatency time.Duration
	// BandwidthBps is the link capacity in bits per second. Zero means
	// unlimited.
	BandwidthBps float64
	// Jitter is the maximum extra random delay added on top of
	// OneWayLatency, drawn uniformly per shaped chunk from [0, Jitter).
	// Jitter requires a seeded random source: links shaped through a
	// fabric always have one (see Seed), while bare Shape calls apply no
	// jitter. FIFO order is preserved — jitter perturbs delivery times,
	// never ordering.
	Jitter time.Duration
}

// zero reports whether the link applies no shaping at all: its direction
// gets no schedule, and a connection with two such is not wrapped.
func (l Link) zero() bool {
	return l.OneWayLatency <= 0 && l.BandwidthBps <= 0 && l.Jitter <= 0
}

// Transmission returns the serialization delay of n bytes at the link's
// bandwidth.
func (l Link) Transmission(n int) time.Duration {
	if l.BandwidthBps <= 0 || n <= 0 {
		return 0
	}
	bits := float64(n) * 8
	return time.Duration(bits / l.BandwidthBps * float64(time.Second))
}

// Matrix holds the link profiles of a deployment, keyed by directed node
// pair (1-based indexes).
type Matrix struct {
	links map[[2]int]Link
	// Default applies to pairs without an explicit entry.
	Default Link
}

// NewMatrix returns an empty matrix with an unshaped default link.
func NewMatrix() *Matrix {
	return &Matrix{links: make(map[[2]int]Link)}
}

// Set installs the profile for the directed link from → to.
func (m *Matrix) Set(from, to int, l Link) {
	m.links[[2]int{from, to}] = l
}

// SetSymmetric installs the profile in both directions.
func (m *Matrix) SetSymmetric(a, b int, l Link) {
	m.Set(a, b, l)
	m.Set(b, a, l)
}

// Get returns the profile for the directed link from → to.
func (m *Matrix) Get(from, to int) Link {
	if l, ok := m.links[[2]int{from, to}]; ok {
		return l
	}
	return m.Default
}

// Scaled returns a copy of the matrix with every latency and jitter divided
// by factor and every bandwidth multiplied by it: the whole emulated clock
// runs factor times faster, so a transfer's serialization delay shrinks with
// its propagation delay, experiment *shapes* are preserved while wall-clock
// time shrinks, and a measured throughput is divided by factor to read in
// the matrix's own units. Use factor 1 for faithful runs.
func (m *Matrix) Scaled(factor float64) *Matrix {
	if factor <= 0 {
		factor = 1
	}
	scale := func(l Link) Link {
		return Link{
			OneWayLatency: time.Duration(float64(l.OneWayLatency) / factor),
			BandwidthBps:  l.BandwidthBps * factor,
			Jitter:        time.Duration(float64(l.Jitter) / factor),
		}
	}
	out := NewMatrix()
	out.Default = scale(m.Default)
	for k, l := range m.links {
		out.links[k] = scale(l)
	}
	return out
}

// Network is the fabric abstraction the transport layer dials through.
type Network interface {
	// Listen opens the accepting endpoint for the given node.
	Listen(node int) (net.Listener, error)
	// Dial connects node from to node to, returning a connection shaped
	// by the matrix profiles of both directions.
	Dial(from, to int) (net.Conn, error)
	// Close tears down the fabric and all listeners.
	Close() error
}

// Mbps converts megabits per second to bits per second.
func Mbps(v float64) float64 { return v * 1e6 }

// fabricRand derives per-connection random sources from one master seed so
// shaped-link jitter is pinned by the fabric's seed rather than global
// process randomness. Dial-order dependence is accepted: the seed pins the
// family of sequences, which is what replayable tests need.
type fabricRand struct {
	mu     sync.Mutex
	master *rand.Rand
}

func newFabricRand(seed int64) *fabricRand {
	return &fabricRand{master: rand.New(rand.NewSource(seed))}
}

// child returns a fresh deterministic sub-source.
func (f *fabricRand) child() *rand.Rand {
	f.mu.Lock()
	defer f.mu.Unlock()
	return rand.New(rand.NewSource(f.master.Int63()))
}

// defaultFabricSeed seeds fabrics whose caller never called Seed, so jitter
// is deterministic by default.
const defaultFabricSeed = 1

// fabric is what the two Network implementations share: the matrix every
// dialed connection is shaped by, the seed its jitter is drawn from and the
// closed latch, behind the mutex that also guards the embedding fabric's
// own tables.
type fabric struct {
	matrix *Matrix

	mu     sync.Mutex
	closed bool
	rnd    *fabricRand
}

// init sets the matrix (nil yields unshaped links) and the default seed.
func (f *fabric) init(matrix *Matrix) {
	if matrix == nil {
		matrix = NewMatrix()
	}
	f.matrix, f.rnd = matrix, newFabricRand(defaultFabricSeed)
}

// Seed pins the fabric's random source (shaped-link jitter) to seed, making
// runs replayable. Call before dialing; the default seed is 1.
func (f *fabric) Seed(seed int64) {
	f.mu.Lock()
	f.rnd = newFabricRand(seed)
	f.mu.Unlock()
}

// schedules returns the schedules of a connection dialed from → to, drawn
// from the matrix and from one child of the fabric's source: every dial
// draws one, shaped or not, so a seed pins each dial's jitter.
func (f *fabric) schedules(from, to int) (fwd, rev *schedule) {
	f.mu.Lock()
	rnd := f.rnd
	f.mu.Unlock()
	return schedules(f.matrix.Get(from, to), f.matrix.Get(to, from), rnd.child())
}

// MemNetwork is an in-process fabric built on buffered memory connections
// (memConn), each direction shaped in its own queue: a dial starts no
// goroutine. Faults are a state of those queues too (SetFault, Sever), so
// they apply to a direction whichever end dialed.
type MemNetwork struct {
	fabric
	listeners map[int]*memListener
	faults    map[[2]int]Fault                  // engaged, by directed pair
	live      map[[2]int]map[*memQueue]struct{} // read, by directed pair
}

var _ Network = (*MemNetwork)(nil)

// NewMemNetwork creates an in-memory fabric shaped by matrix. A nil matrix
// yields unshaped links.
func NewMemNetwork(matrix *Matrix) *MemNetwork {
	n := &MemNetwork{
		listeners: make(map[int]*memListener),
		faults:    make(map[[2]int]Fault),
		live:      make(map[[2]int]map[*memQueue]struct{}),
	}
	n.init(matrix)
	return n
}

// Errors returned by the fabrics.
var (
	ErrClosed     = errors.New("emunet: network closed")
	ErrNoListener = errors.New("emunet: no listener for node")
	ErrDupListen  = errors.New("emunet: node already listening")
	// ErrLinkCut fails a dial whose direction is cut (Fault.Cut): a dropped
	// SYN, surfaced at once so the dialer's backoff drives the retry.
	ErrLinkCut = errors.New("emunet: link cut")
)

// Listen implements Network.
func (n *MemNetwork) Listen(node int) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.listeners[node]; dup {
		return nil, fmt.Errorf("%w: %d", ErrDupListen, node)
	}
	l := &memListener{
		node:   node,
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
		onClose: func() {
			n.mu.Lock()
			delete(n.listeners, node)
			n.mu.Unlock()
		},
	}
	n.listeners[node] = l
	return l, nil
}

// Dial implements Network.
func (n *MemNetwork) Dial(from, to int) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	l := n.listeners[to]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoListener, to)
	}
	fwd, rev := n.schedules(from, to)
	conn, acceptSide := newMemConnPair(from, to, fwd, rev)
	n.mu.Lock()
	err := n.track(conn)
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	select {
	case l.accept <- acceptSide:
		return conn, nil
	case <-l.done:
		_ = conn.Close()
		_ = acceptSide.Close()
		return nil, fmt.Errorf("%w: %d", ErrNoListener, to)
	}
}

// Close implements Network.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	n.closed = true
	ls := make([]*memListener, 0, len(n.listeners))
	for _, l := range n.listeners {
		ls = append(ls, l)
	}
	n.listeners = make(map[int]*memListener)
	n.mu.Unlock()
	for _, l := range ls {
		l.closeOnce()
	}
	return nil
}

type memListener struct {
	node    int
	accept  chan net.Conn
	done    chan struct{}
	once    sync.Once
	onClose func()
}

var _ net.Listener = (*memListener)(nil)

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce()
	return nil
}

func (l *memListener) closeOnce() {
	l.once.Do(func() {
		close(l.done)
		if l.onClose != nil {
			l.onClose()
		}
	})
}

func (l *memListener) Addr() net.Addr { return memAddr{node: l.node} }

type memAddr struct{ node int }

func (a memAddr) Network() string { return "emunet" }
func (a memAddr) String() string  { return fmt.Sprintf("emunet:%d", a.node) }

// TCPNetwork is a loopback-TCP fabric. Each node gets an ephemeral listener
// on 127.0.0.1; dialed connections are shaped by the same schedules as
// MemNetwork's, in a shapedConn at the dialing end.
type TCPNetwork struct {
	fabric
	addrs     map[int]string
	listeners []net.Listener
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork creates a loopback TCP fabric shaped by matrix.
func NewTCPNetwork(matrix *Matrix) *TCPNetwork {
	n := &TCPNetwork{addrs: make(map[int]string)}
	n.init(matrix)
	return n
}

// Listen implements Network.
func (n *TCPNetwork) Listen(node int) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.addrs[node]; dup {
		return nil, fmt.Errorf("%w: %d", ErrDupListen, node)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("emunet: listen: %w", err)
	}
	n.addrs[node] = l.Addr().String()
	n.listeners = append(n.listeners, l)
	return l, nil
}

// Dial implements Network.
func (n *TCPNetwork) Dial(from, to int) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	addr := n.addrs[to]
	n.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("%w: %d", ErrNoListener, to)
	}
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("emunet: dial node %d: %w", to, err)
	}
	fwd, rev := n.schedules(from, to)
	return shape(c, fwd, rev), nil
}

// Close implements Network.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	n.closed = true
	ls := n.listeners
	n.listeners = nil
	n.addrs = make(map[int]string)
	n.mu.Unlock()
	var firstErr error
	for _, l := range ls {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
