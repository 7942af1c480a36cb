package emunet

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// shaperQueueBytes bounds the number of in-flight bytes a shaped direction
// may hold before Write blocks, emulating a finite socket buffer.
const shaperQueueBytes = 4 << 20

// maxChunk bounds the size of one shaped unit so very large writes do not
// pin large buffers and are serialized progressively.
const maxChunk = 64 << 10

// Shape wraps conn so that writes experience the fwd link profile and reads
// the rev profile. The wrapper owns conn: closing the shaped connection
// closes conn and releases the internal goroutines. Link jitter is ignored
// (no random source); use ShapeSeeded or a fabric's Seed for jittered links.
func Shape(conn net.Conn, fwd, rev Link) net.Conn {
	return ShapeSeeded(conn, fwd, rev, nil)
}

// ShapeSeeded is Shape with an explicit random source for link jitter. The
// shaper never touches package-level randomness: all jitter draws come from
// rng, so a fixed seed replays the same delay sequence. A nil rng disables
// jitter. Each direction gets its own sub-source so the two queues never
// contend on rng.
func ShapeSeeded(conn net.Conn, fwd, rev Link, rng *rand.Rand) net.Conn {
	if fwd.zero() && rev.zero() {
		// Both directions are unshaped: wrapping would only add chunk
		// copies, two relay goroutines and a timestamp per chunk. Hand
		// the raw connection back.
		return conn
	}
	var fr, rr *rand.Rand
	if rng != nil {
		fr = rand.New(rand.NewSource(rng.Int63()))
		rr = rand.New(rand.NewSource(rng.Int63()))
	}
	s := &shapedConn{
		conn: conn,
		out:  newTimedQueue(fwd, fr),
		in:   newTimedQueue(rev, rr),
		done: make(chan struct{}),
	}
	s.wg.Add(2)
	go s.writeLoop()
	go s.readLoop()
	return s
}

type shapedConn struct {
	conn net.Conn
	out  *timedQueue // bytes we wrote, awaiting shaped delivery to conn
	in   *timedQueue // bytes read from conn, awaiting shaped delivery to Read

	pending []byte // partially consumed chunk for Read

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

var _ net.Conn = (*shapedConn)(nil)

// Write enqueues p for shaped delivery and returns once the bytes are
// buffered (possibly blocking on the bounded queue).
func (s *shapedConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxChunk {
			n = maxChunk
		}
		chunk := make([]byte, n)
		copy(chunk, p[:n])
		if err := s.out.push(chunk); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// Read delivers shaped inbound bytes.
func (s *shapedConn) Read(p []byte) (int, error) {
	if len(s.pending) == 0 {
		chunk, err := s.in.pop()
		if err != nil {
			return 0, err
		}
		s.pending = chunk
	}
	n := copy(p, s.pending)
	s.pending = s.pending[n:]
	return n, nil
}

func (s *shapedConn) writeLoop() {
	defer s.wg.Done()
	for {
		chunk, err := s.out.pop()
		if err != nil {
			return
		}
		if _, err := s.conn.Write(chunk); err != nil {
			s.out.fail(err)
			return
		}
	}
}

func (s *shapedConn) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := s.conn.Read(buf)
		if n > 0 {
			chunk := make([]byte, n)
			copy(chunk, buf[:n])
			if perr := s.in.push(chunk); perr != nil {
				return
			}
		}
		if err != nil {
			s.in.fail(err)
			return
		}
	}
}

// Close tears the connection down.
func (s *shapedConn) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		s.out.fail(net.ErrClosed)
		s.in.fail(net.ErrClosed)
		err = s.conn.Close()
		s.wg.Wait()
	})
	return err
}

// LocalAddr implements net.Conn.
func (s *shapedConn) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// RemoteAddr implements net.Conn.
func (s *shapedConn) RemoteAddr() net.Addr { return s.conn.RemoteAddr() }

// SetDeadline is a no-op: shaped connections are used by the transport
// layer, which relies on Close for unblocking rather than deadlines.
func (s *shapedConn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline is a no-op; see SetDeadline.
func (s *shapedConn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline is a no-op; see SetDeadline.
func (s *shapedConn) SetWriteDeadline(time.Time) error { return nil }

// timedQueue is a bounded FIFO of byte chunks, each released no earlier than
// its link-computed delivery time. It implements the latency + token-bucket
// bandwidth model: chunk i's serialization starts when chunk i-1's ends, and
// delivery happens one propagation delay after serialization completes.
type timedQueue struct {
	link Link
	rng  *rand.Rand // jitter source; guarded by mu, nil = no jitter

	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	items    []timedChunk
	bytes    int
	nextFree time.Time // virtual clock: when the link is free to serialize
	err      error
}

type timedChunk struct {
	data      []byte
	deliverAt time.Time
}

func newTimedQueue(link Link, rng *rand.Rand) *timedQueue {
	q := &timedQueue{link: link, rng: rng}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// jitter draws this chunk's extra propagation delay. Caller holds q.mu.
func (q *timedQueue) jitter() time.Duration {
	if q.link.Jitter <= 0 || q.rng == nil {
		return 0
	}
	return time.Duration(q.rng.Int63n(int64(q.link.Jitter)))
}

// push enqueues a chunk, blocking while the queue is full.
func (q *timedQueue) push(data []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.err == nil && q.bytes+len(data) > shaperQueueBytes && q.bytes > 0 {
		q.notFull.Wait()
	}
	if q.err != nil {
		return q.err
	}
	now := time.Now()
	start := q.nextFree
	if start.Before(now) {
		start = now
	}
	done := start.Add(q.link.Transmission(len(data)))
	q.nextFree = done
	q.items = append(q.items, timedChunk{
		data:      data,
		deliverAt: done.Add(q.link.OneWayLatency + q.jitter()),
	})
	q.bytes += len(data)
	q.notEmpty.Signal()
	return nil
}

// pop dequeues the next chunk, sleeping until its delivery time.
func (q *timedQueue) pop() ([]byte, error) {
	q.mu.Lock()
	for len(q.items) == 0 && q.err == nil {
		q.notEmpty.Wait()
	}
	if len(q.items) == 0 {
		err := q.err
		q.mu.Unlock()
		return nil, err
	}
	item := q.items[0]
	q.items = q.items[1:]
	q.bytes -= len(item.data)
	q.notFull.Broadcast()
	q.mu.Unlock()

	if d := time.Until(item.deliverAt); d > 0 {
		time.Sleep(d)
	}
	return item.data, nil
}

// fail poisons the queue; blocked and future operations return err. Chunks
// already queued remain poppable so in-flight data drains (like a FIN after
// buffered data).
func (q *timedQueue) fail(err error) {
	if err == nil {
		err = io.EOF
	}
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}
