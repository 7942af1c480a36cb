package emunet

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memConnBytes bounds the bytes one direction of a memory connection holds
// before Write blocks: the fabric's socket buffer.
const memConnBytes = 1 << 20

// memBlockBytes is the smallest block a direction copies Writes into.
const memBlockBytes = 4 << 10

// memConn is one end of an in-memory connection with socket semantics: Write
// copies p into the outgoing direction and returns, blocking only while that
// direction already holds its bound; Read takes what has arrived.
// WriteBuffers is Write of a concatenation it never builds, and it borrows
// the buffers until the peer has read them (the rule of transport's
// buffersWriter): the peer's Read is the one copy a byte gets, as through
// net.Pipe. No call waits for the peer to be scheduled, and there is no
// goroutine or channel per connection. A shaped direction carries its link's
// schedule (see schedule), so the emulated WAN is this one queue per
// direction, as tc puts delay and rate on the link's own egress queue.
type memConn struct {
	in, out       *memQueue
	local, remote memAddr
}

var _ net.Conn = (*memConn)(nil)

// newMemConnPair returns the two ends of a connection dialed by node from to
// node to, its from → to direction shaped by fwd and the other by rev; a nil
// schedule leaves its direction unshaped.
func newMemConnPair(from, to int, fwd, rev *schedule) (dialSide, acceptSide *memConn) {
	f, r := newMemQueue(fwd), newMemQueue(rev)
	a, b := memAddr{node: from}, memAddr{node: to}
	return &memConn{in: r, out: f, local: a, remote: b},
		&memConn{in: f, out: r, local: b, remote: a}
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.write([][]byte{p}, false) }

// WriteBuffers writes the concatenation of bufs as one Write of it would, but
// lends bufs to the direction instead of copying them: the caller must not
// write to them again, and the peer's Read copies each byte out of them.
func (c *memConn) WriteBuffers(bufs [][]byte) (int, error) { return c.out.write(bufs, true) }

// Close fails this end's own calls, parked or future, with net.ErrClosed.
// The peer's Writes fail with io.ErrClosedPipe; its Reads drain what this end
// had already written, bytes still in flight at their arrival times, and then
// return io.EOF (a FIN after buffered data). Bytes the peer wrote that this
// end never read are dropped.
func (c *memConn) Close() error {
	c.in.close(&c.in.r)
	c.out.close(&c.out.w)
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

func (c *memConn) SetReadDeadline(t time.Time) error  { return c.in.setDeadline(&c.in.r, t) }
func (c *memConn) SetWriteDeadline(t time.Time) error { return c.out.setDeadline(&c.out.w, t) }

// memQueue is one direction of a memConn: a bounded FIFO of borrowed slices
// between the end that writes it and the end that reads it, which copies out
// of them. Its one write takes a vector of buffers (a plain Write is a vector
// of one, copied into blk first). An unshaped direction holds up to
// memConnBytes and a byte is readable once written; a shaped one holds up to
// shaperQueueBytes, and a byte is readable once its schedule says it has
// arrived.
type memQueue struct {
	// wmu serializes whole Writes, so one that proceeds in pieces against a
	// full direction is not interleaved with another.
	wmu sync.Mutex
	blk []byte // its unused tail takes the next Write's copy; guarded by wmu and mu
	// spare is the block blk was before, and since counts the bytes taken
	// since then: once at most that many are unread, the reader has copied
	// spare's last byte out and a copy may take it back. Guarded like blk.
	spare []byte
	since int

	mu           sync.Mutex
	canRead      sync.Cond // bytes arrived, or an end closed or timed out
	canWrite     sync.Cond // room freed, or an end closed or timed out
	bufs         [][]byte  // bufs[head:] hold n bytes, the first from off on
	head, off, n int
	r, w         memEnd    // the reading and the writing end
	s            *schedule // the link schedule; nil on an unshaped direction
}

// memEnd is what a direction knows about one of its two ends, guarded by the
// queue's mu: whether it has closed, and its deadline for calls on this
// direction.
type memEnd struct {
	closed  bool
	expired bool
	timer   *time.Timer
}

func newMemQueue(s *schedule) *memQueue {
	q := &memQueue{s: s}
	q.canRead.L = &q.mu
	q.canWrite.L = &q.mu
	return q
}

// write appends the concatenation of bufs to the direction, blocking while it
// holds its bound, and returns how many bytes it took: all of them, or fewer
// and the error that stopped it. It holds each piece it takes until that is
// read: the caller's, if lend, or else a copy in blk. wmu keeps the whole
// vector contiguous against other writers. Taken bytes are published
// (stamped with their arrival on a shaped direction, announced to a parked
// reader on an unshaped one) in units of at most maxChunk of the
// concatenation, however it is cut into buffers, and before every wait for
// room: a unit never spans a wait, and a reader never sees a byte the
// schedule has not stamped. Nothing changes while mu is held, so what stops a
// write is looked for on entry and after each wait, when everything taken
// has been published.
func (q *memQueue) write(bufs [][]byte, lend bool) (int, error) {
	q.wmu.Lock()
	defer q.wmu.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.writeErr(); err != nil {
		return 0, err
	}
	bound, unit := memConnBytes, memConnBytes
	if q.s != nil {
		bound, unit = shaperQueueBytes, maxChunk
	}
	total, fresh := 0, 0 // fresh: taken and not yet published
	for _, p := range bufs {
		for len(p) > 0 {
			k := min(len(p), bound-q.n, unit-fresh)
			if k == 0 {
				q.publish(fresh)
				fresh = 0
				if q.n == bound {
					q.canWrite.Wait()
					if err := q.writeErr(); err != nil {
						return total, err
					}
				}
				continue
			}
			piece := p[:k]
			if !lend { // copy into blk, which then moves past the copy
				if q.n == 0 {
					q.blk = q.blk[:0] // the direction holds none of it
				}
				if cap(q.blk)-len(q.blk) < k {
					q.nextBlock(k)
				}
				q.blk = append(q.blk, piece...)
				piece = q.blk[len(q.blk)-k:]
			}
			if last := len(q.bufs) - 1; last >= q.head && adjoins(q.bufs[last], piece) {
				q.bufs[last] = q.bufs[last][:len(q.bufs[last])+k]
			} else {
				if q.head > 0 && len(q.bufs) == cap(q.bufs) { // compact, not grow
					q.bufs, q.head = q.bufs[:copy(q.bufs, q.bufs[q.head:])], 0
				}
				q.bufs = append(q.bufs, piece)
			}
			q.n += k
			q.since += k
			total += k
			fresh += k
			p = p[k:]
		}
	}
	q.publish(fresh)
	return total, nil
}

// nextBlock swaps blk for spare once the reader has copied spare empty, if
// it is no smaller; else for a fresh block, twice blk's size (up to
// memConnBytes, where an unshaped direction's spare is always read empty
// when blk fills) while the reader lags by more than a block. A lent buffer
// is never a block. Caller holds wmu and mu.
func (q *memQueue) nextBlock(k int) {
	read := q.n <= q.since
	if read && cap(q.spare) >= max(k, cap(q.blk)) {
		q.blk, q.spare = q.spare[:0], q.blk
	} else {
		size := cap(q.blk)
		if !read {
			size = min(2*size, memConnBytes)
		}
		q.blk, q.spare = make([]byte, 0, max(k, memBlockBytes, size)), q.blk
	}
	q.since = 0
}

// writeErr is what fails a write on the direction now, if anything. Caller
// holds mu.
func (q *memQueue) writeErr() error {
	switch {
	case q.w.closed:
		return net.ErrClosed
	case q.r.closed:
		return io.ErrClosedPipe
	case q.w.expired:
		return os.ErrDeadlineExceeded
	}
	return nil
}

// publish makes the last n bytes written readable: one unit on the schedule
// of a shaped direction, at once on an unshaped one. Caller holds mu.
func (q *memQueue) publish(n int) {
	switch {
	case n == 0:
	case q.s != nil:
		q.s.stamp(n)
		q.armArrival()
	default:
		q.canRead.Broadcast()
	}
}

// adjoins reports whether b starts where a ends, inside a's capacity: b
// extends a, as consecutive copies into one block do.
func adjoins(a, b []byte) bool {
	return len(b) > 0 && len(b) <= cap(a)-len(a) && &a[:len(a)+1][len(a)] == &b[0]
}

func (q *memQueue) read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		ready := q.n
		if q.s != nil {
			ready = q.s.arrived(q.n)
		}
		switch {
		case q.r.closed:
			return 0, net.ErrClosed
		case q.r.expired:
			return 0, os.ErrDeadlineExceeded
		case len(p) == 0:
			return 0, nil
		case ready > 0:
			k := min(len(p), ready)
			for c := 0; c < k; {
				m := copy(p[c:k], q.bufs[q.head][q.off:])
				if c, q.off = c+m, q.off+m; q.off == len(q.bufs[q.head]) {
					q.bufs[q.head], q.head, q.off = nil, q.head+1, 0 // pin nothing read
				}
			}
			q.n -= k
			q.canWrite.Signal()
			return k, nil
		case q.n > 0:
			// Every byte held is still in flight on a shaped direction.
			q.armArrival()
		case q.w.closed:
			return 0, io.EOF
		}
		q.canRead.Wait()
	}
}

// close ends the direction from e, one of its two ends. Once the reading end
// has closed nobody will read what the direction holds, so its slices and
// the schedule's arrivals and timer go with it; what a closed writing end
// leaves behind stays readable, each byte at its arrival time.
func (q *memQueue) close(e *memEnd) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e.closed = true
	stopTimer(&e.timer)
	if e == &q.r {
		q.bufs, q.head, q.off, q.n = nil, 0, 0, 0
		if s := q.s; s != nil {
			s.units, s.head, s.inFlight = nil, 0, 0
			stopTimer(&s.timer)
		}
	}
	q.wakeAll()
}

// setDeadline arms the deadline of e, one of q's two ends, for t; the zero
// time clears it. A call of that end parked on q fails with
// os.ErrDeadlineExceeded when t passes. An end that has closed arms nothing,
// so no timer outlives Close.
func (q *memQueue) setDeadline(e *memEnd, t time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if e.closed {
		return net.ErrClosed
	}
	stopTimer(&e.timer)
	e.expired = false
	if t.IsZero() {
		return nil
	}
	wait := time.Until(t)
	if wait <= 0 {
		e.expired = true
		q.wakeAll()
		return nil
	}
	// The callback takes mu, which this call holds until tm is stored: a
	// timer that was replaced or stopped after it fired finds another timer
	// (or none) in e and changes nothing.
	var tm *time.Timer
	tm = time.AfterFunc(wait, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		if e.timer == tm {
			e.expired = true
			q.wakeAll()
		}
	})
	e.timer = tm
	return nil
}

// armArrival arms the arrival timer for the first unit in flight, unless it
// is armed: a read parked on bytes in flight wakes when they arrive. As with
// a deadline, a callback whose timer was stopped first changes nothing.
// Caller holds mu.
func (q *memQueue) armArrival() {
	s := q.s
	if s.timer != nil || s.head == len(s.units) {
		return
	}
	var tm *time.Timer
	tm = time.AfterFunc(time.Until(s.units[s.head].at), func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		if s.timer == tm {
			s.timer = nil
			q.canRead.Broadcast()
		}
	})
	s.timer = tm
}

func (q *memQueue) wakeAll() {
	q.canRead.Broadcast()
	q.canWrite.Broadcast()
}

// stopTimer stops the timer *t, if any, and forgets it.
func stopTimer(t **time.Timer) {
	if *t != nil {
		(*t).Stop()
		*t = nil
	}
}
