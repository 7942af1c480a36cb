package emunet

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// shaperQueueBytes bounds the number of bytes a shaped direction may hold,
// in flight or arrived and unread, before Write blocks, emulating a finite
// socket buffer.
const shaperQueueBytes = 4 << 20

// maxChunk bounds the size of one shaped unit so very large writes are
// serialized progressively.
const maxChunk = 64 << 10

// schedule is a shaped direction's link model: the latency + token-bucket
// bandwidth + jitter model of Link, applied per write unit of at most
// maxChunk bytes. Unit i's serialization starts when unit i-1's ends, and it
// arrives one propagation delay (plus a jitter draw) after serialization
// completes, but never before unit i-1: jitter perturbs arrival times, never
// order. A spike adds its delay to the arrival of each unit stamped while it
// is engaged. A schedule belongs to one memQueue and is guarded by its mu.
type schedule struct {
	link Link
	rng  *rand.Rand // jitter source; nil = no jitter

	free     time.Time // when the link is free to serialize the next unit
	units    []arrival // units[head:] are not yet seen to arrive, oldest first
	head     int
	inFlight int // bytes of units[head:]

	spike time.Duration // the spike engaged on the direction
	// spikeOnly marks the schedule a spike gave an unshaped direction: its
	// link is zero, and it goes once the spike has cleared and drained.
	spikeOnly bool
}

// arrival is one write unit of n bytes, readable from at on.
type arrival struct {
	at time.Time
	n  int
}

// newSchedule returns the schedule of a direction shaped by l, or nil if l
// shapes nothing.
func newSchedule(l Link, rng *rand.Rand) *schedule {
	if l.zero() {
		return nil
	}
	return &schedule{link: l, rng: rng}
}

// schedules returns the schedules of a connection's two directions, shaped
// by fwd and rev. If either is shaped, each direction draws its own jitter
// source from rng, fwd first, so a seed replays the per-direction draws; a
// nil rng disables jitter.
func schedules(fwd, rev Link, rng *rand.Rand) (f, r *schedule) {
	if fwd.zero() && rev.zero() {
		return nil, nil
	}
	var fr, rr *rand.Rand
	if rng != nil {
		fr = rand.New(rand.NewSource(rng.Int63()))
		rr = rand.New(rand.NewSource(rng.Int63()))
	}
	return newSchedule(fwd, fr), newSchedule(rev, rr)
}

// jitter draws one unit's extra propagation delay.
func (s *schedule) jitter() time.Duration {
	if s.link.Jitter <= 0 || s.rng == nil {
		return 0
	}
	return time.Duration(s.rng.Int63n(int64(s.link.Jitter)))
}

// stamp schedules a unit of n bytes written now.
func (s *schedule) stamp(n int) {
	now := time.Now()
	if s.free.Before(now) {
		s.free = now
	}
	s.free = s.free.Add(s.link.Transmission(n))
	if s.head > 0 && len(s.units) == cap(s.units) {
		s.units = s.units[:copy(s.units, s.units[s.head:])]
		s.head = 0
	}
	s.units = append(s.units, arrival{at: s.free.Add(s.link.OneWayLatency + s.jitter() + s.spike), n: n})
	s.inFlight += n
}

// arrived returns how many of the n bytes the direction holds have arrived:
// the prefix whose units are all due.
func (s *schedule) arrived(n int) int {
	if s.inFlight > 0 {
		now := time.Now()
		for s.head < len(s.units) && !s.units[s.head].at.After(now) {
			s.inFlight -= s.units[s.head].n
			s.head++
		}
		if s.head == len(s.units) {
			s.units, s.head = s.units[:0], 0
		}
	}
	return n - s.inFlight
}

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
	f, r := schedules(fwd, rev, rng)
	return shape(conn, f, r)
}

// shape puts conn behind two memQueues, the outgoing one scheduled by fwd and
// the incoming one by rev, with one relay goroutine each between them and
// conn: a kernel socket cannot carry a schedule. If both are nil there is
// nothing to shape, and conn comes back as it is.
func shape(conn net.Conn, fwd, rev *schedule) net.Conn {
	if fwd == nil && rev == nil {
		return conn
	}
	s := &shapedConn{
		memConn: memConn{in: newMemQueue(rev), out: newMemQueue(fwd)},
		conn:    conn,
	}
	s.wg.Add(2)
	go s.writeLoop()
	go s.readLoop()
	return s
}

// shapedConn is a memConn whose far ends are two relays to a raw connection:
// Read, Write and the deadlines are memConn's, on the shaped queues.
type shapedConn struct {
	memConn
	conn net.Conn

	closeOnce sync.Once
	wg        sync.WaitGroup
}

var _ net.Conn = (*shapedConn)(nil)

// writeLoop moves bytes that have arrived on out to conn. If conn fails, out's
// reading end closes, so Write fails rather than blocking at the bound.
func (s *shapedConn) writeLoop() {
	defer s.wg.Done()
	buf := make([]byte, maxChunk)
	for {
		n, err := s.out.read(buf)
		if err != nil {
			return
		}
		if _, err := s.conn.Write(buf[:n]); err != nil {
			s.out.close(&s.out.r)
			return
		}
	}
}

// readLoop moves bytes read from conn into in, where they arrive on rev's
// schedule. Each read lands in the unused tail of a block that in borrows, so
// the relay copies nothing, and the next read goes past it. When conn fails,
// in's writing end closes: Read drains what is still in flight and then
// returns io.EOF.
func (s *shapedConn) readLoop() {
	defer s.wg.Done()
	var buf []byte
	for {
		if len(buf) < memBlockBytes {
			buf = make([]byte, 32<<10)
		}
		n, err := s.conn.Read(buf)
		if _, werr := s.in.write([][]byte{buf[:n]}, true); werr != nil {
			return
		}
		buf = buf[n:]
		if err != nil {
			s.in.close(&s.in.w)
			return
		}
	}
}

// Close fails the connection's own calls with net.ErrClosed, drops what is
// still in flight either way, closes conn and waits for both relays.
func (s *shapedConn) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.memConn.Close()
		s.out.close(&s.out.r)
		err = s.conn.Close()
		s.wg.Wait()
	})
	return err
}

// LocalAddr implements net.Conn.
func (s *shapedConn) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// RemoteAddr implements net.Conn.
func (s *shapedConn) RemoteAddr() net.Addr { return s.conn.RemoteAddr() }
