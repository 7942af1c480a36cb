package faultinject

import (
	"net"
	"sync"
	"time"
)

// writeChunk bounds the bytes written between fault checks, so a fault
// engaged while a large frame is in flight lands mid-frame: the prefix is
// on the wire, the rest stalls or dies with the connection.
const writeChunk = 4 << 10

// readChunk bounds the bytes read per receive-throttle delay: a SlowReceiver
// fault charges its per-chunk delay for at most this many bytes, capping the
// throttled direction's drain rate at readChunk/delay.
const readChunk = 4 << 10

// Conn is the injectable connection wrapper the Injector's Hook installs on
// every dialed connection. Its reads and writes consult the injector's
// fault state: a cut direction stalls them (no bytes lost — TCP semantics),
// a spike delays the bytes of its direction (writes going out, reads coming
// back), and a sever fails everything immediately.
type Conn struct {
	inj      *Injector
	from, to int
	base     net.Conn

	// severed is set by the injector under inj.mu; once true every
	// operation fails with net.ErrClosed.
	severed bool
	// closed is set under inj.mu when Close runs, so operations stalled in
	// a fault gate wake and fail instead of outliving their connection — a
	// closed socket aborts blocked I/O even while the link is dark.
	closed bool

	closeOnce sync.Once
}

var _ net.Conn = (*Conn)(nil)

// buffersWriter is a connection that takes a write as the buffers it is made
// of and borrows them, as the memory fabric's does (the rule is stated on
// transport's buffersWriter).
type buffersWriter interface {
	WriteBuffers(bufs [][]byte) (int, error)
}

// tryWriter is a connection that takes a write whole now or not at all, as
// the memory fabric's unshaped directions do (the rule is stated on
// transport's tryWriter).
type tryWriter interface {
	TryWriteBuffers(bufs [][]byte) bool
}

// TryWriteBuffers hands bufs to the connection below's TryWriteBuffers while
// no fault is engaged on the conn's direction: it is neither cut nor spiked,
// and the conn is neither severed nor closed. Otherwise, and when the
// connection below has no try-write, it writes nothing and returns false, so
// whatever a fault would hold goes by WriteBuffers and its gate. A fault
// engaged as the write goes through lands just after it, as one engaged
// between two writes does.
func (c *Conn) TryWriteBuffers(bufs [][]byte) bool {
	tw, ok := c.base.(tryWriter)
	return ok && c.inj.quiet(c) && tw.TryWriteBuffers(bufs)
}

// Write is WriteBuffers of p alone, except that every chunk goes below as a
// Write: the connection below copies it, so the caller may reuse p as soon
// as Write returns, as on a socket.
func (c *Conn) Write(p []byte) (int, error) { return c.write([][]byte{p}, nil) }

// WriteBuffers pushes the concatenation of bufs through the fault gate in
// chunks of at most writeChunk bytes of it: each chunk after the first waits
// out any cut on the forward direction, so a concurrently engaged fault
// stalls (or a sever kills) the write mid-frame. Spike delay applies once
// per call, before the first byte. A chunk goes to a connection that takes
// buffers as its pieces, lending them on, and to any other as one Write, so
// the connection below sees the same writes whichever way the caller cut the
// bytes.
func (c *Conn) WriteBuffers(bufs [][]byte) (int, error) {
	bw, _ := c.base.(buffersWriter)
	return c.write(bufs, bw)
}

// write is WriteBuffers, handing each chunk to bw if it is not nil and to
// the connection's Write if it is.
func (c *Conn) write(bufs [][]byte, bw buffersWriter) (int, error) {
	d, err := c.inj.gateWrite(c)
	if err != nil {
		return 0, err
	}
	if d > 0 {
		time.Sleep(d)
	}
	var (
		chunk  [][]byte
		joined []byte
		total  int
	)
	for i, off := 0, 0; ; {
		chunk = chunk[:0]
		n := 0
		for n < writeChunk && i < len(bufs) {
			p := bufs[i][off:]
			if k := writeChunk - n; len(p) > k {
				p, off = p[:k], off+k
			} else {
				i, off = i+1, 0
			}
			if len(p) > 0 {
				chunk = append(chunk, p)
				n += len(p)
			}
		}
		if n == 0 {
			return total, nil
		}
		if total > 0 { // re-check the gate between chunks
			if _, err := c.inj.gateWrite(c); err != nil {
				return total, err
			}
		}
		var m int
		switch {
		case bw != nil:
			m, err = bw.WriteBuffers(chunk)
		case len(chunk) == 1:
			m, err = c.base.Write(chunk[0])
		default:
			joined = joined[:0]
			for _, p := range chunk {
				joined = append(joined, p...)
			}
			m, err = c.base.Write(joined)
		}
		total += m
		if err != nil {
			return total, err
		}
	}
}

// Read waits out any cut on the reverse direction (whose traffic these
// reads carry), then reads from the underlying connection. Bytes already
// buffered below when a cut engages may still be delivered — matching a
// real one-way blackhole, which cannot recall packets past the bottleneck.
// A SlowReceiver fault on that direction charges its delay per readChunk
// bytes: the read is clipped to one chunk and sleeps first, bounding the
// drain rate regardless of the caller's buffer size. A Spike on that
// direction holds back what a read returns: the spike engaged once the bytes
// are in is slept before they are handed over, so what the peer writes back
// on this connection is delayed as what it writes on its own is.
func (c *Conn) Read(p []byte) (int, error) {
	d, err := c.inj.gateRead(c)
	if err != nil {
		return 0, err
	}
	if d > 0 {
		time.Sleep(d)
		if len(p) > readChunk {
			p = p[:readChunk]
		}
	}
	n, err := c.base.Read(p)
	if n > 0 {
		if d := c.inj.readSpike(c); d > 0 {
			time.Sleep(d)
		}
	}
	return n, err
}

// kill severs the connection: called by the injector after marking severed.
func (c *Conn) kill() { _ = c.base.Close() }

// Close implements net.Conn.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.inj.unregister(c)
		err = c.base.Close()
	})
	return err
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.base.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.base.RemoteAddr() }

// SetDeadline implements net.Conn by delegating to the wrapped connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.base.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.base.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.base.SetWriteDeadline(t) }
