package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/optrace"
	"stabilizer/internal/wire"
)

// tapNet is a fabric whose Dial hands each connection it makes to wrap and
// returns what wrap makes of it: how these tests put a tap between a link and
// its connection.
type tapNet struct {
	emunet.Network
	wrap func(from, to int, conn net.Conn) net.Conn
}

func (n tapNet) Dial(from, to int) (net.Conn, error) {
	conn, err := n.Network.Dial(from, to)
	if err != nil {
		return nil, err
	}
	return n.wrap(from, to, conn), nil
}

// countedConn counts the writes, and the bytes they carried, of the
// connection it wraps. It has no WriteBuffers, so the link joins each flush
// for it, whatever it wraps.
type countedConn struct {
	net.Conn
	writes, bytes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// countedBuffersConn is a countedConn around a connection that takes
// buffers, and passes them on: a WriteBuffers is one write.
type countedBuffersConn struct {
	countedConn
	bw buffersWriter
}

func (c countedBuffersConn) WriteBuffers(bufs [][]byte) (int, error) {
	c.writes.Add(1)
	n, err := c.bw.WriteBuffers(bufs)
	c.bytes.Add(int64(n))
	return n, err
}

// TestLinkWriteCoalescesUntilIdle pins what the link's flush promises on
// every fabric and either way a connection takes it (as buffers, or joined
// into one Write): batches drained while the writer is busy share a
// connection write, a lone message costs exactly one, and bytes_sent is what
// reached the connection (the dialer's Hello aside, which the ledger leaves
// out).
func TestLinkWriteCoalescesUntilIdle(t *testing.T) {
	fabrics := []struct {
		name      string
		mk        func() emunet.Network
		writeOnly bool // hide the connection's WriteBuffers from the link
		takesBufs bool // the fabric's connection takes buffers
	}{
		{"mem", func() emunet.Network { return emunet.NewMemNetwork(nil) }, false, true},
		{"mem-write-only", func() emunet.Network { return emunet.NewMemNetwork(nil) }, true, true},
		{"tcp", func() emunet.Network { return emunet.NewTCPNetwork(nil) }, false, false},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			fabric := f.mk()
			var writes, sent atomic.Int64
			tapped := tapNet{fabric, func(from, to int, conn net.Conn) net.Conn {
				if from != 1 || to != 2 {
					return conn
				}
				c := countedConn{conn, &writes, &sent}
				bw, ok := conn.(buffersWriter)
				if ok != f.takesBufs {
					t.Errorf("the fabric's connection takes buffers: %v, want %v", ok, f.takesBufs)
				}
				if ok && !f.writeOnly {
					return countedBuffersConn{c, bw}
				}
				return c
			}}
			// One entry per batch: a burst appended before the wake-up is
			// k passes of a busy writer, not one.
			h := startHarnessOn(t, tapped, 2, noHeartbeat, batchLimits{maxFrames: 1, maxBytes: 16 << 10})
			parkLinks(t, h, 1)
			delivered := func(n int) func() bool {
				return func() bool { return len(h.recs[1].dataSeqs(1)) == n }
			}

			before := writes.Load()
			if _, err := h.logs[0].Append([]byte("lone"), 0); err != nil {
				t.Fatal(err)
			}
			h.trs[0].NotifyData()
			waitUntil(t, 5*time.Second, delivered(1))
			if got := writes.Load() - before; got != 1 {
				t.Fatalf("a lone message reached the connection in %d writes, want 1", got)
			}

			const k = 32
			before = writes.Load()
			for i := 0; i < k; i++ {
				if _, err := h.logs[0].Append(make([]byte, 100), 0); err != nil {
					t.Fatal(err)
				}
			}
			h.trs[0].NotifyData()
			waitUntil(t, 5*time.Second, delivered(1+k))
			if got := writes.Load() - before; got >= k {
				t.Fatalf("%d one-entry batches reached the connection in %d writes, want fewer", k, got)
			}

			// Everything written has been delivered and nothing else wakes
			// the link, so both counts are final.
			hello := int64(len(wire.AppendFrame(nil, &wire.Hello{From: 1})))
			if got, want := sent.Load(), h.trs[0].peers[2].bytesSent.Value()+hello; got != want {
				t.Fatalf("connection saw %d bytes, bytes_sent plus the Hello is %d", got, want)
			}
		})
	}
}

// tappedConn copies what is written to and read from the connection it wraps.
type tappedConn struct {
	net.Conn
	mu            *sync.Mutex
	written, read *bytes.Buffer
}

func (c tappedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.written.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// tappedBuffersConn is a tappedConn around a connection that takes buffers,
// and passes them on.
type tappedBuffersConn struct {
	tappedConn
	bw buffersWriter
}

func (c tappedBuffersConn) WriteBuffers(bufs [][]byte) (int, error) {
	n, err := c.bw.WriteBuffers(bufs)
	c.mu.Lock()
	for left, i := n, 0; left > 0; i++ {
		k := min(left, len(bufs[i]))
		c.written.Write(bufs[i][:k])
		left -= k
	}
	c.mu.Unlock()
	return n, err
}

// tap wraps conn in a tappedConn, or in a tappedBuffersConn if it takes
// buffers.
func tap(conn net.Conn, mu *sync.Mutex, written, read *bytes.Buffer) net.Conn {
	c := tappedConn{conn, mu, written, read}
	if bw, ok := conn.(buffersWriter); ok {
		return tappedBuffersConn{c, bw}
	}
	return c
}

// cutConn fails the write that would take the connection past *budget more
// bytes, after passing the bytes that fit: a connection dying inside a pass.
// A negative budget leaves it alone.
type cutConn struct {
	net.Conn
	budget *atomic.Int64
}

func (c cutConn) Write(p []byte) (int, error) {
	left := c.budget.Load()
	if left < 0 {
		return c.Conn.Write(p)
	}
	if int64(len(p)) <= left {
		c.budget.Add(-int64(len(p)))
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:left])
	_ = c.Conn.Close()
	return n, errors.New("cutConn: injected write failure")
}

// TestReconnectStartsOnAFrameBoundary kills a connection in the middle of a
// pass's write and reads what the link puts on its successor: whole frames
// only, data from the LastSeq+1 the peer's HelloAck named, and every report
// on the board again. Bytes encoded for the dead connection (the rest of the
// failed write sits in the link's buffer) must not cross over.
func TestReconnectStartsOnAFrameBoundary(t *testing.T) {
	fabric := emunet.NewMemNetwork(nil)
	var (
		dials  atomic.Int64
		budget atomic.Int64
		mu     sync.Mutex
		wrote  bytes.Buffer
		read   bytes.Buffer
	)
	budget.Store(-1)
	tapped := tapNet{fabric, func(from, to int, conn net.Conn) net.Conn {
		if from != 1 || to != 2 {
			return conn
		}
		if dials.Add(1) == 1 {
			return cutConn{conn, &budget}
		}
		return tap(conn, &mu, &wrote, &read)
	}}
	h := startHarnessOn(t, tapped, 2, noHeartbeat, batchLimits{})
	parkLinks(t, h, 1)
	rec := h.recs[1]

	// Two reports the first connection carries, so the second has a board to
	// resend.
	board := []wire.Ack{{Origin: 2, By: 1, Type: 1, Seq: 7}, {Origin: 2, By: 1, Type: 2, Seq: 9}}
	for _, a := range board {
		h.trs[0].QueueAck(a)
	}
	waitUntil(t, 5*time.Second, func() bool { return rec.maxAck(2, 1, 1) == 7 && rec.maxAck(2, 1, 2) == 9 })

	// One pass of fifty 121-byte frames in one write; the connection dies
	// sixty bytes into the eleventh.
	const msgs, payloadLen = 50, 100
	for i := 0; i < msgs; i++ {
		if _, err := h.logs[0].Append(make([]byte, payloadLen), 0); err != nil {
			t.Fatal(err)
		}
	}
	budget.Store(10*(wire.DataFrameOverhead+payloadLen) + 60)
	h.trs[0].NotifyData()
	ackCount := func() int {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return len(rec.acks)
	}
	waitUntil(t, 10*time.Second, func() bool {
		return len(rec.dataSeqs(1)) == msgs && ackCount() >= 2*len(board)
	})
	for i, s := range rec.dataSeqs(1) {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d is seq %d: gap or duplicate across the reconnect", i, s)
		}
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("link dialed %d times, want 2", n)
	}

	mu.Lock()
	out, in := append([]byte(nil), wrote.Bytes()...), append([]byte(nil), read.Bytes()...)
	mu.Unlock()
	first, err := wire.NewReader(bytes.NewReader(in)).Next()
	if err != nil {
		t.Fatalf("successor's first frame in: %v", err)
	}
	helloAck, ok := first.(*wire.HelloAck)
	if !ok {
		t.Fatalf("successor's first frame in is %T, want *wire.HelloAck", first)
	}
	t.Logf("peer held %d of %d when the link came back", helloAck.LastSeq, msgs)

	r := wire.NewReader(bytes.NewReader(out))
	if m, err := r.Next(); err != nil {
		t.Fatalf("successor's first frame out: %v", err)
	} else if _, ok := m.(*wire.Hello); !ok {
		t.Fatalf("successor's first frame out is %T, want *wire.Hello", m)
	}
	next := helloAck.LastSeq + 1
	resent := make(map[wire.Ack]bool)
	for {
		m, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("successor's bytes do not end on a frame boundary: %v", err)
		}
		switch m := m.(type) {
		case *wire.Data:
			if m.Seq != next {
				t.Fatalf("successor carries seq %d where %d was due (LastSeq %d)", m.Seq, next, helloAck.LastSeq)
			}
			next++
		case *wire.Ack:
			resent[*m] = true
		default:
			t.Fatalf("successor carries an unexpected %T", m)
		}
	}
	if next != msgs+1 {
		t.Fatalf("successor's data ends at seq %d, want %d", next-1, msgs)
	}
	for _, a := range board {
		if !resent[a] {
			t.Fatalf("report %+v was not resent on the successor (carried: %v)", a, resent)
		}
	}
}

// TestLinkWriteFramesSurviveOutGrowing gives every pass of a flush window an
// app frame behind its one-entry data batch, each larger than the last, so the
// link's control buffer reallocates while the flush it is gathering still
// holds sub-slices of its earlier arrays beside the log's frames. The bytes
// that reach the connection must decode to every frame, intact and in order.
func TestLinkWriteFramesSurviveOutGrowing(t *testing.T) {
	const msgs, apps = 2000, 400
	body := func(i, n int) []byte {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		return p
	}
	// With every entry sampled, the link reads the data-path clock once per
	// pass, between draining its batch and encoding control: the hook queues
	// the next app frame there, so it rides that pass.
	var tr1 *Transport
	var queued atomic.Int64
	origNow := nowNano
	nowNano = func() int64 {
		if i := queued.Add(1) - 1; i < apps {
			if err := tr1.SendApp(2, &wire.App{ID: uint64(i), From: 1, Payload: body(int(i), 16+8*int(i))}); err != nil {
				t.Error(err)
			}
		}
		return origNow()
	}
	defer func() { nowNano = origNow }()

	fabric := emunet.NewMemNetwork(nil)
	defer fabric.Close()
	var (
		mu          sync.Mutex
		wrote, read bytes.Buffer
	)
	tapped := tapNet{fabric, func(from, to int, conn net.Conn) net.Conn {
		if from != 1 || to != 2 {
			return conn
		}
		c := tap(conn, &mu, &wrote, &read)
		if _, ok := c.(buffersWriter); !ok {
			t.Error("the memory fabric's connection does not take buffers")
		}
		return c
	}}
	log, rec := NewSendLog(1), newRecorder()
	var err error
	tr1, err = New(Config{
		Self: 1, N: 2, Network: tapped, Handler: newRecorder(), Log: log,
		HeartbeatEvery: noHeartbeat,
		Trace:          optrace.New(1, optrace.Config{SampleEvery: 1}),
		batch:          batchLimits{maxFrames: 1, maxBytes: 16 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := New(Config{Self: 2, N: 2, Network: tapped, Handler: rec, Log: NewSendLog(1), HeartbeatEvery: noHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Transport{tr1, tr2} {
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
	}
	for i := 0; i < msgs; i++ {
		if _, err := log.Append(body(i, 100), 0); err != nil {
			t.Fatal(err)
		}
	}
	tr1.NotifyData()
	waitUntil(t, 10*time.Second, func() bool {
		return len(rec.dataSeqs(1)) == msgs && rec.appCount() == apps
	})

	mu.Lock()
	out := append([]byte(nil), wrote.Bytes()...)
	mu.Unlock()
	r := wire.NewReader(bytes.NewReader(out))
	if m, err := r.Next(); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.Hello); !ok {
		t.Fatalf("first frame is %T, want *wire.Hello", m)
	}
	var data, app int
	for {
		m, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d data and %d app frames: %v", data, app, err)
		}
		switch m := m.(type) {
		case *wire.Data:
			if m.Seq != uint64(data+1) || !bytes.Equal(m.Payload, body(data, 100)) {
				t.Fatalf("data frame %d arrived as seq %d with a payload that is not its own", data, m.Seq)
			}
			data++
		case *wire.App:
			if m.ID != uint64(app) || !bytes.Equal(m.Payload, body(app, 16+8*app)) {
				t.Fatalf("app frame %d arrived as ID %d with a payload that is not its own", app, m.ID)
			}
			app++
		default:
			t.Fatalf("unexpected %T on the connection", m)
		}
	}
	if data != msgs || app != apps {
		t.Fatalf("connection carried %d data and %d app frames, want %d and %d", data, app, msgs, apps)
	}
}

// TestLinkControlFramesSurviveASlowReader has a peer that reads nothing while
// the link flushes pass after pass of reports, app frames and heartbeats: the
// memory fabric borrows each flush, so the bytes of one pass are still
// queued, unread, while the link encodes the next. Once the peer does read,
// its stream must decode to every frame, intact and in order.
func TestLinkControlFramesSurviveASlowReader(t *testing.T) {
	const rounds = 6
	body := func(i int) []byte {
		p := make([]byte, 16+40*i)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		return p
	}
	fabric := emunet.NewMemNetwork(nil)
	defer fabric.Close()
	var writes, wrote atomic.Int64
	tapped := tapNet{fabric, func(from, to int, conn net.Conn) net.Conn {
		bw, ok := conn.(buffersWriter)
		if !ok {
			t.Error("the memory fabric's connection does not take buffers")
		}
		return countedBuffersConn{countedConn{conn, &writes, &wrote}, bw}
	}}
	// Node 2 is this test: it answers the handshake and then reads nothing.
	l, err := fabric.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	tr, err := New(Config{Self: 1, N: 2, Network: tapped, Handler: newRecorder(), Log: NewSendLog(1), HeartbeatEvery: noHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	peer := <-accepted
	defer peer.Close()
	hello := wire.AppendFrame(nil, &wire.Hello{From: 1})
	if _, err := io.ReadFull(peer, make([]byte, len(hello))); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Write(wire.AppendFrame(nil, &wire.HelloAck{From: 2})); err != nil {
		t.Fatal(err)
	}

	// Each round is flushed whole before the next is queued.
	want := int64(len(hello))
	for i := 0; i < rounds; i++ {
		ack := wire.Ack{Origin: 2, By: 1, Type: 1, Seq: uint64(i + 1)}
		app := wire.App{ID: uint64(i), From: 1, Payload: body(i)}
		hb := wire.Heartbeat{Clock: uint64(i + 1)}
		tr.QueueAck(ack)
		if err := tr.SendApp(2, &app); err != nil {
			t.Fatal(err)
		}
		tr.links[2].queueHeartbeat(hb.Clock)
		want += int64(len(wire.AppendFrame(nil, &ack)) + len(wire.AppendFrame(nil, &app)) + len(wire.AppendFrame(nil, &hb)))
		waitUntil(t, 5*time.Second, func() bool { return wrote.Load() == want })
	}
	if n := writes.Load(); n < 1+3 {
		t.Fatalf("the link flushed %d times after the Hello, want at least 3", n-1)
	}

	got := make([]byte, want-int64(len(hello)))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bytes.NewReader(got))
	var acks, apps, hbs int
	for round := 0; ; {
		m, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d reports, %d app frames and %d heartbeats: %v", acks, apps, hbs, err)
		}
		var seq int // the round this frame was queued in
		switch m := m.(type) {
		case *wire.Ack:
			if m.Seq != uint64(acks+1) || m.Origin != 2 || m.By != 1 || m.Type != 1 {
				t.Fatalf("report %d arrived as %+v", acks, *m)
			}
			seq, acks = acks, acks+1
		case *wire.App:
			if m.ID != uint64(apps) || !bytes.Equal(m.Payload, body(apps)) {
				t.Fatalf("app frame %d arrived as ID %d with a payload that is not its own", apps, m.ID)
			}
			seq, apps = apps, apps+1
		case *wire.Heartbeat:
			if m.Clock != uint64(hbs+1) {
				t.Fatalf("heartbeat %d arrived with clock %d", hbs, m.Clock)
			}
			seq, hbs = hbs, hbs+1
		default:
			t.Fatalf("unexpected %T on the connection", m)
		}
		if seq < round {
			t.Fatalf("a frame of round %d arrived after one of round %d", seq, round)
		}
		round = seq
	}
	if acks != rounds || apps != rounds || hbs != rounds {
		t.Fatalf("the peer read %d reports, %d app frames and %d heartbeats, want %d each", acks, apps, hbs, rounds)
	}
}
