package transport

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/optrace"
	"stabilizer/internal/wire"
)

// tryTap counts what node 1's link to node 2 hands its connection: flushes
// by WriteBuffers, which only the writer makes, and try-writes, which only a
// borrowing Send makes, taken and refused. Unlike frameTap it forwards the
// try-write, so Sends can still borrow the stream through it.
type tryTap struct {
	writes, taken, refused atomic.Int64
}

type tryTapConn struct {
	net.Conn
	tap *tryTap
}

func (c tryTapConn) WriteBuffers(bufs [][]byte) (int, error) {
	c.tap.writes.Add(1)
	return c.Conn.(buffersWriter).WriteBuffers(bufs)
}

// TryWriteBuffers counts the try-writes that carry bytes: the link's
// empty one at the start of each stream only asks whether the connection
// takes any.
func (c tryTapConn) TryWriteBuffers(bufs [][]byte) bool {
	ok := c.Conn.(tryWriter).TryWriteBuffers(bufs)
	if len(bufs) == 0 {
		return ok
	}
	if ok {
		c.tap.taken.Add(1)
	} else {
		c.tap.refused.Add(1)
	}
	return ok
}

// tapTries puts a tryTap on fabric's 1→2 dials.
func tapTries(fabric emunet.Network) (emunet.Network, *tryTap) {
	tap := &tryTap{}
	return tapNet{fabric, func(from, to int, conn net.Conn) net.Conn {
		if from == 1 && to == 2 {
			return tryTapConn{conn, tap}
		}
		return conn
	}}, tap
}

// poll waits for cond, looking every 20 µs: these tests wait for one frame
// at a time, hundreds of times.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// lending waits until lk's writer has parked with its stream lent out.
func lending(t *testing.T, lk *link) {
	t.Helper()
	poll(t, "the writer to park lending", func() bool { return lk.state.Load() == streamParked })
}

// sendReturns appends payload to log and hands it to tr on another
// goroutine, and fails the test unless NotifyData returns: whatever the
// connection cannot take now is the writer's to wait for, never the Send's.
func sendReturns(t *testing.T, tr *Transport, log *SendLog, payload []byte) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := log.Append(payload, 0); err != nil {
			t.Error(err)
		}
		tr.NotifyData()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("NotifyData blocked the Send")
	}
}

// inOrder fails the test unless seqs is 1..n, each once.
func inOrder(t *testing.T, seqs []uint64, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("the handler got %d data frames, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("the handler's frame %d is seq %d, want %d (got %v)", i, s, i+1, seqs)
		}
	}
}

// A lone Send whose predecessors the peer has all reported goes out on the
// Send's own goroutine: its frame is in the connection by the time NotifyData
// returns, and the writer makes no pass. The test holds the writer's mutex
// throughout, so a writer woken for the frame would take its stream back and
// block in its first check, and could write nothing.
func TestLoneSendGoesOutOnTheSendersGoroutine(t *testing.T) {
	fabric := emunet.NewMemNetwork(nil)
	tapped, tap := tapTries(fabric)
	h, _ := startReporters(t, tapped, 2)
	parkLinks(t, h, 1)
	lk := h.trs[0].links[2]
	lending(t, lk)
	writes := tap.writes.Load()

	lk.mu.Lock()
	defer lk.mu.Unlock()
	for i := uint64(1); i <= 3; i++ {
		if _, err := h.logs[0].Append([]byte("lone"), 0); err != nil {
			t.Fatal(err)
		}
		h.trs[0].NotifyData()
		if got := tap.taken.Load(); got != int64(i) {
			t.Fatalf("message %d: %d try-writes taken when NotifyData returned, want %d", i, got, i)
		}
		poll(t, "the message", func() bool { return len(h.recs[1].dataSeqs(1)) == int(i) })
		// Its report, written back on the connection, lets the next one
		// borrow too.
		poll(t, "the message's report", func() bool { return h.recs[0].maxAck(1, 2, 1) == i })
	}
	if got := lk.state.Load(); got != streamParked || tap.writes.Load() != writes || tap.refused.Load() != 0 {
		t.Fatalf("the writer ran: stream state %d, %d flushes and %d refused try-writes since it parked",
			got, tap.writes.Load()-writes, tap.refused.Load())
	}
	inOrder(t, h.recs[1].dataSeqs(1), 3)
}

// A Send that cannot borrow the stream wakes the writer, which writes the
// frame, and returns at once whatever holds the connection: when the peer
// has not reported the message before, on a shaped direction (whose writer
// never lends, as it refuses the stream's first, empty try-write), at the
// direction's 1 MiB bound, and under a faultinject blackhole.
func TestSendWakesTheWriterWhenItCannotBorrow(t *testing.T) {
	t.Run("unreported-predecessor", func(t *testing.T) {
		fabric := emunet.NewMemNetwork(nil)
		tapped, tap := tapTries(fabric)
		h := startHarnessOn(t, tapped, 2, noHeartbeat, batchLimits{}) // no handler reports
		parkLinks(t, h, 1)
		lk := h.trs[0].links[2]
		for i := 1; i <= 2; i++ {
			lending(t, lk)
			sendReturns(t, h.trs[0], h.logs[0], []byte("lone"))
			poll(t, "the message", func() bool { return len(h.recs[1].dataSeqs(1)) == i })
		}
		// The first had no predecessor; the second's was never reported.
		if tap.taken.Load() != 1 || tap.refused.Load() != 0 {
			t.Fatalf("try-writes: %d taken, %d refused; want the first message's alone", tap.taken.Load(), tap.refused.Load())
		}
		inOrder(t, h.recs[1].dataSeqs(1), 2)
	})

	t.Run("shaped", func(t *testing.T) {
		m := emunet.NewMatrix()
		m.Default = emunet.Link{OneWayLatency: 2 * time.Millisecond}
		fabric := emunet.NewMemNetwork(m)
		tapped, tap := tapTries(fabric)
		h, _ := startReporters(t, tapped, 2)
		parkLinks(t, h, 1)
		lk := h.trs[0].links[2]
		writes := tap.writes.Load()
		sendReturns(t, h.trs[0], h.logs[0], []byte("lone"))
		poll(t, "the message", func() bool { return len(h.recs[1].dataSeqs(1)) == 1 })
		if tap.taken.Load() != 0 || tap.refused.Load() != 0 || tap.writes.Load() != writes+1 || lk.tw != nil {
			t.Fatalf("try-writes %d taken, %d refused, %d flushes; want the writer's flush alone, on a stream never lent",
				tap.taken.Load(), tap.refused.Load(), tap.writes.Load()-writes)
		}
	})

	t.Run("at-the-bound", func(t *testing.T) {
		// Node 2 is the test: it handshakes, reports, and reads nothing
		// until the end.
		fabric := emunet.NewMemNetwork(nil)
		tapped, tap := tapTries(fabric)
		ln, err := fabric.Listen(2)
		if err != nil {
			t.Fatal(err)
		}
		log := NewSendLog(1)
		tr, err := New(Config{Self: 1, N: 2, Network: tapped, Handler: newRecorder(), Log: log, HeartbeatEvery: noHeartbeat})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = tr.Close()
			_ = fabric.Close()
		})
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(conn)
		if msg, err := r.Next(); err != nil {
			t.Fatal(err)
		} else if _, ok := msg.(*wire.Hello); !ok {
			t.Fatalf("first frame %T, want a Hello", msg)
		}
		if _, err := conn.Write(wire.AppendFrame(nil, &wire.HelloAck{From: 2})); err != nil {
			t.Fatal(err)
		}
		lk := tr.links[2]
		lending(t, lk)

		// The memory fabric holds 1 MiB a direction: this frame leaves
		// less room than the next one needs.
		const bound = 1 << 20
		sendReturns(t, tr, log, make([]byte, bound-200))
		if tap.taken.Load() != 1 {
			t.Fatalf("%d try-writes taken, want the big frame's", tap.taken.Load())
		}
		if _, err := conn.Write(wire.AppendFrame(nil, &wire.Ack{Origin: 1, By: 2, Type: 1, Seq: 1})); err != nil {
			t.Fatal(err)
		}
		poll(t, "the report to reach the link", func() bool { return lk.acked.Load() == 1 })
		sendReturns(t, tr, log, make([]byte, 400))
		if tap.refused.Load() != 1 {
			t.Fatalf("%d try-writes refused, want the second frame's", tap.refused.Load())
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		for want := uint64(1); want <= 2; {
			msg, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if d, ok := msg.(*wire.Data); ok {
				if d.Seq != want {
					t.Fatalf("read seq %d, want %d", d.Seq, want)
				}
				want++
			}
		}
	})

	t.Run("blackhole", func(t *testing.T) {
		fabric := emunet.NewMemNetwork(nil)
		inj := faultinject.New(fabric, nil)
		tapped, tap := tapTries(fabric)
		h, _ := startReporters(t, tapped, 2)
		parkLinks(t, h, 1)
		lending(t, h.trs[0].links[2])
		inj.Blackhole(1, 2)
		sendReturns(t, h.trs[0], h.logs[0], []byte("lone"))
		if tap.taken.Load() != 0 || tap.refused.Load() != 1 {
			t.Fatalf("try-writes %d taken, %d refused; want one refused", tap.taken.Load(), tap.refused.Load())
		}
		inj.HealBlackhole(1, 2)
		poll(t, "the message", func() bool { return len(h.recs[1].dataSeqs(1)) == 1 })
	})
}

// Lone Sends, each once the last one's report is back, race the writer's
// other work: reports about node 2 queued on the link all the time and a
// heartbeat every millisecond, so some go out borrowed and some are carried
// by a writer that was woken meanwhile. Each frame crosses the wire once (the
// receiver reads as many data frames as were sent and the sender counts no
// resend) and the handler gets them in order.
func TestBorrowedSendsRaceTheWritersWork(t *testing.T) {
	const msgs = 200
	h, _ := startReportersEvery(t, emunet.NewMemNetwork(nil), 2, time.Millisecond)
	n1 := h.trs[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			n1.QueueAck(wire.Ack{Origin: 2, By: 1, Type: 3, Seq: seq})
			runtime.Gosched()
		}
	}()
	for i := uint64(1); i <= msgs; i++ {
		if _, err := h.logs[0].Append([]byte("lone"), 0); err != nil {
			t.Fatal(err)
		}
		n1.NotifyData()
		poll(t, "the message's report", func() bool { return h.recs[0].maxAck(1, 2, 1) >= i })
	}
	close(stop)
	wg.Wait()
	inOrder(t, h.recs[1].dataSeqs(1), msgs)
	if got := h.trs[1].peers[1].dataRecv.Value(); got != msgs {
		t.Fatalf("node 2 read %d data frames for %d messages", got, msgs)
	}
	if got := n1.peers[2].resent.Value(); got != 0 {
		t.Fatalf("node 1 resent %d frames with no reconnect", got)
	}
}

// Lone Sends race severs of their connection and then their transport's
// Close. No Send blocks, the handler gets every frame once and in order
// across the reconnects' resends, and Close returns while Sends go on.
func TestBorrowedSendsRaceSeverAndClose(t *testing.T) {
	const msgs = 200
	fabric := emunet.NewMemNetwork(nil)
	inj := faultinject.New(fabric, nil)
	h, _ := startReportersEvery(t, fabric, 2, time.Millisecond)
	n1 := h.trs[0]
	for i := uint64(1); i <= msgs; i++ {
		if i%25 == 0 {
			inj.Sever(1, 2)
		}
		sendReturns(t, n1, h.logs[0], []byte("lone"))
		// Wait a little for the report, so that most Sends find their
		// predecessor reported, but do not depend on it: a sever loses
		// the reports written back on its connection.
		for deadline := time.Now().Add(2 * time.Millisecond); h.recs[0].maxAck(1, 2, 1) < i && time.Now().Before(deadline); {
			time.Sleep(20 * time.Microsecond)
		}
	}
	poll(t, "every message", func() bool { return len(h.recs[1].dataSeqs(1)) >= msgs })
	inOrder(t, h.recs[1].dataSeqs(1), msgs)

	sending := make(chan struct{})
	go func() {
		defer close(sending)
		for i := 0; i < 200; i++ {
			if _, err := h.logs[0].Append([]byte("late"), 0); err != nil {
				t.Error(err)
				return
			}
			n1.NotifyData()
			runtime.Gosched()
		}
	}()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		_ = n1.Close()
	}()
	for _, ch := range []chan struct{}{closed, sending} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("a Send racing Close, or Close, did not return")
		}
	}
	seqs := h.recs[1].dataSeqs(1)
	inOrder(t, seqs, len(seqs))
}

// A borrowed write stamps a traced message's two transport stages as the
// writer's pass does: with every message sampled, each lone message sent adds
// one batch_queue and one wire_send observation.
func TestBorrowedWritesStampTheirStages(t *testing.T) {
	const msgs = 20
	tr1, tap := loneMessages(t, optrace.Config{SampleEvery: 1}, msgs)
	if tap.taken.Load() == 0 {
		t.Fatal("no message went out borrowed")
	}
	if q, w := tr1.stageBatchQueue.Count(), tr1.stageWireSend.Count(); q != msgs || w != msgs {
		t.Fatalf("%d batch_queue and %d wire_send observations for %d messages (%d borrowed), want %d each",
			q, w, msgs, tap.taken.Load(), msgs)
	}
}
