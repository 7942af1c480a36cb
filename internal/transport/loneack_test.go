package transport

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/wire"
)

// reporter is a recorder that, as core's handler does, reports each run it
// is handed from inside the upcall: type 1 up to the run's last sequence,
// to the run's origin. hook, if set, runs last in the upcall.
type reporter struct {
	*recorder
	self int
	tr   atomic.Pointer[Transport]
	hook func(from int, last uint64)

	runMu sync.Mutex
	runs  []int // frames per run, in arrival order
}

func (r *reporter) HandleDataRun(from int, run []wire.Data) {
	for i := range run {
		r.recorder.HandleData(from, &run[i])
	}
	r.runMu.Lock()
	r.runs = append(r.runs, len(run))
	r.runMu.Unlock()
	last := run[len(run)-1].Seq
	r.tr.Load().QueueAck(wire.Ack{Origin: uint16(from), By: uint16(r.self), Type: 1, Seq: last})
	if r.hook != nil {
		r.hook(from, last)
	}
}

func (r *reporter) runLens() []int {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	return append([]int(nil), r.runs...)
}

// startReporters is startHarnessOn with a reporter as every node's handler
// and no heartbeat.
func startReporters(t *testing.T, fabric emunet.Network, n int) (*harness, []*reporter) {
	t.Helper()
	return startReportersEvery(t, fabric, n, noHeartbeat)
}

// startReportersEvery is startReporters with a chosen heartbeat period.
func startReportersEvery(t *testing.T, fabric emunet.Network, n int, heartbeat time.Duration) (*harness, []*reporter) {
	t.Helper()
	h := &harness{net: fabric}
	var reps []*reporter
	for i := 1; i <= n; i++ {
		rep := &reporter{recorder: newRecorder(), self: i}
		log := NewSendLog(1)
		tr, err := New(Config{Self: i, N: n, Network: fabric, Handler: rep, Log: log, HeartbeatEvery: heartbeat})
		if err != nil {
			t.Fatal(err)
		}
		rep.tr.Store(tr)
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		h.trs = append(h.trs, tr)
		h.recs = append(h.recs, rep.recorder)
		h.logs = append(h.logs, log)
		reps = append(reps, rep)
	}
	t.Cleanup(func() {
		for _, tr := range h.trs {
			_ = tr.Close()
		}
		_ = fabric.Close()
	})
	return h, reps
}

// frameTap records what one dialed connection carries: each Write the dialer
// makes, and the bytes its reads return (what the accepting side writes back).
// It hides the connection's WriteBuffers, so each flush of a link is one Write.
type frameTap struct {
	mu     sync.Mutex
	writes [][]byte
	read   []byte
}

type tapConn struct {
	net.Conn
	tap *frameTap
}

func (c tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tap.mu.Lock()
	c.tap.writes = append(c.tap.writes, append([]byte(nil), p[:n]...))
	c.tap.mu.Unlock()
	return n, err
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	c.tap.read = append(c.tap.read, p[:n]...)
	c.tap.mu.Unlock()
	return n, err
}

// tapLinks taps, on a two-node fabric, node 2's link to node 1 and node 1's
// link to node 2, whose reads carry what node 2 writes back to node 1.
func tapLinks(fabric emunet.Network) (tapped emunet.Network, link, reverse *frameTap) {
	link, reverse = &frameTap{}, &frameTap{}
	return tapNet{fabric, func(from, to int, conn net.Conn) net.Conn {
		switch {
		case from == 2 && to == 1:
			return tapConn{conn, link}
		case from == 1 && to == 2:
			return tapConn{conn, reverse}
		}
		return conn
	}}, link, reverse
}

// decode returns the Ack frames among the frames in b, and whether an App
// frame is among them too.
func decode(b []byte) (acks []wire.Ack, app bool) {
	r := wire.NewReader(bytes.NewReader(b))
	for {
		msg, err := r.Next()
		if err != nil {
			return acks, app
		}
		switch m := msg.(type) {
		case *wire.Ack:
			acks = append(acks, *m)
		case *wire.App:
			app = true
		}
	}
}

// writtenAcks is the Ack frames in the dialer's writes from the from-th on,
// and how many of those writes held one.
func (tp *frameTap) writtenAcks(from int) (frames []wire.Ack, writes int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for _, w := range tp.writes[from:] {
		if a, _ := decode(w); len(a) > 0 {
			frames = append(frames, a...)
			writes++
		}
	}
	return frames, writes
}

// lastWrite decodes the dialer's last write.
func (tp *frameTap) lastWrite() (acks []wire.Ack, app bool) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return decode(tp.writes[len(tp.writes)-1])
}

func (tp *frameTap) writeCount() int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return len(tp.writes)
}

// readAcks is the Ack frames the accepting side has written back so far.
func (tp *frameTap) readAcks() []wire.Ack {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	acks, _ := decode(tp.read)
	return acks
}

// echoBarrier has node 1 write a heartbeat to node 2 and waits for its echo.
// Node 2 echoes on the connection the heartbeat came in on, from the
// goroutine that writes reports back on it, so once the echo is in, so is
// everything written back before it.
func echoBarrier(t *testing.T, h *harness) {
	t.Helper()
	n1 := h.trs[0]
	echoes := n1.peers[2].hbRecv.Value()
	n1.links[2].queueHeartbeat(1)
	waitUntil(t, 5*time.Second, func() bool { return n1.peers[2].hbRecv.Value() > echoes })
}

// A lone message's report goes back to its origin on the connection the
// message came in on, and the receiver's link to the origin stays parked.
// The link still carries the report in the next write it makes, here for an
// app message, so the shortcut is never the only carrier: that write is the
// only one since the message with an ACK frame in it, so the link did not
// wake for the report.
func TestLoneRunReportsGoBackOnTheirConnection(t *testing.T) {
	fabric := emunet.NewMemNetwork(nil)
	tapped, link, reverse := tapLinks(fabric)
	h, _ := startReporters(t, tapped, 2)
	parkLinks(t, h, 1)
	parkLinks(t, h, 2)
	before := link.writeCount()

	if _, err := h.logs[0].Append([]byte("lone"), 0); err != nil {
		t.Fatal(err)
	}
	h.trs[0].NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return h.recs[0].maxAck(1, 2, 1) == 1 })
	echoBarrier(t, h)
	if got := reverse.readAcks(); len(got) != 1 || got[0] != (wire.Ack{Origin: 1, By: 2, Type: 1, Seq: 1}) {
		t.Fatalf("written back on the origin's connection: %v, want the one report", got)
	}

	if err := h.trs[1].SendApp(1, &wire.App{ID: 2, From: 2}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return h.recs[0].appCount() == 2 })
	got, writes := link.writtenAcks(before)
	last, app := link.lastWrite()
	if len(got) != 1 || got[0].Seq != 1 || writes != 1 || len(last) != 1 || !app {
		t.Fatalf("node 2's link wrote reports %v in %d write(s) since the message, %v with the app message; want the one report, in the app message's write",
			got, writes, last)
	}
}

// A run of several frames keeps the link's path: its report goes to the
// origin in one write of the receiver's link and nothing is written back on
// the run's own connection.
func TestStreamRunReportsRideTheLink(t *testing.T) {
	const k = 8
	fabric := emunet.NewMemNetwork(nil)
	tapped, link, reverse := tapLinks(fabric)
	h, reps := startReporters(t, tapped, 2)
	parkLinks(t, h, 1)
	parkLinks(t, h, 2)
	before := link.writeCount()

	for i := 0; i < k; i++ {
		if _, err := h.logs[0].Append([]byte("stream"), 0); err != nil {
			t.Fatal(err)
		}
	}
	h.trs[0].NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return h.recs[0].maxAck(1, 2, 1) == k })
	if runs := reps[1].runLens(); len(runs) != 1 || runs[0] != k {
		t.Fatalf("node 2 applied runs of %v frames, want one of %d", runs, k)
	}
	echoBarrier(t, h)
	if got := reverse.readAcks(); len(got) != 0 {
		t.Fatalf("a run of %d frames had %v written back on its connection", k, got)
	}
	// An app message's write is the link's last: every report it wrote
	// before is in by the time the app message is.
	if err := h.trs[1].SendApp(1, &wire.App{ID: 2, From: 2}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return h.recs[0].appCount() == 2 })
	got, writes := link.writtenAcks(before)
	if len(got) != 1 || got[0].Seq != k || writes != 1 {
		t.Fatalf("node 2's link wrote reports %v in %d write(s), want the one report in one", got, writes)
	}
}

// Other goroutines raise reports about origin 1 while its lone messages are
// being applied at node 2: some during the upcall, and the round's highest
// from a goroutine that spins until the upcall's last statement, so it lands
// as the reader takes the lone-run mark down and reads the board. No
// heartbeat papers over a lost report: each round's highest must reach
// origin 1 on the write-back or on a wake of node 2's link. A raise that
// lands while the mark is up wakes nothing, so the write-back must read the
// board after the mark is down.
func TestLoneRunReportsNeverLoseTheWakeup(t *testing.T) {
	var sink atomic.Uint64
	spin := func(n int) { // n atomic reads; none if n ≤ 0
		for ; n > 0; n-- {
			_ = sink.Load()
		}
	}
	const writers, rounds = 3, 600
	h, reps := startReporters(t, emunet.NewMemNetwork(nil), 2)
	parkLinks(t, h, 1)
	parkLinks(t, h, 2)
	n2 := h.trs[1]

	var (
		round, ready, released atomic.Uint64
		spinners               sync.WaitGroup
	)
	raise := func(from int, r, w uint64) {
		n2.QueueAck(wire.Ack{Origin: uint16(from), By: 2, Type: 2, Seq: (r-1)*writers + w})
	}
	reps[1].hook = func(from int, _ uint64) {
		r := round.Load()
		// The spinner's raise lands off the upcall's return by an offset
		// that sweeps -60 to +60 atomic reads across the rounds: before it,
		// the hook waits after letting the spinner go; after it, the
		// spinner waits. Some raise so lands between any two steps of the
		// reader's. The spinner is running before the hook goes on, so
		// no goroutine start stands between the release and the raise.
		off := int(r%41) - 20
		spinners.Add(1)
		go func() {
			defer spinners.Done()
			ready.Store(r)
			for i := 1; released.Load() < r; i++ {
				if i%64 == 0 { // one P: let the reader finish the upcall
					runtime.Gosched()
				}
			}
			spin(3 * off)
			raise(from, r, writers)
		}()
		for ready.Load() < r {
			runtime.Gosched()
		}
		var early sync.WaitGroup
		for w := uint64(1); w < writers; w++ {
			early.Add(1)
			go func() {
				defer early.Done()
				raise(from, r, w)
			}()
		}
		early.Wait()
		released.Store(r)
		spin(-3 * off)
	}
	for r := uint64(1); r <= rounds; r++ {
		round.Store(r)
		if _, err := h.logs[0].Append([]byte("lone"), 0); err != nil {
			t.Fatal(err)
		}
		h.trs[0].NotifyData()
		// The poll's sleep also lets each round's goroutines settle before
		// the next message: a waiter woken by the report itself starts the
		// next round while they still run, and catches a wrong order in
		// far fewer runs.
		want := r * writers
		deadline := time.Now().Add(5 * time.Second)
		for h.recs[0].maxAck(1, 2, 2) != want {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: origin holds %d, want %d: a report raised during a lone run was lost",
					r, h.recs[0].maxAck(1, 2, 2), want)
			}
			time.Sleep(20 * time.Microsecond)
		}
		spinners.Wait()
	}
}
