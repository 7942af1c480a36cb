package transport

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/optrace"
	"stabilizer/internal/wire"
)

// maxAppQueue bounds pending application messages per link.
const maxAppQueue = 4096

// ErrAppQueueFull is returned when a link's application-message queue is
// saturated.
var ErrAppQueueFull = errors.New("transport: app queue full")

// dialTimeout bounds each connect attempt, handshake included, so a
// black-holed peer cannot hang a link's run loop.
const dialTimeout = 2 * time.Second

// errDialTimeout is returned by a connect attempt that exceeded dialTimeout.
var errDialTimeout = errors.New("transport: dial timeout")

// Reconnect backoff bounds: the mean sleep doubles from the floor to the
// ceiling, with full jitter applied per attempt.
const (
	backoffFloor = 50 * time.Millisecond
	backoffCeil  = 2 * time.Second
)

// link is one outgoing connection toward a peer: it dials, handshakes,
// then multiplexes coalesced ACKs, app messages and the shared data stream
// over the connection, reconnecting with backoff on failure.
type link struct {
	t    *Transport
	peer int
	ins  *peerInstruments

	// bell is the writer's doorbell, capacity one, the shape the registry
	// drainer and the spiller park on too. One pending ring covers every
	// wake that lands before the writer takes it, so a burst of Sends (or
	// queued ACKs) costs one channel send per idle link, and a wake never
	// blocks or takes a lock.
	bell chan struct{}
	// state hands the stream between the writer and a Send that borrows it
	// (streamRunning and the rest; see borrow). Whoever holds the stream owns
	// maxDataSeq, batch, vec and traced below and cursor and tw further on:
	// the writer while it runs, a borrower while it is lent. It sits beside
	// bell because NotifyData reads both, for every link on every Send.
	state atomic.Int32

	// mu guards apps, hbDue, hbClock, closed and the hbSent pair.
	mu      sync.Mutex
	apps    []*wire.App
	hbDue   bool
	hbClock uint64
	closed  bool
	// hbSentClock/hbSentAt record the newest heartbeat written on the
	// current connection; the peer echoes it back on the same connection and
	// the reverse reader turns the match into an RTT sample.
	hbSentClock uint64
	hbSentAt    time.Time

	// maxDataSeq is the highest data sequence ever written on any
	// connection of this link; entries at or below it are resends.
	// Whoever holds the stream (see state) touches it.
	maxDataSeq uint64
	// batch is the reusable drain buffer for TryNextBatch. Whoever holds
	// the stream.
	batch []LogEntry
	// vec is the flush being gathered, in wire order: each data frame as the
	// log holds it (a visible frame is never written again, so it is handed
	// on by reference), and each pass's control frames as one sub-slice of
	// out, which holds only those and is never written again below its
	// length once handed over (see moveOut). joined backs the one Write a
	// connection that does not take buffers gets (see joinWriter). ackBuf
	// backs the ACK slice takeReports hands out. Run/stream goroutine only,
	// but vec, empty while the writer parks, is whoever holds the stream's.
	vec    [][]byte
	out    []byte
	joined []byte
	ackBuf []wire.Ack
	// sent[c*N+o] is the newest value of board column c about origin o+1
	// written on the current connection. scanned is the board version the
	// last scan of every origin read (a heartbeat pass), peerScanned the one
	// the last scan of the peer's cells read (every pass). Run/stream
	// goroutine only.
	sent        []uint64
	scanned     uint64
	peerScanned uint64
	// traced collects the sampled entries gathered into vec, so their
	// WireSend events can be stamped after the connection write returns.
	// Empty whenever tracing is off or nothing in vec was sampled, and
	// while the writer parks. Whoever holds the stream.
	traced []tracedSend
	// rng drives the reconnect backoff jitter. Seeded from the link's
	// identity so seeded chaos runs replay the same sleep sequence.
	// Run goroutine only.
	rng *rand.Rand

	// cursor is the next sequence the connection has not carried, published
	// by the writer as it parks and moved by each borrower that writes.
	cursor uint64
	// tw is the current connection's try-write, nil if it has none: a
	// writer without one never lends its stream.
	tw tryWriter
	// acked is the highest sequence of this node's stream that the peer has
	// reported anything about, on either connection (noteReport).
	acked atomic.Uint64
	// dead is the current connection's, set by its reverse reader when it
	// fails (see waitWork). Run goroutine only (the pointer).
	dead *atomic.Bool

	connMu sync.Mutex
	conn   net.Conn
}

func newLink(t *Transport, peer int) *link {
	return &link{
		t:    t,
		peer: peer,
		ins:  t.peers[peer],
		bell: make(chan struct{}, 1),
		rng:  rand.New(rand.NewSource(int64(t.cfg.Self)<<16 | int64(peer))),
	}
}

// wake rings the writer's doorbell without blocking: a full bell already
// means the writer will look again.
func (l *link) wake() {
	select {
	case l.bell <- struct{}{}:
	default:
	}
}

// The states of link.state. A writer parks lending its stream only after a
// pass whose data batch held at most one entry, and only on a connection with
// a try-write; a borrower takes it parked → lent and gives it back as parked,
// ringing the bell if the writer asked for it meanwhile (lent → wanted).
const (
	streamRunning int32 = iota // the writer holds it
	streamParked               // the writer waits on the bell; a Send may borrow it
	streamLent                 // a Send is writing on it
	streamWanted               // lent, and the writer waits on the bell for it back
)

// borrow writes the send log's new frames on the link's connection from the
// calling Send's goroutine instead of waking the writer, and reports whether
// it took the wake-up over; false leaves the ring to the caller. It borrows
// only a stream its writer parked lending, only while the peer has reported
// on every message before head (so nothing else is in flight to it and the
// connection is drained), and only if the connection takes the whole write
// now (tryWriter): two atomic loads decide, and a streaming producer, whose
// writer parks after bursts, never gets past the first. A refused write
// leaves the cursor where it was and rings, and so does a batch that left
// frames behind, so the writer carries what the borrower did not.
func (l *link) borrow(head uint64) bool {
	if l.state.Load() != streamParked || l.acked.Load()+1 < head ||
		!l.state.CompareAndSwap(streamParked, streamLent) {
		return false
	}
	lim, rec := l.t.cfg.batch, l.t.cfg.Trace
	l.batch = l.t.cfg.Log.TryNextBatch(l.cursor, l.batch[:0], lim.maxFrames, lim.maxBytes)
	if n := len(l.batch); n > 0 {
		for i := range l.batch {
			l.vec = append(l.vec, l.batch[i].Frame)
		}
		taken := l.tw.TryWriteBuffers(l.vec)
		clear(l.vec) // pin no frame the log has let go of
		l.vec = l.vec[:0]
		if taken {
			// Accounted once the connection took it: a refused batch is
			// the writer's to count when it writes it.
			l.countData(l.batch, rec)
			l.stampWireSend(rec)
			l.cursor = l.batch[n-1].Seq + 1
		}
	}
	// A cursor short of the head is a refused write or a batch that left
	// frames behind.
	left := l.cursor <= l.t.cfg.Log.Head()
	if l.state.Swap(streamParked) == streamWanted || left {
		l.wake()
	}
	return true
}

// reclaim takes the stream back for the writer after a wake-up: at once if
// it is parked, else once the borrower gives it back, which rings the bell
// for a writer that marked it wanted. A ring taken here may have been meant
// for other work; waitWork checks every source after it.
func (l *link) reclaim() {
	for !l.state.CompareAndSwap(streamParked, streamRunning) {
		if l.state.CompareAndSwap(streamLent, streamWanted) || l.state.Load() == streamWanted {
			<-l.bell
		}
	}
}

// noteReport raises acked from a report about this node's stream made by the
// link's peer; any other report leaves it.
func (l *link) noteReport(a *wire.Ack) {
	if int(a.Origin) != l.t.cfg.Self || int(a.By) != l.peer {
		return
	}
	for {
		cur := l.acked.Load()
		if a.Seq <= cur || l.acked.CompareAndSwap(cur, a.Seq) {
			return
		}
	}
}

// takeReports returns the reports on the board newer than what the current
// connection has carried and counts them sent. Reports about the link's own
// peer go on every pass: the peer is that stream's origin and the only node
// whose predicates wait on them. Reports about any other origin go only on a
// pass that also writes a heartbeat (withForeign), so a bystander's view of a
// foreign origin trails by at most one HeartbeatEvery and costs no frame in
// between. The stream loop calls it each time it runs, for whatever reason,
// so a report about the peer that woke nobody (a lone message's, written back
// on the peer's connection) rides the link's next write too. The slice
// aliases link-owned scratch valid until the next call.
func (l *link) takeReports(withForeign bool) []wire.Ack {
	b := l.t.board
	v := b.version.Load() // before the cells: see board.raise
	if v == l.peerScanned && (!withForeign || v == l.scanned) {
		return nil
	}
	l.peerScanned = v
	if withForeign {
		l.scanned = v
	}
	l.ackBuf = l.ackBuf[:0]
	for ci, c := range b.columns() {
		if ci*b.n == len(l.sent) {
			l.sent = append(l.sent, make([]uint64, b.n)...)
		}
		sent := l.sent[ci*b.n:]
		for o := range c.cells {
			if !withForeign && o != l.peer-1 {
				continue
			}
			if seq := c.cells[o].Load(); seq > sent[o] {
				sent[o] = seq
				l.ackBuf = append(l.ackBuf, wire.Ack{Origin: uint16(o + 1), By: c.by, Type: c.typ, Seq: seq})
			}
		}
	}
	return l.ackBuf
}

// reportDue reports whether the board holds a report about the link's own
// peer that the connection has not carried: the one kind of report an idle
// link writes for. Reports about other origins wait for the next heartbeat
// (takeReports). A cell whose version bump is still to come does not count:
// QueueAck's wake follows the bump, and takeReports would not scan before it.
func (l *link) reportDue() bool {
	b := l.t.board
	if b.version.Load() == l.peerScanned {
		return false
	}
	for ci, c := range b.columns() {
		var sent uint64
		if i := ci*b.n + l.peer - 1; i < len(l.sent) {
			sent = l.sent[i]
		}
		if c.cells[l.peer-1].Load() > sent {
			return true
		}
	}
	return false
}

func (l *link) queueApp(a *wire.App) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return net.ErrClosed
	}
	if len(l.apps) >= maxAppQueue {
		l.mu.Unlock()
		return ErrAppQueueFull
	}
	l.apps = append(l.apps, a)
	l.mu.Unlock()
	l.wake()
	return nil
}

func (l *link) queueHeartbeat(clock uint64) {
	l.mu.Lock()
	l.hbDue = true
	l.hbClock = clock
	l.mu.Unlock()
	l.wake()
}

func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.wake()
	l.connMu.Lock()
	if l.conn != nil {
		_ = l.conn.Close()
	}
	l.connMu.Unlock()
}

// run is the link's lifetime loop: dial, handshake, stream, reconnect.
func (l *link) run() {
	defer l.t.wg.Done()
	backoff := backoffFloor
	connected := false
	for {
		if l.isClosed() {
			return
		}
		conn, dead, lastSeq, err := l.dial()
		if err != nil {
			// Full jitter: sleep uniformly in [floor, backoff] instead of
			// exactly backoff, so the cluster's links don't re-dial in
			// lockstep after a partition heals and hammer the same instant.
			d := backoffFloor
			if span := int64(backoff - backoffFloor); span > 0 {
				d += time.Duration(l.rng.Int63n(span + 1))
			}
			if !l.sleep(d) {
				return
			}
			if backoff *= 2; backoff > backoffCeil {
				backoff = backoffCeil
			}
			continue
		}
		if connected {
			l.ins.reconn.Inc()
		}
		connected = true
		backoff = backoffFloor
		// Nothing sent, nothing scanned: the new connection carries the whole
		// board — monotonicity makes the resend harmless (SST-style control
		// plane).
		clear(l.sent)
		l.scanned, l.peerScanned = 0, 0
		l.dead = dead
		l.stream(conn, lastSeq+1)
		_ = conn.Close()
	}
}

func (l *link) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// sleep waits d unless the transport shuts down first.
func (l *link) sleep(d time.Duration) bool {
	select {
	case <-l.t.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// dial connects and handshakes within dialTimeout, returning the peer's last
// received contiguous data sequence and the connection's dead flag. Both the
// connect and the handshake round trip run in a goroutine: a black-holed
// fabric dial, or a peer that accepts but never answers the Hello, cannot
// hang the run loop.
// The in-flight connection is handed out on connCh as soon as it exists, so
// an abandoning caller can close it — which aborts a handshake stalled in a
// fault gate or a dead network, letting the goroutine finish.
func (l *link) dial() (net.Conn, *atomic.Bool, uint64, error) {
	connCh := make(chan net.Conn, 1)
	resCh := make(chan dialResult, 1)
	go func() {
		conn, err := l.t.cfg.Network.Dial(l.t.cfg.Self, l.peer)
		if err != nil {
			resCh <- dialResult{err: err}
			return
		}
		connCh <- conn
		// A deadline as defense in depth: on transports whose reads honor it
		// the handshake self-aborts even if nobody reaps the attempt.
		_ = conn.SetDeadline(time.Now().Add(dialTimeout))
		frame := wire.AppendFrame(nil, &wire.Hello{From: uint16(l.t.cfg.Self)})
		if _, err := conn.Write(frame); err != nil {
			resCh <- dialResult{conn: conn, err: err}
			return
		}
		cr := &countingReader{r: conn}
		r := wire.NewReader(cr)
		msg, err := r.Next()
		if err != nil {
			resCh <- dialResult{conn: conn, err: err}
			return
		}
		ack, ok := msg.(*wire.HelloAck)
		if !ok {
			resCh <- dialResult{conn: conn, err: errors.New("transport: handshake: unexpected frame")}
			return
		}
		_ = conn.SetDeadline(time.Time{})
		// Counting starts here. A dialer keeps its handshake out of the
		// ledger (the Hello above is not in bytes_sent either); the echoes
		// that follow are counted by the peer as sent, so here as received.
		cr.peer = l.ins.bytesRecv
		resCh <- dialResult{conn: conn, r: r, lastSeq: ack.LastSeq}
	}()

	timer := time.NewTimer(dialTimeout)
	defer timer.Stop()
	var res dialResult
	select {
	case res = <-resCh:
	case <-timer.C:
		go reapDial(connCh, resCh)
		return nil, nil, 0, errDialTimeout
	case <-l.t.stop:
		go reapDial(connCh, resCh)
		return nil, nil, 0, net.ErrClosed
	}
	if res.err != nil {
		if res.conn != nil {
			_ = res.conn.Close()
		}
		return nil, nil, 0, res.err
	}
	conn, r := res.conn, res.r
	l.connMu.Lock()
	l.conn = conn
	l.connMu.Unlock()
	l.t.heard(l.peer)

	// Drain the reverse direction so connection teardown is noticed even
	// while the writer is idle. Peers send two kinds of frame here: our own
	// heartbeats echoed back, which double as RTT probes and liveness
	// evidence, and the reports about our stream that a lone message of ours
	// raised at the peer (serveIncoming writes them back on this
	// connection). A read error marks the connection dead and rings the
	// writer, which may be parked with nothing to write. The goroutine is in
	// the transport's wait group, so no report reaches the Handler after
	// Close has returned.
	dead := new(atomic.Bool)
	l.t.wg.Add(1)
	go func() {
		defer l.t.wg.Done()
		for {
			msg, err := r.Next()
			if err != nil {
				_ = conn.Close()
				dead.Store(true)
				l.wake()
				return
			}
			switch m := msg.(type) {
			case *wire.Heartbeat:
				l.ins.hbRecv.Inc()
				l.observeEcho(m.Clock)
			case *wire.Ack:
				l.ins.ackRecv.Inc()
				l.t.heard(l.peer)
				l.noteReport(m)
				l.t.cfg.Handler.HandleAck(m)
			}
		}
	}()
	return conn, dead, res.lastSeq, nil
}

// dialResult carries a completed dial-and-handshake back to the run loop.
type dialResult struct {
	conn    net.Conn
	r       *wire.Reader
	lastSeq uint64
	err     error
}

// reapDial cleans up an abandoned dial attempt: it closes the in-flight
// connection as soon as it exists (aborting a handshake stalled inside it),
// then waits for the dial goroutine's final result so nothing leaks.
func reapDial(connCh <-chan net.Conn, resCh <-chan dialResult) {
	for {
		select {
		case c := <-connCh:
			_ = c.Close()
		case res := <-resCh:
			if res.conn != nil {
				_ = res.conn.Close()
			}
			return
		}
	}
}

// observeEcho matches a heartbeat echo against the newest heartbeat written
// and records the round trip.
func (l *link) observeEcho(clock uint64) {
	l.mu.Lock()
	match := clock == l.hbSentClock && !l.hbSentAt.IsZero()
	sentAt := l.hbSentAt
	l.mu.Unlock()
	if match {
		l.ins.hbRTT.Observe(time.Since(sentAt).Nanoseconds())
	}
	l.t.heard(l.peer)
}

// nowNano is the data-path clock. It is a variable so tests can count
// clock reads on the drain path: with tracing off (or nothing in the batch
// sampled) the stream loop must make zero clock calls.
var nowNano = func() int64 { return time.Now().UnixNano() }

// outFlushBytes is how much a busy link gathers before it writes without
// waiting to go idle: enough that consecutive little batches share one
// connection write, small enough that control waits behind at most one batch
// and one flush of bulk data.
const outFlushBytes = 64 << 10

// buffersWriter is a connection that takes a flush as the frames it is made
// of and writes their concatenation as one Write of it would. It borrows
// them: the connection may hold a buffer it was handed until the peer has
// read it, after WriteBuffers has returned, so the caller never writes to
// one again. This is the send side's twin of wire.Reader's rule that a
// received payload is lent until the next Next. The memory fabric's
// connection is one: its queue holds the frames, and the peer's read is the
// only copy a frame gets on the way, as through net.Pipe.
type buffersWriter interface {
	WriteBuffers(bufs [][]byte) (int, error)
}

// joinWriter is how a connection that does not take buffers (a kernel socket,
// a caller's Network) gets a flush: concatenated into the link's joined
// buffer and written in one Write. A kernel socket sees one system call per
// flush, and at small frames one copy beats a writev of many iovecs.
type joinWriter struct {
	conn net.Conn
	buf  *[]byte
}

func (j joinWriter) WriteBuffers(bufs [][]byte) (int, error) {
	b := (*j.buf)[:0]
	for _, p := range bufs {
		b = append(b, p...)
	}
	*j.buf = b
	return j.conn.Write(b)
}

// The link encodes control frames into out blocks of outBlockBytes, and moves
// to a fresh block once fewer than outMinTail bytes are left behind what it
// has handed over.
const (
	outBlockBytes = 4 << 10
	outMinTail    = 512
)

// moveOut starts out behind the bytes it holds, which a connection may still
// borrow, so the next pass encodes after them and never over them.
func (l *link) moveOut() {
	if cap(l.out)-len(l.out) < outMinTail {
		l.out = make([]byte, 0, outBlockBytes)
	} else {
		l.out = l.out[len(l.out):]
	}
}

// tryWriter is a connection that can take a flush without blocking:
// TryWriteBuffers writes the whole concatenation of bufs as WriteBuffers
// would, borrowing the buffers alike, if it can now, and otherwise writes
// none of it and returns false. The memory fabric's unshaped directions are
// one. A shaped direction refuses every try-write, an empty one included,
// which is how the stream learns not to lend it: a Send that borrowed would
// arm each link's arrival timer in turn. A kernel socket has none, so its
// links keep the wake.
type tryWriter interface {
	TryWriteBuffers(bufs [][]byte) bool
}

// writerFor is how the stream hands its flushes to conn, chosen once per
// connection.
func (l *link) writerFor(conn net.Conn) buffersWriter {
	if w, ok := conn.(buffersWriter); ok {
		return w
	}
	return joinWriter{conn: conn, buf: &l.joined}
}

// stream multiplexes the send log and the control outbox over an established
// connection until it fails or the link closes. Every pass drains a run of
// log entries under one lock acquisition (batchLimits) and gathers their
// frames into l.vec by reference, then encodes whatever control traffic is
// pending (the board's unsent reports, app messages, a due heartbeat) into
// l.out and gathers that behind them. The gathered frames go to the
// connection in one WriteBuffers when a pass finds nothing to gather or
// outFlushBytes have gathered: the memory fabric borrows the frames and its
// peer's read is the one copy each gets, and any other connection gets their
// concatenation in one Write (writerFor). Control is collected once per
// pass, so it waits at most one batch and one flush behind bulk data — that
// bound is the control/data fairness rule. Nothing gathered for one connection is written on its
// successor: every stream starts empty.
//
// A pass that finds nothing to gather goes idle in a fixed order: flush, yield,
// park. The flush comes first so no byte waits on the rest. The yield
// (runtime.Gosched, once) happens only when the busy period's last data batch
// held more than one entry, the mark of a producer streaming Sends: a
// connection write returns as soon as the bytes are buffered, so the writer
// catches up after every batch, and if it parked each time the producer
// would pay a real wake-up per link on its next Send. Yielding lets the
// producer append its next run before waitWork re-checks. A link carrying
// lone messages (batches of one) skips the yield and parks at once: nothing
// is coming that the yield could wait for, and the round through the
// scheduler would only delay the next lone message's wake-up.
func (l *link) stream(conn net.Conn, cursor uint64) {
	lim := l.t.cfg.batch
	rec := l.t.cfg.Trace
	w := l.writerFor(conn)
	if l.tw, _ = conn.(tryWriter); l.tw != nil && !l.tw.TryWriteBuffers(nil) {
		l.tw = nil // it never takes one, or not on this connection
	}
	l.vec, l.traced = l.vec[:0], l.traced[:0]
	l.moveOut()
	gathered := 0  // bytes in l.vec
	burst := false // the last data batch held more than one entry
	for {
		mark := gathered
		l.batch = l.t.cfg.Log.TryNextBatch(cursor, l.batch[:0], lim.maxFrames, lim.maxBytes)
		if n := len(l.batch); n > 0 {
			for i := range l.batch {
				l.vec = append(l.vec, l.batch[i].Frame)
			}
			gathered += l.countData(l.batch, rec)
			cursor = l.batch[n-1].Seq + 1
			burst = n > 1
		}
		ctl := len(l.out)
		if !l.encodeControl() {
			return
		}
		if k := len(l.out) - ctl; k > 0 {
			// A later pass may move out as it grows; this sub-slice keeps
			// the bytes it names where they are.
			l.vec = append(l.vec, l.out[ctl:])
			gathered += k
			l.ins.bytesSent.Add(int64(k))
		}
		busy := gathered > mark
		if busy && gathered < outFlushBytes {
			continue
		}
		if gathered > 0 {
			_, err := w.WriteBuffers(l.vec)
			clear(l.vec) // pin no frame the log has let go of
			l.moveOut()
			if err != nil {
				return // the next connection resends every report
			}
			l.vec, gathered = l.vec[:0], 0
			l.stampWireSend(rec)
		}
		if busy {
			continue
		}
		if burst {
			runtime.Gosched()
		}
		if !l.waitWork(cursor, !burst) {
			return
		}
		cursor, burst = l.cursor, false // a borrower may have moved it
	}
}

// countData accounts a batch of data frames drained for the connection: the
// resends among them (at or below maxDataSeq, which rises to the newest),
// dataSent and bytesSent, and a StageBatchEnqueue stamp for each sampled
// entry, queued in traced for stampWireSend. It returns the frames' bytes.
// The stream calls it as it gathers a batch and a borrower once its write is
// taken, so a borrowed batch's two stamps both follow its write.
func (l *link) countData(batch []LogEntry, rec *optrace.Recorder) int {
	var tDrain int64
	resends, bytes := 0, 0
	for i := range batch {
		e := &batch[i]
		bytes += len(e.Frame)
		if e.Seq <= l.maxDataSeq {
			resends++
		} else {
			l.maxDataSeq = e.Seq
		}
		if rec != nil && rec.Sampled(l.t.cfg.Self, e.Seq) {
			if tDrain == 0 {
				tDrain = nowNano() // first sampled entry pays the clock read
			}
			var d wire.Data
			wire.DecodeDataFrame(e.Frame, &d)
			rec.Record(optrace.StageBatchEnqueue, l.t.cfg.Self, e.Seq, l.peer, 0, tDrain)
			l.t.stageBatchQueue.Observe(tDrain - d.SentUnixNano)
			l.traced = append(l.traced, tracedSend{e.Seq, tDrain})
		}
	}
	l.ins.dataSent.Add(int64(len(batch)))
	l.ins.resent.Add(int64(resends))
	l.ins.bytesSent.Add(int64(bytes))
	return bytes
}

// stampWireSend stamps StageWireSend on the sampled entries in traced, which
// the connection write that has just returned carried, and empties it.
func (l *link) stampWireSend(rec *optrace.Recorder) {
	if len(l.traced) == 0 {
		return
	}
	tWrite := nowNano()
	for _, s := range l.traced {
		rec.Record(optrace.StageWireSend, l.t.cfg.Self, s.seq, l.peer, 0, tWrite)
		l.t.stageWireSend.Observe(tWrite - s.drained)
	}
	l.traced = l.traced[:0]
}

// tracedSend is one sampled entry gathered into l.vec and not yet written.
type tracedSend struct {
	seq     uint64
	drained int64 // its StageBatchEnqueue stamp
}

// encodeControl drains the control outbox into l.out as frames — the board's
// unsent reports, then the app messages and the heartbeat queued under mu —
// counting each kind where it is encoded and stamping the heartbeat for RTT
// matching. A pass that writes a heartbeat carries the reports about every
// origin; any other carries those about the peer alone (takeReports). It
// returns false once the link is closed (the stream goroutine is the only
// caller).
func (l *link) encodeControl() bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	apps, hb, clock := l.apps, l.hbDue, l.hbClock
	l.apps, l.hbDue = nil, false
	l.mu.Unlock()

	acks := l.takeReports(hb)
	for i := range acks {
		l.out = wire.AppendFrame(l.out, &acks[i])
	}
	l.ins.ackSent.Add(int64(len(acks)))
	for _, a := range apps {
		l.out = wire.AppendFrame(l.out, a)
	}
	l.ins.appSent.Add(int64(len(apps)))
	if hb {
		l.out = wire.AppendFrame(l.out, &wire.Heartbeat{Clock: clock})
		l.ins.hbSent.Inc()
		l.mu.Lock()
		l.hbSentClock, l.hbSentAt = clock, time.Now()
		l.mu.Unlock()
	}
	return true
}

// waitWork blocks until there is something to send: an app message, a
// heartbeat, a report about the link's own peer, or a log entry at
// or beyond cursor. Every source is checked before the first park, so a
// caller that has just flushed (and perhaps yielded: see stream) gets its
// re-check here. Returns false on close or a dead connection, read only while
// the writer holds the stream. It publishes cursor in l.cursor, and
// with lend (and a try-write on the connection) parks the stream for a Send to
// borrow (borrow), taking it back on each wake-up (reclaim) and reading the
// cursor the borrowers left: the caller resumes from l.cursor.
func (l *link) waitWork(cursor uint64, lend bool) bool {
	l.cursor = cursor
	lend = lend && l.tw != nil
	for {
		// Clear the bell, check every source, then wait: a wake that lands
		// before the clear has its work visible to the checks, and one that
		// lands after it stays in the bell for the wait — so no wake-up is
		// lost, and a ring left over from a busy period costs no extra pass.
		// The wait is on the bell alone, not on the transport's shared stop
		// channel as well: a two-case select locks both channels on every
		// park and every wake.
		select {
		case <-l.bell:
		default:
		}
		l.mu.Lock()
		closed, queued := l.closed, len(l.apps) > 0 || l.hbDue
		l.mu.Unlock()
		if closed || l.dead.Load() {
			return false
		}
		if queued || l.reportDue() {
			return true
		}
		if l.batch = l.t.cfg.Log.TryNextBatch(l.cursor, l.batch[:0], 1, 0); len(l.batch) > 0 {
			return true
		}
		if !lend {
			<-l.bell // close rings it too
			continue
		}
		l.state.Store(streamParked)
		<-l.bell
		l.reclaim()
	}
}
