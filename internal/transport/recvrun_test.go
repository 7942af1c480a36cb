package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
	"stabilizer/internal/wire"
)

// runRecorder is a RunHandler that records each run it is handed and the
// order of runs relative to control frames. The embedded recorder's
// HandleData must stay unused: a RunHandler receives data only by run.
type runRecorder struct {
	*recorder
	mu     sync.Mutex
	runs   [][]uint64
	events []string
	// entered receives one token per HandleDataRun call, on entry, if
	// non-nil; gate, if non-nil, is then read once to let the call go on.
	entered chan struct{}
	gate    chan struct{}
}

func (r *runRecorder) HandleDataRun(from int, run []wire.Data) {
	if r.entered != nil {
		r.entered <- struct{}{}
	}
	if r.gate != nil {
		<-r.gate
	}
	seqs := make([]uint64, len(run))
	for i := range run {
		seqs[i] = run[i].Seq
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs = append(r.runs, seqs)
	r.events = append(r.events, fmt.Sprintf("run%d", len(run)))
}

func (r *runRecorder) HandleAck(a *wire.Ack) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, "ack")
}

func (r *runRecorder) HandleApp(from int, a *wire.App) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, "app")
}

func (r *runRecorder) snapshot() (runs [][]uint64, events []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]uint64(nil), r.runs...), append([]string(nil), r.events...)
}

// startReceiver boots node 1 of a two-node fabric with handler h. Node 2 is
// played by the test through rawDial, so what reaches the receive path, and
// in which Write, is exact.
func startReceiver(t *testing.T, h Handler) (*emunet.MemNetwork, *metrics.Registry) {
	t.Helper()
	fabric := emunet.NewMemNetwork(nil)
	reg := metrics.NewRegistry()
	tr, err := New(Config{Self: 1, N: 2, Network: fabric, Handler: h, Log: NewSendLog(1),
		HeartbeatEvery: 20 * time.Millisecond, Metrics: reg})
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
	return fabric, reg
}

// rawDial connects to node 1 as node 2 and completes the handshake.
func rawDial(t *testing.T, fabric *emunet.MemNetwork) net.Conn {
	t.Helper()
	conn, err := fabric.Dial(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := wire.WriteFrame(conn, &wire.Hello{From: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewReader(conn).Next(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return conn
}

// dataFrames encodes Data frames for sequences first..last back to back.
func dataFrames(first, last uint64) []byte {
	var buf []byte
	for s := first; s <= last; s++ {
		buf = wire.AppendFrame(buf, &wire.Data{Seq: s, SentUnixNano: 1, Payload: []byte{byte(s)}})
	}
	return buf
}

func runFramesHistogram(reg *metrics.Registry) *metrics.Histogram {
	return reg.Histogram("stabilizer_transport_recv_run_frames", "", metrics.HistogramOpts{MaxPow: 10})
}

func wantSeqs(t *testing.T, got []uint64, first, last uint64) {
	t.Helper()
	if len(got) != int(last-first+1) {
		t.Fatalf("got %d sequences %v, want %d..%d", len(got), got, first, last)
	}
	for i, s := range got {
		if s != first+uint64(i) {
			t.Fatalf("sequence %d is %d, want %d (order violated): %v", i, s, first+uint64(i), got)
		}
	}
}

// A burst that arrives in one Write is one run, in sequence order, and is
// observed as one run of k frames.
func TestBurstIsOneRun(t *testing.T) {
	const k = 40
	h := &runRecorder{recorder: newRecorder()}
	fabric, reg := startReceiver(t, h)
	conn := rawDial(t, fabric)
	if _, err := conn.Write(dataFrames(1, k)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { runs, _ := h.snapshot(); return len(runs) > 0 })
	runs, _ := h.snapshot()
	if len(runs) != 1 {
		t.Fatalf("burst of %d frames arrived as %d runs", k, len(runs))
	}
	wantSeqs(t, runs[0], 1, k)
	if n := len(h.dataSeqs(2)); n != 0 {
		t.Fatalf("RunHandler got %d HandleData calls", n)
	}
	if hist := runFramesHistogram(reg); hist.Count() != 1 || hist.Sum() != k {
		t.Fatalf("recv_run_frames count=%d sum=%d, want 1 and %d", hist.Count(), hist.Sum(), k)
	}
}

// A burst longer than the cap is applied in capped runs, nothing lost.
func TestRunIsCapped(t *testing.T) {
	const k = maxRecvRun + 100
	h := &runRecorder{recorder: newRecorder()}
	fabric, _ := startReceiver(t, h)
	conn := rawDial(t, fabric)
	if _, err := conn.Write(dataFrames(1, k)); err != nil {
		t.Fatal(err)
	}
	var all []uint64
	waitUntil(t, 5*time.Second, func() bool {
		runs, _ := h.snapshot()
		all = all[:0]
		for _, r := range runs {
			if len(r) > maxRecvRun {
				t.Errorf("run of %d frames exceeds the cap %d", len(r), maxRecvRun)
			}
			all = append(all, r...)
		}
		return len(all) >= k
	})
	wantSeqs(t, all, 1, k)
}

// A control frame buffered behind a run is handled after the run is applied.
func TestRunAppliedBeforeFollowingControlFrame(t *testing.T) {
	h := &runRecorder{recorder: newRecorder()}
	fabric, _ := startReceiver(t, h)
	conn := rawDial(t, fabric)
	buf := dataFrames(1, 8)
	buf = wire.AppendFrame(buf, &wire.Ack{Origin: 1, By: 2, Type: 1, Seq: 3})
	buf = append(buf, dataFrames(9, 12)...)
	buf = wire.AppendFrame(buf, &wire.App{ID: 1, From: 2})
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { _, ev := h.snapshot(); return len(ev) == 4 })
	_, events := h.snapshot()
	if got, want := fmt.Sprint(events), "[run8 ack run4 app]"; got != want {
		t.Fatalf("events %s, want %s", got, want)
	}
}

// A handler without HandleDataRun receives the run as k HandleData calls.
func TestPlainHandlerGetsEveryFrame(t *testing.T) {
	const k = 40
	h := newRecorder()
	fabric, reg := startReceiver(t, h)
	conn := rawDial(t, fabric)
	if _, err := conn.Write(dataFrames(1, k)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return len(h.dataSeqs(2)) == k })
	wantSeqs(t, h.dataSeqs(2), 1, k)
	if hist := runFramesHistogram(reg); hist.Count() != 1 || hist.Sum() != k {
		t.Fatalf("recv_run_frames count=%d sum=%d, want 1 and %d", hist.Count(), hist.Sum(), k)
	}
}

// The per-peer FIFO race, per run: a superseded connection is still inside
// its run's upcall when its replacement has a run decoded that overlaps what
// the first already covered (a sender resuming from an older cursor). The
// replacement must wait for the delivery lock, then lose the overlapping
// prefix: the handler sees one gapless, duplicate-free, ordered stream.
func TestOverlappingRunTrimmedAcrossConnections(t *testing.T) {
	h := &runRecorder{recorder: newRecorder(), entered: make(chan struct{}, 4), gate: make(chan struct{})}
	fabric, _ := startReceiver(t, h)

	old := rawDial(t, fabric)
	if _, err := old.Write(dataFrames(1, 10)); err != nil {
		t.Fatal(err)
	}
	<-h.entered // the old connection's run is inside the handler, lock held

	// The replacement handshakes (closing the old connection under the
	// receiver, whose buffered run is already decoded) and streams 6..15.
	repl := rawDial(t, fabric)
	if _, err := repl.Write(dataFrames(6, 15)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.entered:
		t.Fatal("replacement's run entered the handler while the old run's upcall was still running")
	case <-time.After(50 * time.Millisecond):
	}
	if runs, _ := h.snapshot(); len(runs) != 0 {
		t.Fatalf("runs recorded before the gate opened: %v", runs)
	}

	h.gate <- struct{}{} // old run returns
	<-h.entered
	h.gate <- struct{}{} // replacement's trimmed run returns
	waitUntil(t, 5*time.Second, func() bool { runs, _ := h.snapshot(); return len(runs) == 2 })
	runs, _ := h.snapshot()
	wantSeqs(t, runs[0], 1, 10)
	wantSeqs(t, runs[1], 11, 15)

	// A resend of everything so far plus one fresh frame delivers the one.
	if _, err := repl.Write(dataFrames(3, 16)); err != nil {
		t.Fatal(err)
	}
	<-h.entered
	h.gate <- struct{}{}
	waitUntil(t, 5*time.Second, func() bool { runs, _ := h.snapshot(); return len(runs) == 3 })
	runs, _ = h.snapshot()
	wantSeqs(t, runs[2], 16, 16)
}

// A link's writes do not wait for the peer's reader: with the receiver held
// inside its first upcall (so nothing reads its incoming connection), the
// sender keeps writing Sends to the fabric. Over a rendezvous connection the
// writer parks in the flush of the second Send until the upcall returns and
// DataSent stops at 2.
func TestLinkWriteDoesNotWaitForPeerUpcall(t *testing.T) {
	const sends = 5
	h := &runRecorder{recorder: newRecorder(), entered: make(chan struct{}, sends), gate: make(chan struct{})}
	fabric, _ := startReceiver(t, h)
	release := sync.OnceFunc(func() { close(h.gate) })
	t.Cleanup(release) // before the receiver's Close, which waits for the upcall
	log := NewSendLog(1)
	sender, err := New(Config{Self: 2, N: 2, Network: fabric, Handler: newRecorder(), Log: log,
		HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sender.Close() })

	send := func(i int) {
		t.Helper()
		if _, err := log.Append([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		sender.NotifyData()
	}
	send(1)
	select {
	case <-h.entered: // the receiver is now held inside HandleDataRun
	case <-time.After(5 * time.Second):
		t.Fatal("first message never reached the receiver's upcall")
	}
	for i := 2; i <= sends; i++ {
		send(i)
		waitUntil(t, 5*time.Second, func() bool { return sender.Totals().DataFramesSent >= int64(i) })
	}
	if runs, _ := h.snapshot(); len(runs) != 0 {
		t.Fatalf("the held upcall returned: %v", runs)
	}
	release()
	var all []uint64
	waitUntil(t, 5*time.Second, func() bool {
		runs, _ := h.snapshot()
		all = all[:0]
		for _, r := range runs {
			all = append(all, r...)
		}
		return len(all) >= sends
	})
	wantSeqs(t, all, 1, sends)
}
