package transport

import (
	"sync"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/metrics"
	"stabilizer/internal/wire"
)

// TestReconnectMetricsConsistency forces a link flap with in-flight frames
// and checks the transport's books against what the receiver actually
// observed: the resent-frames counter must equal the frames sent twice, and
// the per-peer byte counters on both ends must reconcile exactly — sent
// bytes exceed received bytes by precisely the resent frames' bytes.
//
// Heartbeats are disabled and no acks are queued, so data frames are the
// only traffic the sender counts and the byte math is exact. The receiver
// also books the Hello that opens each connection to the peer that sent it
// (the dialer does not count its handshake), so its side of the books is the
// data plus one Hello per connection made.
func TestReconnectMetricsConsistency(t *testing.T) {
	fabric := emunet.NewMemNetwork(nil)
	defer fabric.Close()
	inj := faultinject.New(fabric, nil)

	regS, regR := metrics.NewRegistry(), metrics.NewRegistry()
	mk := func(self int, reg *metrics.Registry, h Handler, log *SendLog) *Transport {
		tr, err := New(Config{
			Self: self, N: 2, Network: fabric, Handler: h, Log: log,
			HeartbeatEvery: time.Hour, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	sendLog := NewSendLog(1)
	rec := newRecorder()
	sender := mk(1, regS, newRecorder(), sendLog)
	defer sender.Close()
	receiver := mk(2, regR, rec, NewSendLog(1))
	defer receiver.Close()

	sentBytes := func() int64 {
		return regS.CounterVec("stabilizer_transport_bytes_sent_total",
			"Frame bytes written per peer.", "peer").With("2").Value()
	}
	recvBytes := func() int64 {
		return regR.CounterVec("stabilizer_transport_bytes_recv_total",
			"Frame bytes read per peer.", "peer").With("1").Value()
	}
	helloBytes := int64(len(wire.AppendFrame(nil, &wire.Hello{From: 1})))
	// recvData is what the receiver read of the sender's counted traffic:
	// everything but the Hello of each connection the sender has made.
	recvData := func() int64 {
		return recvBytes() - helloBytes*(1+sender.Totals().Reconnects)
	}
	resentFrames := func() int64 {
		return regS.CounterVec("stabilizer_transport_data_resent_total",
			"Data frames retransmitted after reconnect, per peer.", "peer").With("2").Value()
	}

	// Phase 1: a clean prefix. Identical payload sizes keep every data
	// frame the same wire size, so byte deltas divide evenly by frames.
	payload := make([]byte, 32)
	for i := 0; i < 3; i++ {
		if _, err := sendLog.Append(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	sender.NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return receiver.RecvLast(1) == 3 })
	// Quiesce: with only data frames on the wire, both ends must agree.
	waitUntil(t, 5*time.Second, func() bool { return sentBytes() == recvData() && sentBytes() > 0 })
	// A clean exchange over one connection: the receiver's books are the
	// sender's plus exactly the one Hello.
	if got, want := recvBytes(), sentBytes()+helloBytes; got != want {
		t.Fatalf("receiver read %d bytes from peer 1, want the %d sent + one %d-byte Hello = %d",
			got, sentBytes(), helloBytes, want)
	}
	if tot := receiver.Totals(); tot.BytesRecv != recvBytes() || tot.DataFramesRecv != 3 {
		t.Fatalf("receiver totals = %+v, want BytesRecv %d and 3 data frames", tot, recvBytes())
	}
	s0, r0 := sentBytes(), recvData()

	// Phase 2: cut the link while idle, then append more than the cut
	// direction holds. The frames are counted as sent when they enter the
	// link's write path, but no byte becomes readable and the writer parks
	// at the direction's bound mid-frame, so "counted sent but never
	// received" is deterministic, and the sever below fails that write.
	inj.CutLink(1, 2)
	big := make([]byte, 300<<10)
	for i := 0; i < 5; i++ {
		if _, err := sendLog.Append(big, 0); err != nil {
			t.Fatal(err)
		}
	}
	sender.NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return sender.Totals().DataFramesSent > 3 })
	if got := receiver.Totals().DataFramesRecv; got != 3 {
		t.Fatalf("receiver saw %d data frames through a cut link, want 3", got)
	}

	// Phase 3: sever first (kills the stalled write and both live conns),
	// then heal so the redial succeeds and the log resends from the
	// receiver's reported position.
	inj.Sever(1, 2)
	inj.HealLink(1, 2)

	waitUntil(t, 10*time.Second, func() bool { return receiver.RecvLast(1) == 8 })
	waitUntil(t, 5*time.Second, func() bool { return sentBytes()-s0 > recvData()-r0 && recvData() > r0 })

	// FIFO with no gaps or duplicates across the flap.
	seqs := rec.dataSeqs(1)
	if len(seqs) != 8 {
		t.Fatalf("receiver delivered %d frames, want 8: %v", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d: gap or duplicate across flap", i, s)
		}
	}

	// Books must balance. The receiver read frames 4..8 exactly once:
	// recvDelta = 5 frames. The sender wrote those 5 plus `resent` frames
	// a second time, all the same wire size.
	sDelta, rDelta := sentBytes()-s0, recvData()-r0
	resent := resentFrames()
	if resent < 1 {
		t.Fatalf("flap lost frames but resent counter = %d", resent)
	}
	// Exactly five frames once one Hello per connection made, the flap's
	// included, is set aside.
	frameBytes := int64(wire.DataFrameOverhead + len(big))
	if rDelta != 5*frameBytes {
		t.Fatalf("received byte delta %d beyond %d Hellos, want 5 frames × %d bytes", rDelta, 1+sender.Totals().Reconnects, frameBytes)
	}
	if want := rDelta + resent*frameBytes; sDelta != want {
		t.Fatalf("byte books don't balance: sent delta %d, want recv delta %d + %d resent frames × %d bytes = %d",
			sDelta, rDelta, resent, frameBytes, want)
	}
	tot := sender.Totals()
	if tot.DataFramesSent != 8+resent {
		t.Fatalf("DataFramesSent = %d, want 8 first sends + %d resends", tot.DataFramesSent, resent)
	}
	if tot.Reconnects < 1 {
		t.Fatalf("reconnects = %d after a flap", tot.Reconnects)
	}
}

// TestIdleSeveredLinkRedials: a sever while both links are parked, with no
// heartbeat due and nothing to send, reaches each writer through its
// connection's reverse reader, so each link redials now and not at its next
// write, which here would never come.
func TestIdleSeveredLinkRedials(t *testing.T) {
	fabric := emunet.NewMemNetwork(nil)
	h := startHarnessOn(t, fabric, 2, noHeartbeat, batchLimits{})
	for _, tr := range h.trs {
		lending(t, tr.linkList[0])
	}
	fabric.Sever(1, 2)
	poll(t, "both links to redial", func() bool {
		return h.trs[0].Totals().Reconnects >= 1 && h.trs[1].Totals().Reconnects >= 1
	})
}

// TestSlowReceiverPacesTheDataStream: a slow receiver on 1→2 paces node 2's
// reads of node 1's stream, which arrives on the connection node 1 dialed.
// Within a window node 2 reads no more than one 4 KiB chunk per delay, and
// once the throttle clears the stream runs at full rate again.
func TestSlowReceiverPacesTheDataStream(t *testing.T) {
	const (
		slow   = 10 * time.Millisecond
		window = 200 * time.Millisecond
		chunk  = 4 << 10
	)
	fabric := emunet.NewMemNetwork(nil)
	inj := faultinject.New(fabric, nil)
	h := startHarnessOn(t, fabric, 2, noHeartbeat, batchLimits{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keeps at most 256 KiB ahead of node 2 and no more held
		defer wg.Done()
		payload := make([]byte, 1<<10)
		for seq := uint64(1); ; {
			select {
			case <-stop:
				return
			default:
			}
			if got := h.trs[1].RecvLast(1); seq > got+256 {
				h.logs[0].TruncateThrough(got)
				time.Sleep(100 * time.Microsecond)
				continue
			}
			if _, err := h.logs[0].Append(payload, 0); err != nil {
				return
			}
			h.trs[0].NotifyData()
			seq++
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	read := func() int64 {
		before := h.trs[1].Totals().BytesRecv
		time.Sleep(window)
		return h.trs[1].Totals().BytesRecv - before
	}
	waitUntil(t, 5*time.Second, func() bool { return h.trs[1].RecvLast(1) > 0 })
	inj.SlowReceiver(1, 2, slow)
	time.Sleep(2 * slow) // past a read under way as the throttle engaged
	bound := int64(window/slow+2) * chunk
	if got := read(); got > bound {
		t.Fatalf("node 2 read %d bytes of node 1's stream in %v behind a %v slow receiver, want at most %d",
			got, window, slow, bound)
	}
	inj.ClearSlowReceiver(1, 2, slow)
	if got := read(); got < 4*bound {
		t.Fatalf("node 2 read %d bytes in %v once the throttle cleared, want over %d", got, window, 4*bound)
	}
}
