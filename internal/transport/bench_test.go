package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/optrace"
	"stabilizer/internal/wire"
)

// countHandler counts delivered data frames and ignores everything else.
type countHandler struct {
	n atomic.Int64
}

func (h *countHandler) HandleData(from int, d *wire.Data) { h.n.Add(1) }
func (h *countHandler) HandleAck(a *wire.Ack)             {}
func (h *countHandler) HandleApp(from int, a *wire.App)   {}
func (h *countHandler) PeerUp(peer int)                   {}
func (h *countHandler) PeerDown(peer int)                 {}

// BenchmarkQueueAck measures one stability report posted on the node's board
// at two cluster sizes: a report that raises its cell, as each received run
// produces (a compare-and-swap, the version bump and the wake-up flag of the
// one link to the report's origin), and a stale one, which is a column scan
// and a load and wakes nobody. Neither touches a per-link lock, so the cost
// must not depend on N. The links never connect (nothing listens), so the
// figure is the board alone, without the writer it would wake.
func BenchmarkQueueAck(b *testing.B) {
	for _, n := range []int{8, 32} {
		for _, name := range []string{"advancing", "stale"} {
			advancing := name == "advancing"
			b.Run(fmt.Sprintf("%s/N=%d", name, n), func(b *testing.B) {
				fabric := emunet.NewMemNetwork(nil)
				defer fabric.Close()
				tr, err := New(Config{Self: 1, N: n, Network: fabric, Handler: &countHandler{}, Log: NewSendLog(1)})
				if err != nil {
					b.Fatal(err)
				}
				a := wire.Ack{Origin: 2, By: 1, Type: 1, Seq: 1}
				tr.QueueAck(a)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if advancing {
						a.Seq++
					}
					tr.QueueAck(a)
				}
			})
		}
	}
}

// BenchmarkSendLogAppendDrain measures the per-entry append + cursor-walk
// cost of the shared send log, including periodic reclaim.
func BenchmarkSendLogAppendDrain(b *testing.B) {
	l := NewSendLog(1)
	payload := make([]byte, 64)
	cursor := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload, 0); err != nil {
			b.Fatal(err)
		}
		e, ok := tryNext(l, cursor)
		if !ok {
			b.Fatal("entry not ready")
		}
		cursor = e.Seq + 1
		if i%4096 == 4095 {
			l.TruncateThrough(e.Seq)
		}
	}
}

// BenchmarkSendLogAppendDrainBatch is BenchmarkSendLogAppendDrain with the
// batched drain path: one lock acquisition per run of entries instead of
// one per entry.
func BenchmarkSendLogAppendDrainBatch(b *testing.B) {
	l := NewSendLog(1)
	payload := make([]byte, 64)
	cursor := uint64(1)
	var batch []LogEntry
	const run = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += run {
		n := run
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			if _, err := l.Append(payload, 0); err != nil {
				b.Fatal(err)
			}
		}
		batch = l.TryNextBatch(cursor, batch[:0], n, 1<<20)
		if len(batch) != n {
			b.Fatalf("drained %d of %d", len(batch), n)
		}
		cursor = batch[len(batch)-1].Seq + 1
		l.TruncateThrough(cursor - 1)
	}
}

// benchmarkThroughput streams b.N messages from node 1 to node 2 over the
// given matrix and reports the end-to-end delivery rate. trace configures
// the flight recorder on both ends (zero value = tracing off, the
// production default and the BENCH_transport.json baseline).
func benchmarkThroughput(b *testing.B, matrix *emunet.Matrix, payloadSize int, trace optrace.Config) {
	b.Helper()
	benchmarkThroughputNet(b, emunet.NewMemNetwork(matrix), payloadSize, trace)
}

// benchmarkThroughputNet is benchmarkThroughput over an explicit fabric, so
// the TCP variants run the same harness over kernel sockets.
func benchmarkThroughputNet(b *testing.B, net emunet.Network, payloadSize int, trace optrace.Config) {
	b.Helper()
	benchmarkThroughputLog(b, net, NewSendLog(1), payloadSize, trace)
}

// benchmarkThroughputLog is the general form: the caller supplies the
// sender's send log, so the spill benchmarks can measure a tiered log on
// the identical harness the recorded baselines used.
func benchmarkThroughputLog(b *testing.B, net emunet.Network, sendLog *SendLog, payloadSize int, trace optrace.Config) {
	b.Helper()
	defer net.Close()
	rx := &countHandler{}
	tr1, err := New(Config{
		Self: 1, N: 2, Network: net, Handler: &countHandler{}, Log: sendLog,
		HeartbeatEvery: 20 * time.Millisecond,
		Trace:          optrace.New(1, trace),
	})
	if err != nil {
		b.Fatal(err)
	}
	tr2, err := New(Config{
		Self: 2, N: 2, Network: net, Handler: rx, Log: NewSendLog(1),
		HeartbeatEvery: 20 * time.Millisecond,
		Trace:          optrace.New(2, trace),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr1.Start(); err != nil {
		b.Fatal(err)
	}
	if err := tr2.Start(); err != nil {
		b.Fatal(err)
	}
	defer tr1.Close()
	defer tr2.Close()

	payload := make([]byte, payloadSize)
	const window = 8192 // max in-flight messages, bounds log growth
	b.SetBytes(int64(payloadSize))
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		recvd := int(rx.n.Load())
		if sent-recvd >= window {
			sendLog.TruncateThrough(uint64(recvd))
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if _, err := sendLog.Append(payload, 0); err != nil {
			b.Fatal(err)
		}
		tr1.NotifyData()
		sent++
	}
	for int(rx.n.Load()) < b.N {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "msgs/s")
	}
}

// BenchmarkStreamThroughputLocal measures delivery rate over an unshaped
// in-memory fabric: the pure software overhead of the send/receive path.
func BenchmarkStreamThroughputLocal(b *testing.B) {
	benchmarkThroughput(b, nil, 256, optrace.Config{})
}

// BenchmarkStreamThroughputLocalTraceSampled is the Local benchmark with
// the flight recorder on at the production default sampling rate: the
// overhead an always-on deployment actually pays.
func BenchmarkStreamThroughputLocalTraceSampled(b *testing.B) {
	benchmarkThroughput(b, nil, 256, optrace.Config{SampleEvery: 64})
}

// BenchmarkStreamThroughputLocalTraceAlways is the Local benchmark tracing
// every message — the worst case, bounding what a 1-in-1 debug session
// costs on the hot path.
func BenchmarkStreamThroughputLocalTraceAlways(b *testing.B) {
	benchmarkThroughput(b, nil, 256, optrace.Config{SampleEvery: 1})
}

// BenchmarkStreamThroughputTCP measures delivery rate over unshaped
// loopback TCP. A kernel socket does not take buffers, so the link joins each
// flush into one buffer and writes it in one system call, where Local hands
// the memory fabric its frames to copy once; the other difference is a
// system call per read.
func BenchmarkStreamThroughputTCP(b *testing.B) {
	benchmarkThroughputNet(b, emunet.NewTCPNetwork(nil), 256, optrace.Config{})
}

// BenchmarkStreamThroughputTCPLarge is the TCP benchmark at the payload size
// the paper names (8 KiB file-backup chunks, §V-A and §VI-B), where the
// per-byte cost of the write path shows and the per-message cost does not.
func BenchmarkStreamThroughputTCPLarge(b *testing.B) {
	benchmarkThroughputNet(b, emunet.NewTCPNetwork(nil), 8<<10, optrace.Config{})
}

// BenchmarkStreamThroughputEmunet measures delivery rate over an
// emunet-shaped WAN link (5 ms one-way, 2 Gbit/s), where batching and
// pipelining decide how close the stream gets to saturating the link.
func BenchmarkStreamThroughputEmunet(b *testing.B) {
	m := emunet.NewMatrix()
	m.Default = emunet.Link{OneWayLatency: 5 * time.Millisecond, BandwidthBps: emunet.Mbps(2000)}
	benchmarkThroughput(b, m, 256, optrace.Config{})
}

// TestTracingDisabledDrainZeroAlloc pins the tentpole's zero-cost claim:
// with Config.Trace nil, the batched drain path (SendLog.TryNextBatch, the
// same call link.stream makes per wakeup) allocates nothing per entry
// beyond the baseline it always had.
func TestTracingDisabledDrainZeroAlloc(t *testing.T) {
	l := NewSendLog(1)
	payload := make([]byte, 64)
	var batch []LogEntry
	const run = 64
	batch = make([]LogEntry, 0, run)
	cursor := uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < run; j++ {
			if _, err := l.Append(payload, 0); err != nil {
				t.Fatal(err)
			}
		}
		batch = l.TryNextBatch(cursor, batch[:0], run, 1<<20)
		if len(batch) != run {
			t.Fatalf("drained %d of %d", len(batch), run)
		}
		cursor = batch[len(batch)-1].Seq + 1
		l.TruncateThrough(cursor - 1)
	})
	// Append copies the payload (one alloc per entry); the drain itself
	// must add zero. Anything above run allocs means the untraced drain
	// path regressed.
	if allocs > run {
		t.Fatalf("drain with tracing disabled: %.1f allocs per %d-entry batch, want <= %d (append-only)", allocs, run, run)
	}

	// Zero clock calls: the stream loop's stage timestamps (batch_enqueue,
	// wire_send) must be gated on the sampler, so an untraced end-to-end
	// run reads the clock zero times on the drain path. nowNano is swapped
	// for a counting shim; tests in this package run sequentially and
	// streamMessages joins every transport goroutine before returning, so
	// the swap cannot race a drain.
	var clockCalls atomic.Int64
	origNow := nowNano
	nowNano = func() int64 { clockCalls.Add(1); return origNow() }
	defer func() { nowNano = origNow }()

	streamMessages(t, optrace.Config{}, 512)
	if n := clockCalls.Load(); n != 0 {
		t.Fatalf("tracing-off stream made %d data-path clock calls, want 0", n)
	}
	// The same for lone messages, which a Send writes on the link's
	// connection itself (link.borrow).
	if _, tap := loneMessages(t, optrace.Config{}, 64); tap.taken.Load() == 0 {
		t.Fatal("no lone message went out borrowed")
	}
	if n := clockCalls.Load(); n != 0 {
		t.Fatalf("tracing-off lone messages made %d data-path clock calls, want 0", n)
	}
	// Positive control: with every op sampled the same path must read the
	// clock, proving the shim actually intercepts the drain loop.
	clockCalls.Store(0)
	streamMessages(t, optrace.Config{SampleEvery: 1}, 512)
	if clockCalls.Load() == 0 {
		t.Fatal("fully sampled stream made no data-path clock calls — the counting shim is not wired into the drain loop")
	}
}

// streamMessages pushes msgs end-to-end through a two-node transport pair on
// an unshaped in-memory fabric and waits for delivery, then closes both
// transports (joining every link goroutine).
func streamMessages(t *testing.T, trace optrace.Config, msgs int) {
	t.Helper()
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	sendLog := NewSendLog(1)
	rx := &countHandler{}
	tr1, err := New(Config{
		Self: 1, N: 2, Network: net, Handler: &countHandler{}, Log: sendLog,
		HeartbeatEvery: 20 * time.Millisecond,
		Trace:          optrace.New(1, trace),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := New(Config{
		Self: 2, N: 2, Network: net, Handler: rx, Log: NewSendLog(1),
		HeartbeatEvery: 20 * time.Millisecond,
		Trace:          optrace.New(2, trace),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	defer tr1.Close()

	payload := make([]byte, 64)
	for i := 0; i < msgs; i++ {
		if _, err := sendLog.Append(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr1.NotifyData()
	deadline := time.Now().Add(10 * time.Second)
	for int(rx.n.Load()) < msgs {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d messages", rx.n.Load(), msgs)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// loneMessages sends msgs messages from node 1 to node 2 over an unshaped
// in-memory fabric one at a time, each once node 2's report of the one
// before is back, as a closed-loop client does: node 1's link lends its
// stream, and most of them are written by the sending goroutine. It closes
// both transports (joining every link goroutine) and returns node 1's and the
// tally of its link's try-writes.
func loneMessages(t *testing.T, trace optrace.Config, msgs int) (*Transport, *tryTap) {
	t.Helper()
	fabric := emunet.NewMemNetwork(nil)
	defer fabric.Close()
	tapped, tap := tapTries(fabric)
	sendLog, rec := NewSendLog(1), newRecorder()
	rep := &reporter{recorder: newRecorder(), self: 2}
	tr1, err := New(Config{
		Self: 1, N: 2, Network: tapped, Handler: rec, Log: sendLog,
		HeartbeatEvery: 20 * time.Millisecond,
		Trace:          optrace.New(1, trace),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := New(Config{
		Self: 2, N: 2, Network: fabric, Handler: rep, Log: NewSendLog(1),
		HeartbeatEvery: 20 * time.Millisecond,
		Trace:          optrace.New(2, trace),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.tr.Store(tr2)
	if err := tr1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	defer tr1.Close()

	payload := make([]byte, 64)
	for i := uint64(1); i <= uint64(msgs); i++ {
		if _, err := sendLog.Append(payload, 0); err != nil {
			t.Fatal(err)
		}
		tr1.NotifyData()
		poll(t, "the message's report", func() bool { return rec.maxAck(1, 2, 1) >= i })
	}
	return tr1, tap
}
