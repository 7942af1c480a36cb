package transport

import (
	"testing"
	"time"

	"stabilizer/internal/emunet"
)

// TestHeartbeatRTTIgnoresPeerBacklog pins what the heartbeat RTT measures:
// one network round trip, whatever the peer's own link is busy with. Node 2
// streams more than a shaper queue's worth of data to an idle node 1 over a
// slow link; node 1's heartbeats to node 2 must keep producing RTT samples,
// and near the matrix round trip, while that backlog drains. An echo that
// rode node 2's data stream would sit behind seconds of queued payload and
// come back too late to match the heartbeat it answers.
func TestHeartbeatRTTIgnoresPeerBacklog(t *testing.T) {
	const (
		oneWay    = 5 * time.Millisecond
		heartbeat = 25 * time.Millisecond
		payload   = 8 << 10
		frames    = 768 // 6 MiB: the 4 MiB shaper queue fills and the writer blocks
	)
	matrix := emunet.NewMatrix()
	matrix.Set(1, 2, emunet.Link{OneWayLatency: oneWay})
	matrix.Set(2, 1, emunet.Link{OneWayLatency: oneWay, BandwidthBps: emunet.Mbps(8)})
	net := emunet.NewMemNetwork(matrix)
	defer net.Close()

	logs := []*SendLog{NewSendLog(1), NewSendLog(1)}
	trs := make([]*Transport, 2)
	for i := range trs {
		tr, err := New(Config{
			Self: i + 1, N: 2, Network: net, Handler: newRecorder(), Log: logs[i],
			HeartbeatEvery: heartbeat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
	}
	rtt := trs[0].peers[2].hbRTT
	waitUntil(t, 5*time.Second, func() bool { return rtt.Count() >= 2 })

	buf := make([]byte, payload)
	for i := 0; i < frames; i++ {
		if _, err := logs[1].Append(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	trs[1].NotifyData()
	// Node 2's writer has filled the shaper queue and waits on the link rate.
	waitUntil(t, 5*time.Second, func() bool { return trs[1].peers[1].bytesSent.Value() >= 4<<20 })

	before := rtt.Count()
	deadline := time.Now().Add(2 * time.Second)
	for rtt.Count() < before+10 && time.Now().Before(deadline) {
		time.Sleep(heartbeat)
	}
	if got := trs[0].RecvLast(2); got >= frames {
		t.Fatalf("the backlog drained (%d of %d frames) before the RTT was sampled: the test raced nothing", got, frames)
	}
	if got := rtt.Count() - before; got < 10 {
		t.Fatalf("%d RTT samples in 2 s of %v heartbeats while the peer drained a backlog, want at least 10", got, heartbeat)
	}
	if p50, limit := rtt.Quantile(0.5), 10*(2*oneWay).Seconds(); p50 > limit {
		t.Fatalf("heartbeat RTT p50 = %.1f ms behind the peer's backlog, want under %.0f ms (10× the matrix round trip)",
			p50*1e3, limit*1e3)
	}
}

// TestEchoedHeartbeatIsInTheLedgerAtBothEnds checks the heartbeat rows of the
// traffic ledger pairwise: what a counts as heartbeat frames sent to b — its
// own heartbeats on its link, and the echoes of b's heartbeats it writes back
// on b's connection — b counts as heartbeat frames received from a, to within
// the heartbeat and the echo one period can hold in flight. The echoes are
// half of it: b reads at least one per RTT sample it took.
func TestEchoedHeartbeatIsInTheLedgerAtBothEnds(t *testing.T) {
	const n = 3
	h := startHarness(t, n)
	for a := 1; a <= n; a++ {
		for b := 1; b <= n; b++ {
			if a == b {
				continue
			}
			var sent, recv, samples int64
			ok := func() bool {
				recv = h.trs[b-1].peers[a].hbRecv.Value()
				sent = h.trs[a-1].peers[b].hbSent.Value()
				samples = h.trs[b-1].peers[a].hbRTT.Count()
				return samples >= 10 && sent-recv <= 2 && recv-sent <= 2 && recv >= samples+samples/2
			}
			deadline := time.Now().Add(5 * time.Second)
			for !ok() && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if !ok() {
				t.Fatalf("heartbeat frames %d→%d: %d sent, %d received, %d RTT samples at %d: want sent and received within 2 and the echoes counted beside the heartbeats",
					a, b, sent, recv, samples, b)
			}
		}
	}
}
