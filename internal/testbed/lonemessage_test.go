package testbed

import (
	"context"
	"fmt"
	"syscall"
	"testing"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/metrics"
)

// The lone message: one sender on a flat n-node bed over the unshaped
// in-memory fabric, one message in flight, Send then WaitFor on
// MIN($ALLWNODES). Nothing batches and nothing overlaps, so what one message
// costs the whole cluster — frames, bytes, CPU — is what the loop measures,
// and how that grows with n is what bounds cluster size. The file uses only
// Boot, Flat, Ready and public Node methods, so it runs unchanged in a
// checkout of an earlier commit (EXPERIMENTS.md records such rows).

const loneKey = "all"

func bootLone(tb testing.TB, n int, heartbeat time.Duration) *Bed {
	tb.Helper()
	bed, err := Boot(core.Config{Topology: Flat(n), HeartbeatEvery: heartbeat}, Fabric{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = bed.Close() })
	if err := bed.Node(1).RegisterPredicate(loneKey, "MIN($ALLWNODES)"); err != nil {
		tb.Fatal(err)
	}
	if err := bed.Ready(60 * time.Second); err != nil {
		tb.Fatal(err)
	}
	return bed
}

func sendAndWait(tb testing.TB, n *core.Node, count int) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	payload := make([]byte, 64)
	for i := 0; i < count; i++ {
		seq, err := n.Send(payload)
		if err == nil {
			err = n.WaitFor(ctx, seq, loneKey)
		}
		if err != nil {
			tb.Fatalf("message %d: %v", i, err)
		}
	}
}

// wireTotals sums, over every node and peer, the ACK frames and the frame
// bytes written so far.
func wireTotals(reg *metrics.Registry) (ackFrames, wireBytes float64) {
	for _, m := range reg.Find("stabilizer_transport_frames_sent_total").Metrics {
		if m.Labels["kind"] == "ack" {
			ackFrames += m.Value
		}
	}
	for _, m := range reg.Find("stabilizer_transport_bytes_sent_total").Metrics {
		wireBytes += m.Value
	}
	return ackFrames, wireBytes
}

func cpuMicros(tb testing.TB) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// TestLoneMessageAckFrames is the count fence on report routing: a message
// from a single sender costs the cluster the seven receivers' "received" and
// "delivered" reports to the sender, 14 ACK frames, and none between
// receivers — their links to each other carry nothing else and the heartbeat
// is out of reach. The slack up to 16 is the reports about Ready's own
// messages that were still waiting for a write when the count began. With
// every report on every link this read 98.
func TestLoneMessageAckFrames(t *testing.T) {
	const msgs = 100
	bed := bootLone(t, 8, time.Hour)
	before, _ := wireTotals(bed.Metrics())
	sendAndWait(t, bed.Node(1), msgs)
	after, _ := wireTotals(bed.Metrics())
	if per := (after - before) / msgs; per > 16 {
		t.Fatalf("%.1f ACK frames per lone message on 8 nodes, want at most 16", per)
	}
}

func BenchmarkLoneMessage(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			bed := bootLone(b, n, 0)
			sendAndWait(b, bed.Node(1), 50) // first use: buffers, batch budgets
			acks, bytes := wireTotals(bed.Metrics())
			cpu := cpuMicros(b)
			b.ResetTimer()
			sendAndWait(b, bed.Node(1), b.N)
			b.StopTimer()
			msgs := float64(b.N)
			b.ReportMetric((cpuMicros(b)-cpu)/msgs, "cpu-us/msg")
			acksAfter, bytesAfter := wireTotals(bed.Metrics())
			b.ReportMetric((acksAfter-acks)/msgs, "ackframes/msg")
			b.ReportMetric((bytesAfter-bytes)/msgs, "wire-B/msg")
		})
	}
}
