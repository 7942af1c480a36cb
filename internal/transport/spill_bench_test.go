package transport

import (
	"testing"

	"stabilizer/internal/emunet"
	"stabilizer/internal/optrace"
)

// BenchmarkSpillWrite measures sustained spill bandwidth: appends against a
// small memory cap with no reader, so every byte past the watermark must
// migrate through the spiller to disk before the next append is admitted.
// bytes/sec here is the ceiling on how fast a sender can absorb a region
// outage.
func BenchmarkSpillWrite(b *testing.B) {
	const payloadLen = 4096
	l, err := newSendLogFlow(1, FlowConfig{
		MaxBytes: 256 << 10,
		SpillDir: b.TempDir(),
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, payloadLen)
	b.SetBytes(payloadLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if l.Stats().SpilledBytes == 0 && int64(b.N)*payloadLen > l.Stats().CapBytes {
		b.Fatal("benchmark never spilled")
	}
}

// BenchmarkSpillReadback measures the tiered reader: the whole stream is
// first forced to disk, then drained through TryNextBatch exactly the way
// link.stream drains a reconnecting peer — disk segments first, live
// memory tail last. bytes/sec is the post-outage catch-up rate the disk
// tier adds on top of the network.
func BenchmarkSpillReadback(b *testing.B) {
	const payloadLen = 4096
	l, err := newSendLogFlow(1, FlowConfig{
		MaxBytes: 256 << 10,
		SpillDir: b.TempDir(),
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, payloadLen)
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload, 0); err != nil {
			b.Fatal(err)
		}
	}
	var batch []LogEntry
	cursor := uint64(1)
	b.SetBytes(payloadLen)
	b.ReportAllocs()
	b.ResetTimer()
	for cursor <= uint64(b.N) {
		batch = l.TryNextBatch(cursor, batch[:0], 64, 1<<20)
		if len(batch) == 0 {
			b.Fatalf("drain stalled at %d of %d", cursor, b.N)
		}
		cursor = batch[len(batch)-1].Seq + 1
	}
}

// BenchmarkStreamThroughputSpillUntriggered is the acceptance guard for
// the spill tier's zero-cost-when-idle claim: the identical end-to-end stream
// harness as BenchmarkStreamThroughputLocal, but the sender's log is a
// tiered log whose cap is far above the benchmark's in-flight
// window, so the spiller arms but never runs. msgs/s must stay within 5%
// of the recorded StreamThroughputLocal numbers in BENCH_transport.json.
func BenchmarkStreamThroughputSpillUntriggered(b *testing.B) {
	l, err := newSendLogFlow(1, FlowConfig{
		MaxBytes: 1 << 30, // the 8192-message window tops out ~2 MB
		SpillDir: b.TempDir(),
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkThroughputLog(b, emunet.NewMemNetwork(nil), l, 256, optrace.Config{})
	if l.Stats().SpilledBytes != 0 {
		b.Fatalf("spiller ran (%d bytes): the benchmark no longer measures the untriggered path", l.Stats().SpilledBytes)
	}
}
