package transport

import (
	"sync"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
	"stabilizer/internal/wire"
)

// spillCheckHandler wraps a recorder and additionally verifies every
// delivered Data frame byte-for-byte against the deterministic ground
// truth, so corruption anywhere on the disk round trip is caught at the
// receiver, not just missequencing.
type spillCheckHandler struct {
	*recorder
	t          *testing.T
	payloadLen int
	mu         sync.Mutex
	badOnce    bool
}

func (h *spillCheckHandler) HandleData(from int, d *wire.Data) {
	want := spillPayload(d.Seq, h.payloadLen)
	if string(d.Payload) != string(want) || d.SentUnixNano != int64(d.Seq*1000+7) {
		h.mu.Lock()
		if !h.badOnce {
			h.badOnce = true
			h.t.Errorf("delivered seq %d differs from ground truth", d.Seq)
		}
		h.mu.Unlock()
	}
	h.recorder.HandleData(from, d)
}

// TestSpillEndToEndReconnectDrain is the transport-level spill story:
// while the peer is unreachable the origin's backlog overflows its memory
// cap onto disk; when the peer comes up, the link streams the disk
// segments back through the ordinary batched drain path and hands off to
// the live in-memory tail with no gap, no duplicate regression, and
// byte-identical payloads. The spill gauges must track the whole cycle.
func TestSpillEndToEndReconnectDrain(t *testing.T) {
	const (
		payloadLen = 512
		total      = 400 // 200 KiB total against a 32 KiB cap
		capBytes   = 32 << 10
	)
	net := emunet.NewMemNetwork(nil)
	defer net.Close()

	log, err := newSendLogFlow(1, FlowConfig{
		MaxBytes: capBytes,
		SpillDir: t.TempDir(),
		segBytes: 8 << 10,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rec1 := newRecorder()
	tr1, err := New(Config{
		Self: 1, N: 2, Network: net, Handler: rec1, Log: log,
		HeartbeatEvery: 20 * time.Millisecond,
		Metrics:        reg,
		TopoTags:       TopoTag{AZ: "az-a", Region: "us"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr1.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr1.Close()

	// Peer 2 is down: the whole backlog is cold. Everything past the cap
	// must migrate to disk without ever stalling the appender for long
	// (the spiller frees memory as fast as the disk accepts it).
	for i := 1; i <= total; i++ {
		seq := uint64(i)
		if _, err := log.Append(spillPayload(seq, payloadLen), int64(seq*1000+7)); err != nil {
			t.Fatal(err)
		}
		if mem := log.Stats().MemoryBytes; mem > capBytes+payloadLen {
			t.Fatalf("memory %d exceeded cap while peer down", mem)
		}
	}
	tr1.NotifyData()
	if log.Stats().SpilledBytes == 0 || log.Stats().SpilledSegments == 0 {
		t.Fatalf("no spill with peer down: spilled=%d segs=%d", log.Stats().SpilledBytes, log.Stats().SpilledSegments)
	}
	match := map[string]string{"az": "az-a", "region": "us"}
	if got := famTotal(t, reg, "stabilizer_sendlog_spilled_bytes", match); got != float64(log.Stats().SpilledBytes) {
		t.Fatalf("spilled_bytes gauge = %v, log says %d", got, log.Stats().SpilledBytes)
	}
	if got := famTotal(t, reg, "stabilizer_sendlog_spilled_segments", match); got != float64(log.Stats().SpilledSegments) {
		t.Fatalf("spilled_segments gauge = %v, log says %d", got, log.Stats().SpilledSegments)
	}
	if got := famTotal(t, reg, "stabilizer_sendlog_spill_degraded", match); got != 0 {
		t.Fatalf("spill_degraded gauge = %v with a healthy disk", got)
	}

	// Peer 2 comes up: the link must drain disk -> memory seamlessly.
	rec2 := &spillCheckHandler{recorder: newRecorder(), t: t, payloadLen: payloadLen}
	tr2, err := New(Config{
		Self: 2, N: 2, Network: net, Handler: rec2, Log: NewSendLog(1),
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()

	waitUntil(t, 20*time.Second, func() bool { return len(rec2.dataSeqs(1)) >= total })
	seqs := rec2.dataSeqs(1)
	for i, s := range seqs[:total] {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d: stream not gapless FIFO across the tier boundary", i, s)
		}
	}
	if log.Stats().SpillReadbackBytes == 0 {
		t.Fatal("backlog drained but SpillReadbackBytes is 0 — the disk tier was never read")
	}
	if got := famTotal(t, reg, "stabilizer_sendlog_readback_bytes", match); got != float64(log.Stats().SpillReadbackBytes) {
		t.Fatalf("readback_bytes gauge = %v, log says %d", got, log.Stats().SpillReadbackBytes)
	}

	// Reclaim after global receipt empties both tiers, like invariant 3
	// (occupancy returns to zero) extended to the disk.
	log.TruncateThrough(total)
	if log.Bytes() != 0 || log.Stats().SpilledBytes != 0 || log.Stats().SpilledSegments != 0 {
		t.Fatalf("after full reclaim: bytes=%d spilled=%d segs=%d", log.Bytes(), log.Stats().SpilledBytes, log.Stats().SpilledSegments)
	}
}
