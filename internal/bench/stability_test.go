package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/emunet"
)

// TestHistogramSeriesAgreement pins the two stability-latency measurement
// paths against each other on one fixed workload: the ad-hoc
// timestamp-reconciliation series (the original Fig. 5 bookkeeping) and
// the stabilizer_stability_latency_seconds histogram the node maintains
// itself. Both see the same frontier advances, so their quantiles must
// agree up to the histogram's log2-bucket interpolation error (bounded by
// ~2-2.5x) plus scheduling noise.
func TestHistogramSeriesAgreement(t *testing.T) {
	opts := Options{TimeScale: 5}.normalized()

	topo := &config.Topology{Self: 1}
	for i := 1; i <= 3; i++ {
		topo.Nodes = append(topo.Nodes, config.Node{
			Name:   fmt.Sprintf("node%d", i),
			AZ:     fmt.Sprintf("az%d", i),
			Region: fmt.Sprintf("region%d", i),
		})
	}
	matrix := emunet.NewMatrix()
	// 5ms emulated one-way latency (1ms wall at TimeScale 5) keeps the
	// latencies well above bucket-zero noise.
	matrix.Default = emunet.Link{OneWayLatency: 5 * time.Millisecond}
	c, err := startCluster(topo, matrix, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	sender := c.node(1)

	const pred = "agree"
	if err := sender.RegisterPredicate(pred, "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}

	// The series path, exactly as Fig5 builds it: send timestamps on one
	// side, monitor-upcall timestamps on the other, reconciled per seq.
	var (
		mu       sync.Mutex
		sentAt   []time.Time
		stableAt []time.Time
		covered  uint64
	)
	cancel, err := sender.MonitorStabilityFrontier(pred, func(f uint64) {
		now := time.Now()
		mu.Lock()
		for uint64(len(stableAt)) < f {
			stableAt = append(stableAt, time.Time{})
		}
		for seq := covered + 1; seq <= f; seq++ {
			stableAt[seq-1] = now
		}
		covered = f
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	const count = 300
	payload := make([]byte, 64)
	var lastSeq uint64
	for i := 0; i < count; i++ {
		now := time.Now()
		seq, err := sender.Send(payload)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for uint64(len(sentAt)) < seq {
			sentAt = append(sentAt, time.Time{})
		}
		sentAt[seq-1] = now
		mu.Unlock()
		lastSeq = seq
		// Pace the workload so frontier advances spread over many
		// recomputes instead of one coalesced jump.
		if i%10 == 9 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	ctx, cancelWait := context.WithTimeout(context.Background(), time.Minute)
	defer cancelWait()
	if err := sender.WaitFor(ctx, lastSeq, pred); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	s := make(series, 0, lastSeq)
	// WaitFor is released before the monitor for the same advance fires,
	// so the monitor may not have covered the last few sequences yet.
	for seq := uint64(1); seq <= uint64(len(stableAt)); seq++ {
		if stableAt[seq-1].IsZero() || sentAt[seq-1].IsZero() {
			continue
		}
		s = append(s, opts.rescale(stableAt[seq-1].Sub(sentAt[seq-1])))
	}
	mu.Unlock()
	if len(s) < count*9/10 {
		t.Fatalf("series reconciled only %d/%d messages", len(s), count)
	}

	if got := stabilityHistogram(sender, pred).Count(); got == 0 {
		t.Fatal("stability histogram never observed anything")
	}

	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}} {
		fromSeries := s.percentile(q.q)
		fromHist := opts.stabilityQuantile(sender, pred, q.q)
		if fromSeries <= 0 || fromHist <= 0 {
			t.Fatalf("%s: non-positive quantile: series=%v histogram=%v", q.name, fromSeries, fromHist)
		}
		// Factor 3 absorbs the log2-bucket interpolation error; the
		// absolute slack absorbs timestamping skew between the two paths
		// on very fast runs (values are in rescaled paper units).
		const slack = 10 * time.Millisecond
		if fromHist > 3*fromSeries+slack || fromSeries > 3*fromHist+slack {
			t.Fatalf("%s disagrees beyond bucket error: series=%v histogram=%v", q.name, fromSeries, fromHist)
		}
	}
}
