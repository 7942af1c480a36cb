package bench

import (
	"context"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/testbed"
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

	matrix := emunet.NewMatrix()
	// 5ms emulated one-way latency (1ms wall at TimeScale 5) keeps the
	// latencies well above bucket-zero noise.
	matrix.Default = emunet.Link{OneWayLatency: 5 * time.Millisecond}
	c, err := startCluster(testbed.Flat(3), matrix, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sender := c.Node(1)

	const pred = "agree"
	if err := sender.RegisterPredicate(pred, "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}

	// The series path, exactly as Fig5 builds it: send timestamps on one
	// side, monitor-upcall timestamps on the other, reconciled per seq.
	var stamps testbed.Stamps
	cancel, err := sender.MonitorStabilityFrontier(pred, func(f uint64) {
		stamps.Stable(pred, f, time.Now())
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
		stamps.Sent(seq, seq, now)
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

	// WaitFor is released before the monitor for the same advance fires,
	// so the monitor may not have covered the last few sequences yet.
	s := opts.rescaled(stamps.Latencies(pred, 1, lastSeq))
	if len(s) < count*9/10 {
		t.Fatalf("series reconciled only %d/%d messages", len(s), count)
	}

	if got := stabilityHistogram(c.Cluster, 1, pred).Count(); got == 0 {
		t.Fatal("stability histogram never observed anything")
	}

	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}} {
		fromSeries := s.Percentile(q.q)
		fromHist := opts.stabilityQuantile(c.Cluster, 1, pred, q.q)
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
