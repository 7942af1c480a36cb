package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/emunet"
	"stabilizer/internal/filebackup"
	"stabilizer/internal/predlib"
	"stabilizer/internal/testbed"
	"stabilizer/internal/trace"
	"stabilizer/internal/wankv"
)

// Fig4 reproduces the trace shape figure: the synthetic Dropbox workload's
// per-interval volume and largest file, which must show three huge-file
// spikes inside a bursty 17-minute window of ~3.87 GB.
func Fig4(opts Options) ([]trace.Bucket, error) {
	opts = opts.normalized()
	spec := trace.DefaultSpec()
	reqs := trace.Generate(spec)
	buckets := trace.Histogram(reqs, 30*time.Second)

	fmt.Fprintln(opts.Out, "Fig. 4 — Dropbox file size distribution over the trace window (synthetic)")
	fmt.Fprintf(opts.Out, "total %.2f GB in %d files over %v; %d packets at 8 KB\n",
		float64(trace.TotalBytes(reqs))/1e9, len(reqs), spec.Duration, trace.Messages(reqs, 8<<10))
	fmt.Fprintf(opts.Out, "%10s %8s %12s %14s\n", "t(s)", "files", "MB", "maxfile(MB)")
	for _, b := range buckets {
		fmt.Fprintf(opts.Out, "%10.0f %8d %12.1f %14.1f\n",
			b.Start.Seconds(), b.Files, float64(b.Bytes)/1e6, float64(b.MaxFile)/1e6)
	}
	return buckets, nil
}

// Fig5Bucket aggregates stability-frontier latency over a range of message
// sequence numbers (the paper's x-axis), per predicate.
type Fig5Bucket struct {
	FirstSeq, LastSeq uint64
	Avg               map[string]time.Duration
	Max               map[string]time.Duration
}

// Fig5Result is the trace-driven experiment outcome.
type Fig5Result struct {
	Messages uint64
	Buckets  []Fig5Bucket
	// Overall per-predicate statistics. Avg and Max come from the
	// per-message reconciliation series; P50 and P99 are read from the
	// sender's stabilizer_stability_latency_seconds histogram, so the
	// report and a live /metrics scrape agree by construction.
	Avg, P50, P99, Max map[string]time.Duration
}

// Fig5 reproduces the trace-driven experiment (§VI-B): the synthetic
// Dropbox trace is replayed against the Dropbox-like backup application on
// the emulated EC2 topology, and for every message we record when its
// synchronization first satisfies each of the six Table III predicates.
// Expected shape: three latency spikes aligned with the huge files; weaker
// predicates (OneRegion/OneWNode) stay low; MajorityWNodes suffers more
// than MajorityRegions; AllWNodes/AllRegions are the slowest.
func Fig5(opts Options) (*Fig5Result, error) {
	opts = opts.normalized()
	scale := 0.1
	if opts.Short {
		scale = 0.01
	}
	spec := trace.DefaultSpec().Scale(scale)
	reqs := trace.Generate(spec)

	topo := config.EC2Topology(1)
	c, err := startCluster(topo, emunet.EC2Matrix(), opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	sender := c.Node(1)
	kv := wankv.New(sender)
	svc := filebackup.New(kv)
	if err := svc.RegisterTableIII(); err != nil {
		return nil, err
	}
	// Receivers intentionally run no K/V mirror here: all six predicates
	// read "received" acknowledgments, which the transport generates
	// regardless, and retaining seven mirrored copies of the multi-GB
	// trace would only stress memory, not the metric.

	preds := predlib.TableIIIOrder()

	var stamps testbed.Stamps
	for _, p := range preds {
		p := p
		cancel, err := sender.MonitorStabilityFrontier(p, func(f uint64) {
			stamps.Stable(p, f, time.Now())
		})
		if err != nil {
			return nil, err
		}
		defer cancel()
	}

	// Replay the trace: arrival times compressed by the time scale.
	rng := rand.New(rand.NewSource(5))
	var lastSeq uint64
	due := func(i int) time.Duration { return time.Duration(float64(reqs[i].At) / opts.TimeScale) }
	if err := testbed.Paced(len(reqs), due, func(i int) error {
		r := reqs[i]
		data := randomBytes(rng, int(r.Size))
		now := time.Now()
		res, err := svc.Backup(r.Name, data)
		if err != nil {
			return fmt.Errorf("bench: backup %s: %w", r.Name, err)
		}
		stamps.Sent(res.FirstSeq, res.LastSeq, now)
		lastSeq = res.LastSeq
		return nil
	}); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for _, p := range preds {
		if err := sender.WaitFor(ctx, lastSeq, p); err != nil {
			return nil, fmt.Errorf("bench: drain %s: %w", p, err)
		}
	}

	res := &Fig5Result{
		Messages: lastSeq,
		Avg:      make(map[string]time.Duration),
		P50:      make(map[string]time.Duration),
		P99:      make(map[string]time.Duration),
		Max:      make(map[string]time.Duration),
	}
	for _, p := range preds {
		s := opts.rescaled(stamps.Latencies(p, 1, lastSeq))
		res.Avg[p] = s.Avg()
		res.Max[p] = s.Max()
		// Quantiles come from the node's own histogram rather than the
		// ad-hoc series (TestHistogramSeriesAgreement pins the two paths
		// against each other).
		res.P50[p] = opts.stabilityQuantile(c.Cluster, 1, p, 0.50)
		res.P99[p] = opts.stabilityQuantile(c.Cluster, 1, p, 0.99)
	}

	const nBuckets = 24
	per := lastSeq / nBuckets
	if per == 0 {
		per = 1
	}
	for lo := uint64(1); lo <= lastSeq; lo += per {
		hi := lo + per - 1
		if hi > lastSeq {
			hi = lastSeq
		}
		b := Fig5Bucket{
			FirstSeq: lo, LastSeq: hi,
			Avg: make(map[string]time.Duration),
			Max: make(map[string]time.Duration),
		}
		for _, p := range preds {
			sub := opts.rescaled(stamps.Latencies(p, lo, hi))
			b.Avg[p] = sub.Avg()
			b.Max[p] = sub.Max()
		}
		res.Buckets = append(res.Buckets, b)
	}

	fmt.Fprintf(opts.Out, "Fig. 5 — stability frontier latency, trace-driven (%d messages, trace scale %.2f)\n", lastSeq, scale)
	fmt.Fprintf(opts.Out, "%-10s", "seq")
	for _, p := range preds {
		fmt.Fprintf(opts.Out, " %15s", p)
	}
	fmt.Fprintln(opts.Out)
	for _, b := range res.Buckets {
		fmt.Fprintf(opts.Out, "%-10d", b.LastSeq)
		for _, p := range preds {
			fmt.Fprintf(opts.Out, " %15s", ms(b.Avg[p]))
		}
		fmt.Fprintln(opts.Out)
	}
	fmt.Fprintf(opts.Out, "%-10s", "avg(ms)")
	for _, p := range preds {
		fmt.Fprintf(opts.Out, " %15s", ms(res.Avg[p]))
	}
	fmt.Fprintln(opts.Out)
	fmt.Fprintf(opts.Out, "%-10s", "p50(ms)")
	for _, p := range preds {
		fmt.Fprintf(opts.Out, " %15s", ms(res.P50[p]))
	}
	fmt.Fprintln(opts.Out)
	fmt.Fprintf(opts.Out, "%-10s", "p99(ms)")
	for _, p := range preds {
		fmt.Fprintf(opts.Out, " %15s", ms(res.P99[p]))
	}
	fmt.Fprintln(opts.Out)
	fmt.Fprintf(opts.Out, "%-10s", "max(ms)")
	for _, p := range preds {
		fmt.Fprintf(opts.Out, " %15s", ms(res.Max[p]))
	}
	fmt.Fprintln(opts.Out)
	return res, nil
}
