package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/emunet"
	"stabilizer/internal/quorum"
	"stabilizer/internal/testbed"
)

// Fig3Point is one quorum-read measurement.
type Fig3Point struct {
	MessageKB  int
	AvgLatency time.Duration
	// MedianLatency is what the shape is judged on: with a handful of reads
	// per size, one slow read moves the mean by a fifth of itself.
	MedianLatency time.Duration
	P99Latency    time.Duration
	// Reads is the per-read series, in issue order.
	Reads []time.Duration
}

// Fig3Result reproduces Fig. 3: quorum read latency versus message size,
// with the site RTTs as reference lines.
type Fig3Result struct {
	Points []Fig3Point
	// RTTs are the reference ping latencies from Utah1 (the paper's
	// dashed lines): Utah1 (self, ~0), Wisconsin, Clemson.
	RTTs map[string]time.Duration
}

// Fig3 runs the §VI-A quorum read experiment: three quorum members on
// Utah1, Wisconsin and Clemson; writer on Utah2; reader on Utah1;
// Nr = Nw = 2. The expected shape: read latency tracks the Wisconsin RTT
// (the second-fastest member from Utah) and grows slightly with message
// size.
func Fig3(opts Options) (*Fig3Result, error) {
	opts = opts.normalized()
	topo := config.CloudLabTopology(1)
	matrix := emunet.CloudLabMatrix()
	c, err := startCluster(topo, matrix, opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	members := []int{1, 3, 4} // Utah1, Wisconsin, Clemson
	kvs := make([]*quorum.KV, topo.N())
	for i := 1; i <= topo.N(); i++ {
		kv, err := quorum.New(quorum.Config{
			Node:    c.Node(i),
			Members: members,
			Nw:      2,
			Nr:      2,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: quorum node %d: %w", i, err)
		}
		kvs[i-1] = kv
	}
	writer := kvs[1] // Utah2
	reader := kvs[0] // Utah1

	// Reads are timed only once every link carries traffic both ways: a
	// request sent into a link's boot-time dial backoff is answered by the
	// next-slower member instead, which is set-up cost, not read latency.
	if err := c.Ready(30 * time.Second); err != nil {
		return nil, fmt.Errorf("bench: fig3: %w", err)
	}

	sizesKB := []int{1, 2, 4, 8, 16, 32, 64}
	reads := 20
	if opts.Short {
		sizesKB = []int{1, 8, 64}
		reads = 5
	}

	// The raw matrix holds paper-unit latencies; only measured durations
	// need rescaling back from the compressed fabric.
	res := &Fig3Result{RTTs: map[string]time.Duration{
		"Utah1":     2 * matrix.Get(1, 2).OneWayLatency,
		"Wisconsin": 2 * matrix.Get(1, 3).OneWayLatency,
		"Clemson":   2 * matrix.Get(1, 4).OneWayLatency,
	}}

	fmt.Fprintln(opts.Out, "Fig. 3 — latency of quorum read operation (Nr = Nw = 2)")
	fmt.Fprintf(opts.Out, "reference RTTs: Wisconsin %s ms, Clemson %s ms\n",
		ms(res.RTTs["Wisconsin"]), ms(res.RTTs["Clemson"]))
	fmt.Fprintf(opts.Out, "%12s %12s %12s\n", "size(KB)", "avg(ms)", "p99(ms)")

	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for _, kb := range sizesKB {
		payload := randomBytes(rng, kb<<10)
		key := fmt.Sprintf("obj-%dk", kb)
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		if _, err := writer.Write(wctx, key, payload); err != nil {
			cancel()
			return nil, fmt.Errorf("bench: quorum write %dKB: %w", kb, err)
		}
		cancel()

		var lats testbed.Series
		for i := 0; i < reads; i++ {
			rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			d, err := reader.ReadLatency(rctx, key)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("bench: quorum read %dKB: %w", kb, err)
			}
			lats = append(lats, opts.rescale(d))
		}
		p := Fig3Point{
			MessageKB: kb, Reads: lats,
			AvgLatency: lats.Avg(), MedianLatency: lats.Percentile(0.5), P99Latency: lats.Percentile(0.99),
		}
		res.Points = append(res.Points, p)
		fmt.Fprintf(opts.Out, "%12d %12s %12s\n", p.MessageKB, ms(p.AvgLatency), ms(p.P99Latency))
	}
	return res, nil
}
