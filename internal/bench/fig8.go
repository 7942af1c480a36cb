package bench

import (
	"context"
	"fmt"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/emunet"
	"stabilizer/internal/predlib"
	"stabilizer/internal/pubsub"
	"stabilizer/internal/testbed"
)

// Fig8Bucket is one second of the reconfiguration timeline.
type Fig8Bucket struct {
	Second int
	// Avg maps run name ("all sites", "three sites", "changing
	// predicate") to the mean end-to-end latency of messages sent in
	// this second.
	Avg map[string]time.Duration
}

// Fig8Result is the dynamic reconfiguration experiment outcome.
type Fig8Result struct {
	Buckets []Fig8Bucket
	Overall map[string]time.Duration
}

// fig8Runs are the three predicate regimes of Fig. 8.
var fig8Runs = []string{"all sites", "three sites", "changing predicate"}

// Fig8 reproduces the dynamic reconfiguration experiment (§VI-D): a
// reliable-broadcast application on the pub/sub prototype sends 1600 × 8 KB
// messages at 80 msg/s over the CloudLab WAN. Three runs measure the
// latency from sending until the stability frontier covers the message:
// with the all-remote-sites predicate, with an at-least-three-sites
// predicate, and with the predicate switching every five seconds between
// all sites and all-but-the-slowest (Clemson) as a subscriber there comes
// and goes. Expected shape: the changing run's latency drops toward the
// three-sites line whenever the slowest site is excluded, and the all/three
// lines differ by only a few milliseconds (Massachusetts is barely faster
// than Clemson).
func Fig8(opts Options) (*Fig8Result, error) {
	opts = opts.normalized()
	const (
		rate     = 80
		totalMsg = 1600
		slowest  = 4 // Clemson
	)
	msgs := totalMsg
	flipEvery := 5 * time.Second // paper: subscribe/unsubscribe every 5s
	if opts.Short {
		msgs = 400
		flipEvery = time.Second // the short run lasts only ~5 paper-s
	}

	allSites := predlib.AllWNodes()
	threeSites := predlib.KOfRemote(3)
	excludeSlowest := predlib.ExcludeNodes([]int{slowest})

	res := &Fig8Result{Overall: make(map[string]time.Duration)}
	perRun := make(map[string][]testbed.Series) // run -> per-second latency series

	for _, run := range fig8Runs {
		buckets, overall, err := fig8Run(opts, run, msgs, rate, flipEvery, allSites, threeSites, excludeSlowest)
		if err != nil {
			return nil, err
		}
		perRun[run] = buckets
		res.Overall[run] = overall
	}

	nSec := 0
	for _, b := range perRun {
		if len(b) > nSec {
			nSec = len(b)
		}
	}
	for s := 0; s < nSec; s++ {
		bucket := Fig8Bucket{Second: s, Avg: make(map[string]time.Duration)}
		for run, bs := range perRun {
			if s < len(bs) {
				bucket.Avg[run] = bs[s].Avg()
			}
		}
		res.Buckets = append(res.Buckets, bucket)
	}

	fmt.Fprintln(opts.Out, "Fig. 8 — latency under predicate dynamic reconfiguration (ms)")
	fmt.Fprintf(opts.Out, "%8s %14s %14s %20s\n", "t(s)", "all sites", "three sites", "changing predicate")
	for _, b := range res.Buckets {
		fmt.Fprintf(opts.Out, "%8d %14s %14s %20s\n",
			b.Second, ms(b.Avg["all sites"]), ms(b.Avg["three sites"]), ms(b.Avg["changing predicate"]))
	}
	fmt.Fprintf(opts.Out, "overall: all=%s ms, three=%s ms, changing=%s ms\n",
		ms(res.Overall["all sites"]), ms(res.Overall["three sites"]), ms(res.Overall["changing predicate"]))
	return res, nil
}

// fig8Run executes one regime and returns per-paper-second latency series.
func fig8Run(opts Options, run string, msgs, rate int, flipEvery time.Duration, allSites, threeSites, excludeSlowest string) ([]testbed.Series, time.Duration, error) {
	topo := config.CloudLabTopology(1)
	c, err := startCluster(topo, emunet.CloudLabMatrix(), opts)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()

	brokers := make([]*pubsub.Broker, topo.N())
	for i := 1; i <= topo.N(); i++ {
		b, err := pubsub.New(c.Node(i))
		if err != nil {
			return nil, 0, fmt.Errorf("bench: broker %d: %w", i, err)
		}
		brokers[i-1] = b
	}
	// Reliable broadcast: every remote site subscribes.
	for i := 2; i <= topo.N(); i++ {
		brokers[i-1].Subscribe(func(pubsub.Message) {})
	}
	pub := brokers[0]
	if err := settle(c, pub, topo.N()-1); err != nil {
		return nil, 0, err
	}

	node := pub.Node()
	const key = "fig8"
	initial := allSites
	if run == "three sites" {
		initial = threeSites
	}
	if err := node.RegisterPredicate(key, initial); err != nil {
		return nil, 0, err
	}

	// Frontier monitor stamps first-stability times (cf. Fig. 5).
	var stamps testbed.Stamps
	cancelMon, err := node.MonitorStabilityFrontier(key, func(f uint64) {
		stamps.Stable(key, f, time.Now())
	})
	if err != nil {
		return nil, 0, err
	}
	defer cancelMon()

	// The changing run flips the predicate every 5 paper-seconds,
	// emulating the slowest site's subscriber coming and going.
	var flip *testbed.Loop
	if run == "changing predicate" {
		excluded := false
		flip = testbed.Every(time.Duration(float64(flipEvery)/opts.TimeScale), func(context.Context) bool {
			excluded = !excluded
			src := allSites
			if excluded {
				src = excludeSlowest
			}
			_ = node.ChangePredicate(key, src)
			return true
		})
	}

	// Publish at the paced rate (compressed by the time scale).
	start := time.Now()
	seqOf := make([]uint64, 0, msgs)
	sendTick := make([]time.Duration, 0, msgs) // paper-time offset of each send
	payload := make([]byte, 8<<10)
	err = testbed.Paced(msgs, testbed.AtRate(float64(rate)*opts.TimeScale), func(int) error {
		now := time.Now()
		seq, err := pub.Publish(payload)
		if err != nil {
			return err
		}
		stamps.Sent(seq, seq, now)
		seqOf = append(seqOf, seq)
		sendTick = append(sendTick, opts.rescale(now.Sub(start)))
		return nil
	})
	if flip != nil {
		flip.Stop(0)
	}
	if err != nil {
		return nil, 0, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := node.WaitFor(ctx, seqOf[len(seqOf)-1], key); err != nil {
		return nil, 0, fmt.Errorf("bench: fig8 drain (%s): %w", run, err)
	}

	var buckets []testbed.Series
	var all testbed.Series
	for i, seq := range seqOf {
		d, ok := stamps.Latency(key, seq)
		if !ok {
			continue
		}
		lat := opts.rescale(d)
		all = append(all, lat)
		sec := int(sendTick[i] / time.Second)
		for len(buckets) <= sec {
			buckets = append(buckets, nil)
		}
		buckets[sec] = append(buckets[sec], lat)
	}
	return buckets, all.Avg(), nil
}
