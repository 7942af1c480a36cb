package bench

import (
	"fmt"
	"sync"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/emunet"
	"stabilizer/internal/pubsub"
	"stabilizer/internal/pulsarlike"
	"stabilizer/internal/testbed"
)

// Fig7SiteStats is one (system, rate, site) cell.
type Fig7SiteStats struct {
	AvgLatency time.Duration
	Throughput float64 // bits per second
	Messages   int
}

// Fig7Point is one sending-rate row.
type Fig7Point struct {
	RateMsgsPerSec int
	// Sites maps site name (UT2, WI, CLEM, MA) to its stats.
	Sites map[string]Fig7SiteStats
}

// Fig7Result holds both systems' series.
type Fig7Result struct {
	Stabilizer []Fig7Point
	Pulsar     []Fig7Point
}

// fig7Sites maps node index to the paper's site labels.
var fig7Sites = map[int]string{2: "UT2", 3: "WI", 4: "CLEM", 5: "MA"}

// Fig7 reproduces the pub/sub comparison (§VI-C): a publisher on Utah1
// streams 8 KB messages at increasing rates to subscribers on Utah2,
// Wisconsin, Clemson and Massachusetts, once through the Stabilizer
// pub/sub prototype and once through the Pulsar-like baseline.
//
// Expected shape: both systems bottleneck at the same WAN throughput with
// comparable latency on the WAN links (latency rising sharply once the
// rate exceeds link bandwidth); on the LAN link (UT2) the Pulsar-like
// baseline's latency grows with rate because of GC pauses while
// Stabilizer's stays flat.
//
// This experiment runs at TimeScale 1 regardless of Options.TimeScale:
// compressing time here would change the rate/bandwidth ratio that the
// figure is about.
func Fig7(opts Options) (*Fig7Result, error) {
	opts = opts.normalized()
	opts.TimeScale = 1

	rates := []int{250, 500, 1000, 2000, 4000, 8000, 16000}
	msgs := 10000
	if opts.Short {
		rates = []int{500, 4000, 16000}
		msgs = 1200
	}

	res := &Fig7Result{}
	for _, rate := range rates {
		p, err := fig7Stabilizer(opts, rate, msgs)
		if err != nil {
			return nil, err
		}
		res.Stabilizer = append(res.Stabilizer, *p)
	}
	for _, rate := range rates {
		p, err := fig7Pulsar(opts, rate, msgs)
		if err != nil {
			return nil, err
		}
		res.Pulsar = append(res.Pulsar, *p)
	}

	for _, block := range []struct {
		name   string
		points []Fig7Point
	}{{"Stabilizer", res.Stabilizer}, {"Pulsar-like", res.Pulsar}} {
		fmt.Fprintf(opts.Out, "Fig. 7 — %s pub/sub: latency (ms) / throughput (Mbit/s) per site\n", block.name)
		fmt.Fprintf(opts.Out, "%10s", "rate")
		for _, n := range []int{2, 3, 4, 5} {
			fmt.Fprintf(opts.Out, " %18s", fig7Sites[n])
		}
		fmt.Fprintln(opts.Out)
		for _, p := range block.points {
			fmt.Fprintf(opts.Out, "%10d", p.RateMsgsPerSec)
			for _, n := range []int{2, 3, 4, 5} {
				s := p.Sites[fig7Sites[n]]
				fmt.Fprintf(opts.Out, " %8s/%9s", ms(s.AvgLatency), mbps(s.Throughput))
			}
			fmt.Fprintln(opts.Out)
		}
	}
	return res, nil
}

// fig7Collector accumulates per-site latency and arrival statistics.
type fig7Collector struct {
	mu    sync.Mutex
	lat   map[string]testbed.Series
	first map[string]time.Time
	last  map[string]time.Time
	bytes map[string]int64
	count map[string]int
	done  chan struct{}
	want  int
	total int
}

func newFig7Collector(wantPerSite, sites int) *fig7Collector {
	return &fig7Collector{
		lat:   make(map[string]testbed.Series),
		first: make(map[string]time.Time),
		last:  make(map[string]time.Time),
		bytes: make(map[string]int64),
		count: make(map[string]int),
		done:  make(chan struct{}),
		want:  wantPerSite * sites,
	}
}

func (col *fig7Collector) add(site string, sentAt, recvAt time.Time, n int) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.lat[site] = append(col.lat[site], recvAt.Sub(sentAt))
	if col.first[site].IsZero() {
		col.first[site] = recvAt
	}
	col.last[site] = recvAt
	col.bytes[site] += int64(n)
	col.count[site]++
	col.total++
	if col.total == col.want {
		close(col.done)
	}
}

// wait blocks until every site has every message.
func (col *fig7Collector) wait(system string, rate int) error {
	select {
	case <-col.done:
		return nil
	case <-time.After(5 * time.Minute):
		col.mu.Lock()
		defer col.mu.Unlock()
		return fmt.Errorf("bench: fig7 %s rate %d: only %d/%d deliveries", system, rate, col.total, col.want)
	}
}

func (col *fig7Collector) point(rate int) *Fig7Point {
	col.mu.Lock()
	defer col.mu.Unlock()
	p := &Fig7Point{RateMsgsPerSec: rate, Sites: make(map[string]Fig7SiteStats)}
	for site, lats := range col.lat {
		elapsed := col.last[site].Sub(col.first[site]).Seconds()
		var thp float64
		if elapsed > 0 {
			thp = float64(col.bytes[site]) * 8 / elapsed
		}
		p.Sites[site] = Fig7SiteStats{
			AvgLatency: lats.Avg(),
			Throughput: thp,
			Messages:   col.count[site],
		}
	}
	return p
}

func fig7Stabilizer(opts Options, rate, msgs int) (*Fig7Point, error) {
	topo := config.CloudLabTopology(1)
	c, err := startCluster(topo, emunet.CloudLabMatrix(), opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	brokers := make([]*pubsub.Broker, topo.N())
	for i := 1; i <= topo.N(); i++ {
		b, err := pubsub.New(c.Node(i))
		if err != nil {
			return nil, fmt.Errorf("bench: broker %d: %w", i, err)
		}
		brokers[i-1] = b
	}
	col := newFig7Collector(msgs, len(fig7Sites))
	for idx, site := range fig7Sites {
		site := site
		brokers[idx-1].Subscribe(func(m pubsub.Message) {
			col.add(site, m.SentAt, m.ReceivedAt, len(m.Payload))
		})
	}
	if err := settle(c, brokers[0], len(fig7Sites)); err != nil {
		return nil, err
	}

	payload := make([]byte, 8<<10)
	if err := testbed.Paced(msgs, testbed.AtRate(float64(rate)), func(int) error {
		_, err := brokers[0].Publish(payload)
		return err
	}); err != nil {
		return nil, err
	}
	if err := col.wait("stabilizer", rate); err != nil {
		return nil, err
	}
	return col.point(rate), nil
}

// settle blocks until every link is up and pub has heard the subscription
// announcement of every subscribing site: a message published earlier either
// waits out a link's dial backoff or is "delivered" by a predicate that does
// not yet cover the missing sites.
func settle(c *testbed.Bed, pub *pubsub.Broker, sites int) error {
	if err := c.Ready(30 * time.Second); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if !testbed.Await(30*time.Second, func() bool { return len(pub.ActiveBrokers()) == sites }) {
		return fmt.Errorf("bench: publisher knows subscribers at %v, want %d sites", pub.ActiveBrokers(), sites)
	}
	return nil
}

func fig7Pulsar(opts Options, rate, msgs int) (*Fig7Point, error) {
	network := testbed.Network(opts.fabric(emunet.CloudLabMatrix()))
	defer network.Close()

	brokers := make([]*pulsarlike.Broker, 5)
	for i := 1; i <= 5; i++ {
		b, err := pulsarlike.New(pulsarlike.Config{Self: i, N: 5, Network: network})
		if err != nil {
			return nil, err
		}
		if err := b.Start(); err != nil {
			return nil, err
		}
		brokers[i-1] = b
	}
	defer func() {
		for _, b := range brokers {
			_ = b.Close()
		}
	}()

	col := newFig7Collector(msgs, len(fig7Sites))
	for idx, site := range fig7Sites {
		site := site
		brokers[idx-1].Subscribe(func(m pulsarlike.Message) {
			col.add(site, m.SentAt, m.ReceivedAt, len(m.Payload))
		})
	}

	payload := make([]byte, 8<<10)
	if err := testbed.Paced(msgs, testbed.AtRate(float64(rate)), func(int) error {
		_, err := brokers[0].Publish(payload)
		return err
	}); err != nil {
		return nil, err
	}
	if err := col.wait("pulsar", rate); err != nil {
		return nil, err
	}
	return col.point(rate), nil
}
