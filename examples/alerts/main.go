// SLO burn-rate alerting, in process: the runnable twin of the Prometheus
// rules in stability-slo.rules.yml. A three-node cluster streams updates
// over an emulated WAN while an SLOMonitor on the sender's node tick watches
// each predicate's stability-latency histogram and fires multiwindow burn
// alerts — no Prometheus server required.
//
// The demo registers two consistency models: "eu" stabilizes within the
// ~10ms European ring and comfortably meets a 33ms objective, while "all"
// must cross the 120ms Tokyo link and burns its budget on every message.
// Watch the "all" monitor fire and then resolve once traffic stops.
//
//	go run ./examples/alerts
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"stabilizer"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "alerts:", err)
		os.Exit(1)
	}
}

func run() error {
	topo := &stabilizer.Topology{
		Self: 1,
		Nodes: []stabilizer.TopologyNode{
			{Name: "Frankfurt", AZ: "eu1", Region: "EU"},
			{Name: "Dublin", AZ: "eu2", Region: "EU"},
			{Name: "Tokyo", AZ: "ap1", Region: "AP"},
		},
	}
	matrix := stabilizer.NewMatrix()
	matrix.SetSymmetric(1, 2, stabilizer.Link{OneWayLatency: 10 * time.Millisecond, BandwidthBps: stabilizer.Mbps(500)})
	matrix.SetSymmetric(1, 3, stabilizer.Link{OneWayLatency: 120 * time.Millisecond, BandwidthBps: stabilizer.Mbps(80)})
	matrix.SetSymmetric(2, 3, stabilizer.Link{OneWayLatency: 115 * time.Millisecond, BandwidthBps: stabilizer.Mbps(80)})
	network := stabilizer.NewMemNetwork(matrix)
	defer network.Close()

	// The monitors sample on the node tick, every HeartbeatEvery.
	cluster, err := stabilizer.OpenCluster(stabilizer.ClusterConfig{
		Topology:       topo,
		Network:        network,
		Metrics:        stabilizer.NewMetricsRegistry(),
		HeartbeatEvery: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	frankfurt := cluster.Node(1)

	if err := frankfurt.RegisterPredicate("eu", "MIN($WNODE_Dublin)"); err != nil {
		return err
	}
	if err := frankfurt.RegisterPredicate("all", stabilizer.AllWNodes()); err != nil {
		return err
	}

	// SLO: 99% of stabilizations complete within ~33.5ms (2^25 ns — the
	// histogram's buckets are powers of two, so thresholds snap to bucket
	// bounds, exactly like the `le` selector in the Prometheus rules).
	// The windows are demo-scale seconds; production rules use the
	// 5m/1h pairing from stability-slo.rules.yml.
	slo := func(pred string) (*stabilizer.SLOMonitor, error) {
		return stabilizer.NewSLOMonitor(frankfurt, pred,
			stabilizer.SLOConfig{
				Threshold:   1 << 25, // ns
				Objective:   0.99,
				ShortWindow: time.Second,
				LongWindow:  4 * time.Second,
				Burn:        10,
				OnAlert: func(a stabilizer.BurnAlert) {
					state := "RESOLVED"
					if a.Firing {
						state = "FIRING"
					}
					log.Printf("[alert] %-8s %s: burn %.1fx (short) / %.1fx (long)",
						state, a.Name, a.ShortBurn, a.LongBurn)
				},
			})
	}
	for _, pred := range []string{"eu", "all"} {
		m, err := slo(pred)
		if err != nil {
			return err
		}
		defer m.Close()
	}

	// Traffic: every message waits on both predicates, so both histograms
	// observe every send. "eu" stabilizes in ~20ms, "all" in ~240ms.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	log.Printf("sending for 5s; 'all' must cross the 120ms Tokyo link and will burn")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		seq, err := frankfurt.Send([]byte("update"))
		if err != nil {
			return err
		}
		for _, pred := range []string{"eu", "all"} {
			if err := frankfurt.WaitFor(ctx, seq, pred); err != nil {
				return err
			}
		}
	}

	log.Printf("traffic stopped; waiting for the burn to resolve")
	time.Sleep(6 * time.Second)
	return nil
}
