package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"stabilizer"
)

// counters is one reading of the cluster's own instrumentation, summed over
// every node and peer, plus the process's resource use. Two readings are
// differenced across a measured phase.
type counters struct {
	sends, sendBytes, deliveries       float64
	dataFrames, ackFrames, wireBytes   float64
	resent, reconnects                 float64
	predEvals, recomputes, monitorFire float64
	// deliveryLag is stabilizer_core_delivery_lag_seconds, summed over
	// nodes, keyed by bucket upper bound.
	deliveryLag map[float64]int64

	cpuUS, allocBytes, mallocs, gcPauseMS float64
}

// readCounters snapshots the registry every node of the cluster reports to.
func readCounters(reg *stabilizer.MetricsRegistry) counters {
	c := counters{deliveryLag: map[float64]int64{}}
	for _, fam := range reg.Snapshot() {
		for _, m := range fam.Metrics {
			switch fam.Name {
			case "stabilizer_core_sends_total":
				c.sends += m.Value
			case "stabilizer_core_send_bytes_total":
				c.sendBytes += m.Value
			case "stabilizer_core_deliveries_total":
				c.deliveries += m.Value
			case "stabilizer_transport_frames_sent_total":
				switch m.Labels["kind"] {
				case "data":
					c.dataFrames += m.Value
				case "ack":
					c.ackFrames += m.Value
				}
			case "stabilizer_transport_bytes_sent_total":
				c.wireBytes += m.Value
			case "stabilizer_transport_data_resent_total":
				c.resent += m.Value
			case "stabilizer_transport_reconnects_total":
				c.reconnects += m.Value
			case "stabilizer_frontier_pred_evals_total":
				c.predEvals += m.Value
			case "stabilizer_frontier_recomputes_total":
				c.recomputes += m.Value
			case "stabilizer_frontier_monitor_fires_total":
				c.monitorFire += m.Value
			case "stabilizer_core_delivery_lag_seconds":
				if m.Histogram != nil {
					for _, b := range m.Histogram.Buckets {
						c.deliveryLag[b.Le] += b.Count
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuUS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.allocBytes, c.mallocs, c.gcPauseMS = float64(mem.TotalAlloc), float64(mem.Mallocs), float64(mem.PauseTotalNs)/1e6
	return c
}

// sub returns the change from before to c.
func (c counters) sub(o counters) counters {
	d := counters{deliveryLag: make(map[float64]int64, len(c.deliveryLag))}
	for _, f := range []struct{ dst, a, b *float64 }{
		{&d.sends, &c.sends, &o.sends}, {&d.sendBytes, &c.sendBytes, &o.sendBytes},
		{&d.deliveries, &c.deliveries, &o.deliveries},
		{&d.dataFrames, &c.dataFrames, &o.dataFrames}, {&d.ackFrames, &c.ackFrames, &o.ackFrames},
		{&d.wireBytes, &c.wireBytes, &o.wireBytes},
		{&d.resent, &c.resent, &o.resent}, {&d.reconnects, &c.reconnects, &o.reconnects},
		{&d.predEvals, &c.predEvals, &o.predEvals}, {&d.recomputes, &c.recomputes, &o.recomputes},
		{&d.monitorFire, &c.monitorFire, &o.monitorFire},
		{&d.cpuUS, &c.cpuUS, &o.cpuUS}, {&d.allocBytes, &c.allocBytes, &o.allocBytes},
		{&d.mallocs, &c.mallocs, &o.mallocs}, {&d.gcPauseMS, &c.gcPauseMS, &o.gcPauseMS},
	} {
		*f.dst = *f.a - *f.b
	}
	for le, n := range c.deliveryLag {
		d.deliveryLag[le] = n
	}
	for le, n := range o.deliveryLag {
		d.deliveryLag[le] -= n
	}
	return d
}

func (c counters) deliveryLagBuckets() []histBucket {
	bs := make([]histBucket, 0, len(c.deliveryLag))
	for le, n := range c.deliveryLag {
		bs = append(bs, histBucket{le: le, count: n})
	}
	return bs
}

// rssPeakMB is the process's peak resident set so far.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// heapSampler tracks the peak of live heap objects over a phase without
// stopping the world (runtime/metrics, not ReadMemStats).
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak it saw.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
