package bench

import (
	"strconv"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/metrics"
)

// stabilityHistogram returns node's stability-latency histogram for one
// predicate from the cluster's registry: the
// stabilizer_stability_latency_seconds{node,predicate} child the /metrics
// endpoint exposes.
func stabilityHistogram(cl *core.Cluster, node int, pred string) *metrics.Histogram {
	return cl.Metrics().NodeGroup(strconv.Itoa(node)).HistogramVec("stabilizer_stability_latency_seconds",
		"", metrics.LatencyOpts, "predicate").With(pred)
}

// stabilityQuantile reads the q-quantile stability latency of pred from
// node's histogram, rescaled to paper time units. The histogram observes
// raw wall-clock time (exposed as seconds), so the same rescale applies as
// to series built from wall-clock timestamps. Returns 0 when the predicate
// has no observations.
func (o Options) stabilityQuantile(cl *core.Cluster, node int, pred string, q float64) time.Duration {
	secs := stabilityHistogram(cl, node, pred).Quantile(q)
	return o.rescale(time.Duration(secs * float64(time.Second)))
}
