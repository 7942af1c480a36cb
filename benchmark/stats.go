package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks. It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// percentileLadder lists the tail percentiles a timing may be reported at,
// in units of 1/100 of a percent so the "samples beyond" count below is
// exact integer arithmetic.
var percentileLadder = []int{7500, 9000, 9500, 9900, 9990, 9999}

// topPercentile picks the highest percentile of the ladder that leaves at
// least ten of n samples beyond it. ok is false when even p75 does not.
func topPercentile(n int) (q float64, label string, ok bool) {
	for _, p := range percentileLadder {
		if n*(10000-p)/10000 < 10 {
			break
		}
		q, ok = float64(p)/10000, true
		label = "p" + strconv.FormatFloat(float64(p)/100, 'f', -1, 64)
	}
	return q, label, ok
}

// point is one reading of a cumulative completion count: n operations had
// completed t after the measured phase began.
type point struct {
	t time.Duration
	n uint64
}

// windowRates cuts the timeline into consecutive windows and returns the
// completion rate (per second) of each full one. A window's rate runs from
// the last reading at or before its start to the last reading inside it, so
// consecutive windows tile the timeline and a slow closed loop (a handful
// of completions per window) is not quantised to whole counts.
func windowRates(pts []point, window time.Duration) []float64 {
	if len(pts) < 2 {
		return nil
	}
	var rates []float64
	full := int(pts[len(pts)-1].t / window)
	from, i := pts[0], 1
	for w := 0; w < full; w++ {
		end := time.Duration(w+1) * window
		to := from
		for i < len(pts) && pts[i].t <= end {
			to = pts[i]
			i++
		}
		if to.t > from.t {
			rates = append(rates, float64(to.n-from.n)/(to.t-from.t).Seconds())
		} else {
			rates = append(rates, 0) // nothing completed in this window
		}
		from = to
	}
	return rates
}

// phaseRates is the completion rate of each one-second window of a phase, or
// the one rate over the whole phase when it is shorter than a window (smoke
// mode).
func phaseRates(pts []point) []float64 {
	if rates := windowRates(pts, time.Second); len(rates) > 0 {
		return rates
	}
	if len(pts) < 2 || pts[len(pts)-1].t == pts[0].t {
		return nil
	}
	first, last := pts[0], pts[len(pts)-1]
	return []float64{float64(last.n-first.n) / (last.t - first.t).Seconds()}
}

// excess is the library's own share of a wait: the measured latency minus
// the round trip of the link that decides the predicate.
func excess(latencyMS float64, floor time.Duration) float64 {
	return latencyMS - float64(floor)/float64(time.Millisecond)
}

// histBucket is one non-cumulative histogram bucket: count observations at
// or below le (and above the previous bucket's bound).
type histBucket struct {
	le    float64
	count int64
}

// bucketQuantile estimates the q-quantile of a log2-bucketed histogram the
// way metrics.Histogram.Quantile does: uniform inside the bucket, whose
// lower bound is half its upper bound.
func bucketQuantile(buckets []histBucket, q float64) float64 {
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	var total int64
	for _, b := range buckets {
		total += b.count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for _, b := range buckets {
		n := float64(b.count)
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if math.IsInf(b.le, 1) {
				return b.le
			}
			lo := b.le / 2
			return lo + (b.le-lo)*(rank-cum)/n
		}
		cum += n
	}
	return buckets[len(buckets)-1].le
}
