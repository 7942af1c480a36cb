package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistogramOpts shape a histogram's fixed log-scale buckets.
//
// Observations are int64 values in an arbitrary base unit (nanoseconds,
// bytes, ...). Bucket i collects values v with bits.Len64(v) == i, i.e.
// v in [2^(i-1), 2^i); exponents are clamped to [MinPow, MaxPow] and
// values at or beyond 2^MaxPow land in a final overflow (+Inf) bucket.
// Unit converts one base unit into the exposed unit: a histogram observed
// in nanoseconds and exposed in seconds uses Unit = 1e-9.
type HistogramOpts struct {
	// Unit is the exposed value of one observed base unit (default 1).
	Unit float64
	// MinPow and MaxPow bound the bucket exponents (defaults 0 and 32).
	MinPow, MaxPow int
}

// LatencyOpts exposes nanosecond observations as seconds, with buckets from
// ~4µs (2^12 ns) to ~2.3min (2^37 ns).
var LatencyOpts = HistogramOpts{Unit: 1e-9, MinPow: 12, MaxPow: 37}

// SizeOpts exposes byte observations as bytes, with buckets from 16B to 16GiB.
var SizeOpts = HistogramOpts{Unit: 1, MinPow: 4, MaxPow: 34}

func (o HistogramOpts) normalized() HistogramOpts {
	if o.Unit == 0 {
		o.Unit = 1
	}
	if o.MinPow < 0 {
		o.MinPow = 0
	}
	if o.MaxPow <= o.MinPow {
		o.MaxPow = o.MinPow + 32
	}
	if o.MaxPow > 62 {
		o.MaxPow = 62
	}
	return o
}

// Histogram is a fixed-bucket log-scale histogram safe for concurrent
// observers. Observe is a bit-length computation plus three atomic adds: no
// locks, no allocation. A caller with a run of values to observe tallies
// them in a Tally and publishes the run with Tally.AddTo.
type Histogram struct {
	opts   HistogramOpts
	counts []atomic.Int64 // MaxPow-MinPow+1 bounded buckets, then overflow
	count  atomic.Int64
	sum    atomic.Int64 // base units
}

func newHistogram(opts HistogramOpts) *Histogram {
	opts = opts.normalized()
	return &Histogram{
		opts:   opts,
		counts: make([]atomic.Int64, opts.MaxPow-opts.MinPow+2),
	}
}

// NewHistogram returns a standalone histogram (not attached to a registry);
// use Registry.Histogram for registered families.
func NewHistogram(opts HistogramOpts) *Histogram { return newHistogram(opts) }

// Observe records one value in base units. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[h.bucket(bits.Len64(uint64(v)))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucket is the index of the bucket holding values of bit length l, clamped
// to the histogram's exponent range.
func (h *Histogram) bucket(l int) int {
	return min(max(l-h.opts.MinPow, 0), len(h.counts)-1)
}

// Tally collects observations for a Histogram without atomic operations, so
// a run of values costs one atomic add per touched bucket instead of three
// per value. A Tally is not safe for concurrent use; its zero value is empty.
type Tally struct {
	counts [64]int64 // by bits.Len64 of the (non-negative) value
	used   uint64    // bit l set while counts[l] != 0
	n, sum int64
}

// Observe tallies one value in base units. Negative values clamp to zero,
// as in Histogram.Observe.
func (t *Tally) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	l := bits.Len64(uint64(v))
	t.counts[l]++
	t.used |= 1 << l
	t.n++
	t.sum += v
}

// AddTo publishes the tally into h — one atomic add per touched bucket, then
// count and sum once each — and empties the tally.
func (t *Tally) AddTo(h *Histogram) {
	if t.n == 0 {
		return
	}
	for u := t.used; u != 0; u &= u - 1 {
		l := bits.TrailingZeros64(u)
		h.counts[h.bucket(l)].Add(t.counts[l])
		t.counts[l] = 0
	}
	h.count.Add(t.n)
	h.sum.Add(t.sum)
	t.used, t.n, t.sum = 0, 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// CountLe returns the number of observations whose bucket upper bound is at
// most v (in base units) — the cumulative count of every bucket entirely at
// or below v. It is the primitive behind SLO good-event counting: with a
// threshold on a bucket boundary it is exact, otherwise it conservatively
// excludes the bucket straddling v.
func (h *Histogram) CountLe(v int64) int64 {
	if v < 0 {
		return 0
	}
	var cum int64
	for i := 0; i < len(h.counts)-1; i++ {
		ub := int64(1) << uint(i+h.opts.MinPow)
		if ub > v {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// Sum returns the sum of observations in base units.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// Le is the bucket's inclusive upper bound in exposed units;
	// math.Inf(1) for the overflow bucket.
	Le float64 `json:"le"`
	// Count is the number of observations in this bucket (not cumulative).
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"` // exposed units
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state. Concurrent observers may land
// between bucket reads; totals are internally consistent to within the
// in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   float64(h.sum.Load()) * h.opts.Unit,
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, Bucket{Le: h.upperBound(i), Count: n})
	}
	return s
}

// upperBound is bucket i's inclusive upper bound in exposed units.
func (h *Histogram) upperBound(i int) float64 {
	if i == len(h.counts)-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i+h.opts.MinPow)) * h.opts.Unit
}

// Quantile estimates the q-quantile (0..1) in exposed units, assuming a
// uniform distribution inside each bucket. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			hi := h.upperBound(i)
			if math.IsInf(hi, 1) {
				// Overflow bucket: report its lower bound.
				return float64(uint64(1)<<uint(h.opts.MaxPow)) * h.opts.Unit
			}
			lo := hi / 2
			if i == 0 {
				lo = 0
			}
			frac := (rank - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return float64(uint64(1)<<uint(h.opts.MaxPow)) * h.opts.Unit
}
