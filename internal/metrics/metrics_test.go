package metrics

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Add(-1)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestVecWithReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_total", "help", "peer")
	a := v.With("2")
	b := v.With("2")
	if a != b {
		t.Fatal("With with equal labels returned distinct counters")
	}
	if v.With("3") == a {
		t.Fatal("With with different labels returned the same counter")
	}
	// Get-or-create: re-fetching the family yields the same children.
	if r.CounterVec("test_total", "help", "peer").With("2") != a {
		t.Fatal("re-fetched family lost its children")
	}
}

func TestRegistrySchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram(HistogramOpts{Unit: 1, MinPow: 2, MaxPow: 6})
	// Buckets (inclusive upper bounds): 4, 8, 16, 32, 64, +Inf.
	for _, v := range []int64{0, 3, 4, 5, 9, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	s := h.Snapshot()
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 7 {
		t.Fatalf("bucket counts sum to %d, want 7", total)
	}
	// 0 and 3 land in the first bucket (le=4); 4 and 5 in le=8; 9 in le=16;
	// 100 and 2^40 overflow into +Inf.
	want := map[float64]int64{4: 2, 8: 2, 16: 1, math.Inf(1): 2}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%v count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
	if q := h.Quantile(0.5); q <= 0 || q > 16 {
		t.Fatalf("p50 = %v out of sane range", q)
	}
	if q := h.Quantile(1); q != 64 {
		t.Fatalf("p100 = %v, want overflow lower bound 64", q)
	}
}

// TestTallyMatchesObserve feeds the same values to one histogram value by
// value and to another through tallies published in runs of uneven length:
// both must end bucket for bucket, count and sum alike, and a published tally
// must be empty.
func TestTallyMatchesObserve(t *testing.T) {
	opts := HistogramOpts{Unit: 1, MinPow: 4, MaxPow: 20}
	values := []int64{
		math.MinInt64, -5, -1, 0, 1, 7, 15, // clamp to zero or below 2^MinPow
		16, 17, 31, 32,
		1<<20 - 1, 1 << 20, 1<<20 + 1, 1 << 40, 1 << 62, // at and past 2^MaxPow
	}
	for i := int64(0); i < 500; i++ {
		values = append(values, i*i*i*37)
	}
	direct, tallied := NewHistogram(opts), NewHistogram(opts)
	var tally Tally
	run := 1
	for i, v := range values {
		direct.Observe(v)
		tally.Observe(v)
		if i%run == 0 {
			tally.AddTo(tallied)
			if tally != (Tally{}) {
				t.Fatalf("tally after AddTo = %+v, want empty", tally)
			}
			run = run%7 + 1
		}
	}
	tally.AddTo(tallied)
	tally.AddTo(tallied) // empty: adds nothing

	if d, g := direct.Count(), tallied.Count(); d != g || d != int64(len(values)) {
		t.Fatalf("count: Observe %d, Tally %d, want %d", d, g, len(values))
	}
	if d, g := direct.Sum(), tallied.Sum(); d != g {
		t.Fatalf("sum: Observe %d, Tally %d", d, g)
	}
	if d, g := direct.Snapshot(), tallied.Snapshot(); !reflect.DeepEqual(d, g) {
		t.Fatalf("snapshot: Observe %+v, Tally %+v", d, g)
	}
	for p := opts.MinPow; p <= opts.MaxPow+1; p++ {
		for _, le := range []int64{1<<p - 1, 1 << p} {
			if d, g := direct.CountLe(le), tallied.CountLe(le); d != g {
				t.Fatalf("CountLe(%d): Observe %d, Tally %d", le, d, g)
			}
		}
	}
}

// TestHistogramConcurrency hammers one histogram from parallel observers
// while a reader snapshots, quantiles and renders it. Run under -race.
func TestHistogramConcurrency(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat_seconds", "help", LatencyOpts, "key")
	h := hv.With("k")

	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() { // reader
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = h.Snapshot()
			_ = h.Quantile(0.99)
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(seed int64) {
			defer writerWg.Done()
			v := seed
			for i := 0; i < perWriter; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				hv.With("k").Observe(v % (1 << 30)) // resolve + observe concurrently
			}
		}(int64(w + 1))
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()

	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
	s := h.Snapshot()
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != writers*perWriter {
		t.Fatalf("buckets sum to %d, want %d", total, writers*perWriter)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("stab_bytes_total", "bytes moved", "peer").With("2").Add(17)
	r.Gauge("stab_up", "liveness").Set(1)
	r.GaugeFunc("stab_buffered_bytes", "buffer", func() float64 { return 3.5 })
	r.Histogram("stab_lat_seconds", "latency", HistogramOpts{Unit: 1e-9, MinPow: 10, MaxPow: 20}).Observe(2048)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE stab_bytes_total counter",
		`stab_bytes_total{peer="2"} 17`,
		"# TYPE stab_up gauge",
		"stab_up 1",
		"stab_buffered_bytes 3.5",
		"# TYPE stab_lat_seconds histogram",
		`stab_lat_seconds_bucket{le="+Inf"} 1`,
		"stab_lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
