package main

import (
	"math"
	"testing"
	"time"

	"stabilizer"
)

func TestTopPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		ok    bool
	}{
		{39, "", false}, // even p75 would leave nine
		{40, "p75", true},
		{99, "p75", true},
		{100, "p90", true},
		{199, "p90", true}, // p95 would leave 9.95
		{200, "p95", true},
		{999, "p95", true},
		{1000, "p99", true},
		{10000, "p99.9", true},
		{100000, "p99.99", true},
		{5000000, "p99.99", true},
	} {
		q, label, ok := topPercentile(tc.n)
		if ok != tc.ok || label != tc.label {
			t.Errorf("topPercentile(%d) = %v, %q, %v; want %q, %v", tc.n, q, label, ok, tc.label, tc.ok)
		}
		if ok {
			if beyond := float64(tc.n) * (1 - q); beyond < 10-1e-6 {
				t.Errorf("topPercentile(%d) = %s leaves %.2f samples beyond", tc.n, label, beyond)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(s, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestWindowRatesTileTheTimeline(t *testing.T) {
	// A closed loop finishing 4 operations every 150 ms: 26.67/s, which
	// whole counts per one-second window (24 or 28) would misreport.
	var pts []point
	for i := 0; i <= 40; i++ {
		pts = append(pts, point{t: time.Duration(i) * 150 * time.Millisecond, n: uint64(4 * i)})
	}
	rates := windowRates(pts, time.Second)
	if len(rates) != 6 {
		t.Fatalf("got %d windows over 6.0 s, want 6", len(rates))
	}
	for i, r := range rates {
		if math.Abs(r-4/0.15) > 1e-9 {
			t.Errorf("window %d: %.4f/s, want %.4f", i, r, 4/0.15)
		}
	}
}

func TestWindowThroughputIsTheMedianWindow(t *testing.T) {
	// Five windows at 1000/s, one stalled (nothing completes), one burst.
	pts := []point{{0, 0}}
	n := uint64(0)
	at := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	for w, perWindow := range []uint64{1000, 1000, 0, 5000, 1000, 1000, 1000} {
		if perWindow == 0 {
			continue
		}
		n += perWindow
		pts = append(pts, point{at(float64(w) + 1), n})
	}
	rates := windowRates(pts, time.Second)
	if len(rates) != 7 || rates[2] != 0 {
		t.Fatalf("rates = %v, want 7 windows with the third empty", rates)
	}
	// The window after the stall spans two seconds of wall time.
	if rates[3] != 2500 {
		t.Errorf("window after the stall = %v/s, want 2500", rates[3])
	}
	if got := median(phaseRates(pts)); got != 1000 {
		t.Errorf("throughput = %v, want the median window, 1000", got)
	}
	// Shorter than one window: the rate over what there is.
	if got := phaseRates([]point{{0, 0}, {at(0.5), 100}}); len(got) != 1 || got[0] != 200 {
		t.Errorf("rates over half a second = %v, want [200]", got)
	}
}

func TestExcessOverMatrixRoundTrip(t *testing.T) {
	m, topo := stabilizer.EC2Matrix(), stabilizer.EC2Topology(1)
	for kind, wantMS := range map[opKind]float64{
		kindOne:    3.7,   // node 2, the other N. California zone
		kindMajReg: 53.87, // Ohio: second fastest of three remote regions
		kindAll:    64.12, // N. Virginia
		kindQRead:  23.29, // Oregon: fastest remote member of {1,7,8}
	} {
		floor := floorRTT(m, topo, 1, kind)
		if got := ms(floor); math.Abs(got-wantMS) > 1e-6 {
			t.Errorf("%s floor = %.4f ms, want %.4f", kindNames[kind], got, wantMS)
		}
		if got := excess(wantMS+1.25, floor); math.Abs(got-1.25) > 1e-6 {
			t.Errorf("%s excess = %.4f ms, want 1.25", kindNames[kind], got)
		}
	}
	if f := floorRTT(nil, topo, 1, kindAll); f != 0 {
		t.Errorf("unshaped fabric floor = %v, want 0", f)
	}
}

func TestBucketQuantile(t *testing.T) {
	// 10 observations in (0.5,1], 30 in (1,2]: the median is a third of the
	// way into the second bucket.
	got := bucketQuantile([]histBucket{{le: 2, count: 30}, {le: 1, count: 10}}, 0.5)
	if want := 1 + 1.0/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("bucketQuantile = %v, want %v", got, want)
	}
	if bucketQuantile(nil, 0.5) != 0 {
		t.Error("empty histogram should read 0")
	}
}
