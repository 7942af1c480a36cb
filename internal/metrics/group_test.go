package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGroupInjectsBaseLabels(t *testing.T) {
	root := NewRegistry()
	n1 := root.NodeGroup("1")
	n2 := root.NodeGroup("2")

	n1.Counter("grp_sends_total", "h").Add(5)
	n2.Counter("grp_sends_total", "h").Add(7)
	n1.CounterVec("grp_frames_total", "h", "kind").With("data").Add(3)
	n2.CounterVec("grp_frames_total", "h", "kind").With("ack").Add(4)

	var sb strings.Builder
	if err := root.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`grp_sends_total{node="1"} 5`,
		`grp_sends_total{node="2"} 7`,
		`grp_frames_total{node="1",kind="data"} 3`,
		`grp_frames_total{node="2",kind="ack"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One family, visible from every view over the same root.
	if fs := n1.Find("grp_sends_total"); fs == nil || len(fs.Metrics) != 2 {
		t.Fatalf("node view sees %+v, want the 2-child shared family", fs)
	}
}

func TestGroupSchemaMismatchPanics(t *testing.T) {
	root := NewRegistry()
	root.NodeGroup("1").Counter("grp_mismatch_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("root-level re-registration with fewer labels did not panic")
		}
	}()
	root.Counter("grp_mismatch_total", "h")
}

func TestGroupNesting(t *testing.T) {
	root := NewRegistry()
	g := root.Group("az", "us-east-1a").Group("node", "3")
	g.Counter("grp_nested_total", "h").Inc()
	fs := root.Find("grp_nested_total")
	if fs == nil || len(fs.Metrics) != 1 {
		t.Fatalf("family = %+v", fs)
	}
	m := fs.Metrics[0]
	if m.Labels["az"] != "us-east-1a" || m.Labels["node"] != "3" {
		t.Fatalf("labels = %v, want az+node base labels", m.Labels)
	}
}

func TestGaugeFuncReplacedOnLiveRegistry(t *testing.T) {
	root := NewRegistry()
	g := root.NodeGroup("1")
	g.GaugeFunc("grp_buffered", "h", func() float64 { return 1 })
	g.GaugeFunc("grp_buffered", "h", func() float64 { return 2 }) // restart re-binds
	fs := root.Find("grp_buffered")
	if fs == nil || len(fs.Metrics) != 1 || fs.Metrics[0].Value != 2 {
		t.Fatalf("family = %+v, want single child with replaced callback", fs)
	}
}

// TestCounterFuncVecSumsAtExposition is the zone-rollup shape: a callback
// child exposed as a counter whose value is derived from counters kept
// elsewhere, read when scraped and re-bound by a restart.
func TestCounterFuncVecSumsAtExposition(t *testing.T) {
	root := NewRegistry()
	g := root.NodeGroup("1")
	peers := g.CounterVec("grp_bytes_total", "h", "peer")
	a, b := peers.With("2"), peers.With("3")
	zone := g.CounterFuncVec("grp_zone_bytes_total", "h", "az")
	zone.Set(func() float64 { return -1 }, "az-b")
	zone.Set(func() float64 { return float64(a.Value() + b.Value()) }, "az-b") // restart re-binds
	a.Add(5)
	b.Add(7)
	fs := root.Find("grp_zone_bytes_total")
	if fs == nil || fs.Type != "counter" || len(fs.Metrics) != 1 {
		t.Fatalf("family = %+v, want one counter child", fs)
	}
	if m := fs.Metrics[0]; m.Value != 12 || m.Labels["az"] != "az-b" || m.Labels["node"] != "1" {
		t.Fatalf("child = %+v, want 12 under az-b of node 1", m)
	}
	var out strings.Builder
	if err := root.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE grp_zone_bytes_total counter\ngrp_zone_bytes_total{node=\"1\",az=\"az-b\"} 12\n"; !strings.Contains(out.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, out.String())
	}
}

func TestHistogramCountLe(t *testing.T) {
	h := NewHistogram(HistogramOpts{Unit: 1, MinPow: 2, MaxPow: 6})
	// Buckets (upper bounds): 4, 8, 16, 32, 64, +Inf.
	for _, v := range []int64{0, 3, 5, 9, 20, 100} {
		h.Observe(v)
	}
	for _, tc := range []struct {
		v    int64
		want int64
	}{
		{0, 0}, {3, 0}, {4, 2}, {8, 3}, {16, 4}, {31, 4}, {32, 5}, {64, 5}, {1 << 40, 5},
	} {
		if got := h.CountLe(tc.v); got != tc.want {
			t.Errorf("CountLe(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestSLOMonitorBurnTransitions drives the monitor with a synthetic clock:
// a burst of bad latency must fire both windows, and recovery must resolve
// once the short window drains.
func TestSLOMonitorBurnTransitions(t *testing.T) {
	h := NewHistogram(HistogramOpts{Unit: 1e-9, MinPow: 12, MaxPow: 37})
	var alerts []BurnAlert
	m, err := NewSLOMonitor(h, SLOConfig{
		Name:        "stab",
		Threshold:   1 << 20, // ~1ms in ns, on a bucket boundary
		Objective:   0.99,
		ShortWindow: time.Minute,
		LongWindow:  5 * time.Minute,
		Burn:        5,
		OnAlert:     func(a BurnAlert) { alerts = append(alerts, a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	now := time.Unix(1000, 0)
	step := 15 * time.Second
	good := func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(1 << 15) // well under threshold
		}
	}
	bad := func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(1 << 30) // ~1s, violates
		}
	}

	// Healthy traffic for 2 minutes.
	for i := 0; i < 8; i++ {
		good(100)
		m.Tick(now)
		now = now.Add(step)
	}
	if m.Firing() {
		t.Fatal("fired on healthy traffic")
	}
	// 100% bad for 1 minute: error rate 1.0, burn = 1.0/0.01 = 100 ≥ 5 in
	// both windows (the long window still holds the burst).
	for i := 0; i < 4; i++ {
		bad(100)
		m.Tick(now)
		now = now.Add(step)
	}
	if !m.Firing() {
		t.Fatal("did not fire under sustained burn")
	}
	// Recovery: healthy again until the short window is clean.
	for i := 0; i < 8; i++ {
		good(100)
		m.Tick(now)
		now = now.Add(step)
	}
	if m.Firing() {
		t.Fatal("did not resolve after recovery")
	}
	if len(alerts) != 2 || !alerts[0].Firing || alerts[1].Firing {
		t.Fatalf("alerts = %+v, want fire then resolve", alerts)
	}
	if alerts[0].ShortBurn < 5 || alerts[0].LongBurn < 5 {
		t.Fatalf("firing alert burn rates = %+v, want ≥ threshold", alerts[0])
	}
}

func TestSLOMonitorNoTrafficNoAlert(t *testing.T) {
	h := NewHistogram(LatencyOpts)
	m, err := NewSLOMonitor(h, SLOConfig{
		Name: "idle", Threshold: 1 << 20, Objective: 0.999,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	now := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		m.Tick(now)
		now = now.Add(time.Minute)
	}
	if m.Firing() {
		t.Fatal("fired with zero traffic")
	}
}

// BenchmarkRegistryResolve measures child resolution (Vec.With: a label-key
// join and a read-locked map lookup) from many goroutines through per-node
// group views — what a caller pays when it does not keep the resolved child.
// Hot paths do keep it (BenchmarkRegistryResolvedChild); compare -cpu 1,8
// for what the family's one RWMutex costs the ones that do not.
func BenchmarkRegistryResolve(b *testing.B) {
	root := NewRegistry()
	const nodes = 16
	views := make([]*Registry, nodes)
	for i := range views {
		views[i] = root.NodeGroup(fmt.Sprint(i + 1))
	}
	var next sync.Mutex
	id := 0
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		next.Lock()
		v := views[id%nodes]
		id++
		next.Unlock()
		cv := v.CounterVec("bench_frames_total", "h", "peer", "kind")
		i := 0
		for pb.Next() {
			// Resolve through the vec each iteration.
			cv.With(peerLabels[i&7], "data").Inc()
			i++
		}
	})
}

var peerLabels = [8]string{"1", "2", "3", "4", "5", "6", "7", "8"}

// BenchmarkRegistryResolvedChild is the baseline: children resolved once,
// updates are single atomic adds regardless of node count.
func BenchmarkRegistryResolvedChild(b *testing.B) {
	root := NewRegistry()
	c := root.NodeGroup("1").Counter("bench_resolved_total", "h")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
