package transport

import (
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
)

// famTotal sums every child of a family, optionally filtered by label values.
func famTotal(t *testing.T, reg *metrics.Registry, name string, match map[string]string) float64 {
	t.Helper()
	fs := reg.Find(name)
	if fs == nil {
		t.Fatalf("family %q not registered", name)
	}
	var sum float64
outer:
	for _, m := range fs.Metrics {
		for k, v := range match {
			if m.Labels[k] != v {
				continue outer
			}
		}
		sum += m.Value
	}
	return sum
}

// TestZoneRollupsMatchPerPeerFamilies checks that the {az,region} rollup
// families account for exactly the same bytes and frames as the per-peer
// families they aggregate.
func TestZoneRollupsMatchPerPeerFamilies(t *testing.T) {
	const n = 3
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	tags := map[int]TopoTag{
		1: {AZ: "az-a", Region: "us"},
		2: {AZ: "az-b", Region: "us"},
		3: {AZ: "az-c", Region: "eu"},
	}
	regs := make([]*metrics.Registry, n+1)
	trs := make([]*Transport, n+1)
	recs := make([]*recorder, n+1)
	for i := 1; i <= n; i++ {
		regs[i] = metrics.NewRegistry()
		recs[i] = newRecorder()
		tr, err := New(Config{
			Self:           i,
			N:              n,
			Network:        net,
			Handler:        recs[i],
			Log:            NewSendLog(1),
			HeartbeatEvery: 20 * time.Millisecond,
			Metrics:        regs[i],
			TopoTags:       tags[i],
			PeerTags:       tags,
		})
		if err != nil {
			t.Fatalf("new transport %d: %v", i, err)
		}
		if err := tr.Start(); err != nil {
			t.Fatalf("start transport %d: %v", i, err)
		}
		trs[i] = tr
		defer tr.Close()
	}

	// Push some data from node 1 to everyone and let heartbeats flow.
	for i := 0; i < 20; i++ {
		if _, err := trs[1].cfg.Log.Append([]byte("payload"), time.Now().UnixNano()); err != nil {
			t.Fatal(err)
		}
	}
	trs[1].NotifyData()
	waitUntil(t, 5*time.Second, func() bool {
		return len(recs[2].dataSeqs(1)) == 20 && len(recs[3].dataSeqs(1)) == 20
	})

	for i := 1; i <= n; i++ {
		// Totals must agree exactly: a zone child is the sum of its peers'
		// counters. The two scrapes of a comparison are not one instant and
		// heartbeats keep landing between them, so poll until a pair agrees.
		for _, fam := range []string{"bytes_sent", "frames_recv"} {
			waitUntil(t, 5*time.Second, func() bool {
				perPeer := famTotal(t, regs[i], "stabilizer_transport_"+fam+"_total", nil)
				zone := famTotal(t, regs[i], "stabilizer_transport_zone_"+fam+"_total", nil)
				return perPeer > 0 && perPeer == zone
			})
		}
	}

	// Node 1's sends split across zones: peer 2 rolls up under az-b/us and
	// peer 3 under az-c/eu, never under node 1's own zone.
	if v := famTotal(t, regs[1], "stabilizer_transport_zone_bytes_sent_total",
		map[string]string{"az": "az-b", "region": "us"}); v <= 0 {
		t.Errorf("zone az-b/us saw no sent bytes from node 1")
	}
	if v := famTotal(t, regs[1], "stabilizer_transport_zone_bytes_sent_total",
		map[string]string{"az": "az-c", "region": "eu"}); v <= 0 {
		t.Errorf("zone az-c/eu saw no sent bytes from node 1")
	}
	if v := famTotal(t, regs[1], "stabilizer_transport_zone_bytes_sent_total",
		map[string]string{"az": "az-a", "region": "us"}); v != 0 {
		t.Errorf("node 1's own zone rolled up %v sent bytes, want 0", v)
	}
}
