package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/metrics"
)

// TestStabilityLatencyHistogram drives a KTH_MIN predicate on a 3-node
// in-memory cluster sharing one metrics registry and asserts the headline
// stability-latency histogram records one sane sample per stabilized message,
// and each receiver's delivery-lag histogram one per delivered message. The
// burst fits the send-time ring, so advances cover ranges of sequences and
// receive runs hold many frames: a sample lost or doubled while a range or a
// run is tallied shows as a count off 2 000.
func TestStabilityLatencyHistogram(t *testing.T) {
	reg := metrics.NewRegistry()
	topo := flatTopology(3)
	c := &cluster{net: emunet.NewMemNetwork(nil)}
	for i := 1; i <= topo.N(); i++ {
		n, err := Open(Config{
			Topology:       topo.WithSelf(i),
			Network:        c.net,
			HeartbeatEvery: 20 * time.Millisecond,
			Metrics:        reg,
		})
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			_ = n.Close()
		}
		_ = c.net.Close()
	})

	sender := c.nodes[0]
	if err := sender.RegisterPredicate("maj", "KTH_MIN(2, $ALLWNODES)"); err != nil {
		t.Fatalf("register predicate: %v", err)
	}

	const msgs = 2000
	var lastSeq uint64
	for i := 0; i < msgs; i++ {
		seq, err := sender.Send([]byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		lastSeq = seq
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, lastSeq, "maj"); err != nil {
		t.Fatalf("waitfor: %v", err)
	}

	fam := reg.Find("stabilizer_stability_latency_seconds")
	if fam == nil {
		t.Fatal("stabilizer_stability_latency_seconds family not registered")
	}
	var found bool
	for _, m := range fam.Metrics {
		if m.Labels["node"] != "1" || m.Labels["predicate"] != "maj" {
			continue
		}
		found = true
		h := m.Histogram
		if h == nil {
			t.Fatal("maj metric is not a histogram")
		}
		if h.Count != msgs {
			t.Errorf("latency samples = %d, want %d", h.Count, msgs)
		}
		// Sane: strictly positive and below the 10s test deadline.
		if h.Sum <= 0 || h.Sum > 10*msgs {
			t.Errorf("latency sum = %v s, out of sane range", h.Sum)
		}
	}
	if !found {
		t.Fatal("no stability-latency histogram for predicate \"maj\"")
	}

	// The snapshot reads the same counters the registry exposes.
	s := sender.Snapshot()
	if s.Sends != msgs {
		t.Errorf("Snapshot.Sends = %d, want %d", s.Sends, msgs)
	}
	if s.BytesSent == 0 || s.BytesRecv == 0 {
		t.Errorf("Snapshot bandwidth accounting asymmetric: sent=%d recv=%d", s.BytesSent, s.BytesRecv)
	}
	if s.Waiters != 0 {
		t.Errorf("Snapshot.Waiters = %d, want 0", s.Waiters)
	}
	// A receiver's snapshot must show symmetric accounting: data frames in,
	// recv cursor advanced for the sender. KTH_MIN(2, ...) released the
	// wait as soon as ONE receiver acked, so a receiver may still be
	// catching up — poll briefly before judging its counters. Its lag
	// samples are published before its delivery count moves.
	for _, rn := range c.nodes[1:] {
		var r Snapshot
		deadline := time.Now().Add(5 * time.Second)
		for {
			r = rn.Snapshot()
			if (r.RecvLast[1] == lastSeq && r.Deliveries == msgs) || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if r.DataFramesRecv < msgs {
			t.Errorf("receiver %d DataFramesRecv = %d, want >= %d", rn.Self(), r.DataFramesRecv, msgs)
		}
		if r.RecvLast[1] != lastSeq {
			t.Errorf("receiver %d RecvLast[1] = %d, want %d", rn.Self(), r.RecvLast[1], lastSeq)
		}
		if r.Deliveries != msgs {
			t.Errorf("receiver %d Deliveries = %d, want %d", rn.Self(), r.Deliveries, msgs)
		}
		lag := reg.NodeGroup(strconv.Itoa(rn.Self())).Histogram("stabilizer_core_delivery_lag_seconds",
			"Origin send timestamp to local delivery.", metrics.LatencyOpts)
		if got := lag.Count(); got != msgs {
			t.Errorf("receiver %d delivery-lag samples = %d, want %d", rn.Self(), got, msgs)
		}
	}

	// Prometheus exposition includes the histogram with its label.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("write prometheus: %v", err)
	}
	if !strings.Contains(sb.String(), `stabilizer_stability_latency_seconds_count{node="1",predicate="maj"} 2000`) {
		t.Errorf("prometheus output missing labeled stability-latency count:\n%s", sb.String())
	}
}

// TestSnapshotNeverShowsAHalfSwappedPredicate swaps one key between two
// sources in a loop beside Snapshot. Nobody reports "persisted", so each
// source's frontier sits at 0 below a head of 1, held by the one peer it
// reads: the verdict names its source, its dependencies and, through Holding,
// its cells. An entry is read under one hold of the registry lock, so it
// matches one source whole, never one's source with the other's read set.
func TestSnapshotNeverShowsAHalfSwappedPredicate(t *testing.T) {
	c := startCluster(t, flatTopology(3), nil)
	node := c.nodes[0]
	sources := [2]string{"MIN($2.persisted)", "MIN($3.persisted)"}
	if err := node.RegisterPredicate("swapped", sources[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	churned := make(chan error, 1)
	go func() {
		for i := 1; ; i++ {
			select {
			case <-stop:
				churned <- nil
				return
			default:
			}
			if err := node.ChangePredicate("swapped", sources[i%2]); err != nil {
				churned <- err
				return
			}
		}
	}()
	for i := 0; i < 20000 && !t.Failed(); i++ {
		for _, p := range node.Snapshot().Predicates {
			if p.Key != "swapped" {
				continue
			}
			peer := 2
			if p.Source == sources[1] {
				peer = 3
			}
			if p.Source != sources[peer-2] || !slices.Equal(p.DependsOn, []int{peer}) ||
				len(p.Holding) != 1 || p.Holding[0].Peer != peer {
				t.Errorf("snapshot %d shows a half-swapped predicate: %+v", i, p)
			}
		}
	}
	close(stop)
	if err := <-churned; err != nil {
		t.Fatalf("churn: %v", err)
	}
}

// TestSnapshotTotalsEqualPerPeerFamilies: a Snapshot total is the sum of its
// family's children under the node's label and nothing else. Three nodes in
// one registry, traffic both ways, a partition long enough to trip the
// failure detector and a flap; the nodes are then closed, so the counters
// stand still and the comparison is exact.
func TestSnapshotTotalsEqualPerPeerFamilies(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	inj := faultinject.New(net, nil)
	reg := metrics.NewRegistry()
	cl, err := OpenCluster(Config{
		Topology:       flatTopology(3),
		Network:        net,
		HeartbeatEvery: 10 * time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	nodes := cl.Nodes()

	// exchange sends k messages from nodes 1 and 2 and waits until everybody
	// has received both streams.
	heads := map[int]uint64{}
	exchange := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			for _, origin := range []int{1, 2} {
				seq, err := cl.Node(origin).Send([]byte(fmt.Sprintf("m-%d-%d", origin, i)))
				if err != nil {
					t.Fatalf("send from %d: %v", origin, err)
				}
				heads[origin] = seq
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for origin, head := range heads {
			if err := cl.WaitAllReceive(ctx, origin, head); err != nil {
				t.Fatalf("stream of node %d did not reach everybody: %v", origin, err)
			}
		}
	}
	exchange(10)
	inj.Partition([]int{3}, 3)
	waitUntil(t, 5*time.Second, "a failure-detector trip", func() bool {
		return nodes[0].Snapshot().FailureDetectorTrips > 0 && nodes[2].Snapshot().FailureDetectorTrips > 0
	})
	if _, err := nodes[0].Send([]byte("into the partition")); err != nil {
		t.Fatal(err)
	}
	inj.HealPartition([]int{3}, 3)
	inj.Flap(1, 2)
	exchange(10)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	sum := func(family string, match map[string]string) int64 {
		t.Helper()
		fs := reg.Find(family)
		if fs == nil {
			t.Fatalf("family %q not registered", family)
		}
		var total float64
	children:
		for _, m := range fs.Metrics {
			for k, v := range match {
				if m.Labels[k] != v {
					continue children
				}
			}
			total += m.Value
		}
		return int64(total)
	}
	var reconnects int64
	for _, n := range nodes {
		s := n.Snapshot()
		id := map[string]string{"node": fmt.Sprint(s.Self)}
		kind := func(k, v string) map[string]string { return map[string]string{"node": id["node"], k: v} }
		for _, c := range []struct {
			field  string
			got    int64
			family string
			match  map[string]string
		}{
			{"BytesSent", s.BytesSent, "stabilizer_transport_bytes_sent_total", id},
			{"BytesRecv", s.BytesRecv, "stabilizer_transport_bytes_recv_total", id},
			{"DataFramesSent", s.DataFramesSent, "stabilizer_transport_frames_sent_total", kind("kind", "data")},
			{"DataFramesRecv", s.DataFramesRecv, "stabilizer_transport_frames_recv_total", kind("kind", "data")},
			{"ResentFrames", s.ResentFrames, "stabilizer_transport_data_resent_total", id},
			{"Reconnects", s.Reconnects, "stabilizer_transport_reconnects_total", id},
			{"FailureDetectorTrips", s.FailureDetectorTrips, "stabilizer_transport_failure_detector_trips_total", id},
			{"Sends", s.Sends, "stabilizer_core_sends_total", id},
			{"Deliveries", s.Deliveries, "stabilizer_core_deliveries_total", id},
			{"Log.BlockedAppends", s.Log.BlockedAppends, "stabilizer_transport_backpressure_total", kind("outcome", "blocked")},
			{"Log.ShedAppends", s.Log.ShedAppends, "stabilizer_transport_backpressure_total", kind("outcome", "shed")},
		} {
			if want := sum(c.family, c.match); c.got != want {
				t.Errorf("node %d: Snapshot.%s = %d, %s%v sums to %d", s.Self, c.field, c.got, c.family, c.match, want)
			}
		}
		if s.BytesSent == 0 || s.BytesRecv == 0 || s.DataFramesRecv == 0 {
			t.Errorf("node %d saw no traffic: %+v", s.Self, s.Totals)
		}
		reconnects += s.Reconnects
	}
	if reconnects == 0 {
		t.Error("a partition and a flap caused no reconnect: the test exercised no redial")
	}
}
