package chaos

import (
	"io"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/metrics"
)

// TestChaosSoakSharedRegistryScrape runs a bounded soak with every node —
// crash-restarts included — instrumenting one shared registry, while a
// scraper continuously renders and snapshots it. Under -race this is the
// registry's concurrency proof: child resolution across shards, GaugeFunc
// re-binding on restart, and exposition all overlap the data plane.
func TestChaosSoakSharedRegistryScrape(t *testing.T) {
	seed := soakSeed(t)
	reg := metrics.NewRegistry()
	o := Options{
		Seed:    seed,
		Horizon: 1500 * time.Millisecond,
		Cluster: core.Config{Metrics: reg},
		Logf:    t.Logf,
	}
	if !testing.Short() {
		o.Horizon = 3 * time.Second
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			for _, fam := range reg.Snapshot() {
				_ = fam
			}
			time.Sleep(time.Millisecond)
		}
	}()

	rep, err := Soak(o)
	close(stop)
	wg.Wait()
	if err != nil {
		failSeeded(t, "soak", seed, err)
	}

	// Every node — restarted incarnations included — must be visible in
	// the one registry, under its own node label.
	fam := reg.Find("stabilizer_core_deliveries_total")
	if fam == nil {
		t.Fatal("shared registry missing stabilizer_core_deliveries_total")
	}
	nodes := map[string]bool{}
	var total float64
	for _, m := range fam.Metrics {
		nodes[m.Labels["node"]] = true
		total += m.Value
	}
	for _, id := range []string{"1", "2", "3", "4"} {
		if !nodes[id] {
			t.Errorf("node %s absent from shared registry (have %v)", id, nodes)
		}
	}
	if int64(total) != rep.Deliveries {
		t.Errorf("registry deliveries %v != report deliveries %d", total, rep.Deliveries)
	}
}
