// Package testbed owns the life of an in-process experiment cluster — the
// paper's evaluation shape (§VI: many WAN nodes per machine over emulated
// links). It boots the cluster over an emulated fabric, says when every link
// is usable (Ready), restarts a node without letting traffic race the
// caller's hooks (Restart), and tears everything down in order. drivers.go
// holds the loops every experiment repeats and stamps.go the per-sequence
// latency recorder, so internal/bench and internal/chaos state only what is
// particular to a figure or a fault scenario. Every wall-clock wait of those
// two packages' rigs lives here.
package testbed

import (
	"fmt"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/metrics"
)

// Fabric describes the emulated network a bed runs over.
type Fabric struct {
	// Matrix holds the per-link latency, jitter and bandwidth; nil leaves
	// every link unshaped.
	Matrix *emunet.Matrix
	// Kind picks in-process pipes ("mem", also the zero value) or loopback
	// TCP ("tcp").
	Kind string
	// TimeScale divides the matrix's latencies and multiplies its bandwidth;
	// ≤ 0 means 1.
	TimeScale float64
	// Seed pins the fabric's jitter draws; zero keeps the fabric's default.
	Seed int64
	// Faults puts a faultinject.Injector on the memory fabric (Bed.Inj);
	// Boot refuses it on TCP, whose sockets carry no faults.
	Faults bool
}

// fabric is what both emunet fabrics offer beyond emunet.Network.
type fabric interface {
	emunet.Network
	Seed(int64)
}

func (f Fabric) open() fabric {
	m := f.Matrix
	if m != nil && f.TimeScale > 0 {
		m = m.Scaled(f.TimeScale)
	}
	var net fabric
	if f.Kind == "tcp" {
		net = emunet.NewTCPNetwork(m)
	} else {
		net = emunet.NewMemNetwork(m)
	}
	if f.Seed != 0 {
		net.Seed(f.Seed)
	}
	return net
}

// Network builds the fabric alone, for baselines that run their own
// endpoints over it (the Pulsar-like brokers, the link probes). The caller
// closes it.
func Network(f Fabric) emunet.Network { return f.open() }

// Flat returns an n-node topology with every node in an availability zone and
// region of its own.
func Flat(n int) *config.Topology {
	topo := &config.Topology{Self: 1}
	for i := 1; i <= n; i++ {
		topo.Nodes = append(topo.Nodes, config.Node{
			Name:   fmt.Sprintf("node%d", i),
			AZ:     fmt.Sprintf("az%d", i),
			Region: fmt.Sprintf("region%d", i),
		})
	}
	return topo
}

// Bed is a booted cluster with the fabric under it.
type Bed struct {
	*core.Cluster
	Net emunet.Network
	// Inj is the injector on Net's links; nil unless the bed booted with
	// Fabric.Faults.
	Inj *faultinject.Injector
}

// Boot opens the fabric and boots cfg's topology on it. cfg is the template
// callers already hand core.OpenCluster; Boot fills in Network.
func Boot(cfg core.Config, f Fabric) (*Bed, error) {
	if f.Faults && f.Kind == "tcp" {
		return nil, fmt.Errorf("testbed: faults need the memory fabric, not %q", f.Kind)
	}
	net := f.open()
	b := &Bed{Net: net}
	if f.Faults {
		b.Inj = faultinject.New(net.(*emunet.MemNetwork), metrics.NewRegistry())
	}
	cfg.Network = net
	cl, err := core.OpenCluster(cfg)
	if err != nil {
		_ = b.Close()
		return nil, fmt.Errorf("testbed: open cluster: %w", err)
	}
	b.Cluster = cl
	return b, nil
}

// Close shuts down the nodes, then the fabric. It returns the cluster's close
// error.
func (b *Bed) Close() error {
	var err error
	if b.Cluster != nil {
		err = b.Cluster.Close()
	}
	_ = b.Net.Close()
	return err
}

// Ready blocks until every directed link between live nodes has carried a
// frame each way: each node appends one empty message and waits until it has
// every peer's "received" report for it — the message crossed the link self→
// peer, the report crossed peer→self. A timed operation started before that
// can run into a link's boot-time dial backoff and measure set-up instead.
//
// Ready consumes one sequence number on every node's stream; hooks that count
// deliveries must be attached first.
func (b *Bed) Ready(timeout time.Duration) error {
	nodes := b.Nodes()
	sent := make([]uint64, len(nodes))
	for i, n := range nodes {
		seq, err := n.Send(nil)
		if err != nil {
			return fmt.Errorf("testbed: ready: node %d: %w", n.Self(), err)
		}
		sent[i] = seq
	}
	var from, to int
	up := Await(timeout, func() bool {
		for i, n := range nodes {
			received := n.Snapshot().Acks["received"]
			for _, p := range nodes {
				if p != n && received[p.Self()-1] < sent[i] {
					from, to = n.Self(), p.Self()
					return false
				}
			}
		}
		return true
	})
	if !up {
		return fmt.Errorf("testbed: links %d->%d and back not up within %v", from, to, timeout)
	}
	return nil
}

// Restart reboots crashed node id and runs attach on the new incarnation
// before any peer can deliver to it: every peer→id direction is held cut
// across the boot and the callback, so redials fail fast (ErrLinkCut) and
// retry after the heal. Cuts are refcounted, so the hold composes with
// whatever a fault schedule has cut. The bed must have booted with Faults.
func (b *Bed) Restart(id int, attach func(*core.Node)) (*core.Node, error) {
	peers := b.IDs()
	for _, p := range peers {
		if p != id {
			b.Inj.CutLink(p, id)
		}
	}
	defer func() {
		for _, p := range peers {
			if p != id {
				b.Inj.HealLink(p, id)
			}
		}
	}()
	n, err := b.Cluster.Restart(id)
	if err != nil {
		return nil, err
	}
	attach(n)
	return n, nil
}
