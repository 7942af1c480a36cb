package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/metrics"
)

// ClusterConfig is Config under the name OpenCluster's callers know it by.
type ClusterConfig = Config

// Cluster owns a set of in-process Stabilizer nodes booted from one
// topology — the paper's evaluation shape (§VI: many WAN nodes per machine
// over emulated links) as a first-class handle. All nodes share one
// metrics registry with node-labeled families, and cluster-wide helpers
// (Snapshot, WaitAllFor, Close with ordered drain) replace per-node loops.
type Cluster struct {
	topo *config.Topology
	ids  []int // boot order, ascending

	// cfg is the template every node's Config is copied from: the caller's
	// Config with the shared registry filled in.
	cfg Config

	mu     sync.Mutex
	nodes  map[int]*Node
	closed bool
}

// OpenCluster boots every node of the topology in this process from one
// Config template and wires them into one shared registry. On any boot
// failure the already-started nodes are closed and the error returned.
// Anything per-node — a Checkpoint, a Persister on one node, a process that
// hosts only some of the nodes — goes through Open, once per node with one
// shared Config.Metrics; a Checkpoint here is refused.
func OpenCluster(cfg Config) (*Cluster, error) {
	if cfg.Checkpoint != nil {
		return nil, errors.New("core: Config.Checkpoint is one node's state: resume that node with Open")
	}
	if cfg.Topology == nil {
		return nil, errors.New("core: Config.Topology is required")
	}
	ids := make([]int, len(cfg.Topology.Nodes))
	for i := range ids {
		ids[i] = i + 1
	}
	return openCluster(cfg, ids)
}

// openCluster boots the nodes ids, ascending, from the template cfg, whose
// Topology its callers have checked is set.
func openCluster(cfg Config, ids []int) (*Cluster, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Network == nil {
		return nil, errors.New("core: Config.Network is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	cl := &Cluster{
		topo:  cfg.Topology.Clone(),
		ids:   ids,
		cfg:   cfg,
		nodes: make(map[int]*Node, len(ids)),
	}
	for _, id := range ids {
		node, err := openNode(cl.nodeConfig(id))
		if err != nil {
			_ = cl.Close()
			return nil, fmt.Errorf("core: open cluster node %d: %w", id, err)
		}
		cl.nodes[id] = node
	}
	return cl, nil
}

// nodeConfig derives node id's Config: the cluster template with the node's
// own topology view.
func (c *Cluster) nodeConfig(id int) Config {
	cfg := c.cfg
	cfg.Topology = c.topo.WithSelf(id)
	return cfg
}

// Node returns the handle for the 1-based node id, or nil when the id was
// not booted here or is currently crashed.
func (c *Cluster) Node(id int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// Nodes returns the live node handles in ascending id order.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodes))
	for _, id := range c.ids {
		if n := c.nodes[id]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// IDs returns the node indices this cluster was asked to boot (crashed ones
// included), ascending.
func (c *Cluster) IDs() []int { return append([]int(nil), c.ids...) }

// Metrics returns the registry shared by every node in the cluster.
func (c *Cluster) Metrics() *metrics.Registry { return c.cfg.Metrics }

// Topology returns a copy of the cluster's topology.
func (c *Cluster) Topology() *config.Topology { return c.topo.Clone() }

// Snapshot reads every live node's Snapshot, in ascending id order.
func (c *Cluster) Snapshot() []Snapshot {
	nodes := c.Nodes()
	out := make([]Snapshot, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Snapshot())
	}
	return out
}

// Crash closes the node and removes it from the live set, keeping its dead
// handle available to the caller for post-mortem reads (Snapshot stays valid
// on a closed node). Restart brings the id back.
func (c *Cluster) Crash(id int) (*Node, error) {
	c.mu.Lock()
	node := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	if node == nil {
		return nil, fmt.Errorf("core: cluster node %d is not running", id)
	}
	return node, node.Close()
}

// Restart reboots a crashed node from the cluster's template.
func (c *Cluster) Restart(id int) (*Node, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.nodes[id] != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: cluster node %d is already running", id)
	}
	known := false
	for _, i := range c.ids {
		known = known || i == id
	}
	if !known {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: node %d is not part of this cluster", id)
	}
	c.mu.Unlock()

	node, err := openNode(c.nodeConfig(id))
	if err != nil {
		return nil, fmt.Errorf("core: restart cluster node %d: %w", id, err)
	}
	c.mu.Lock()
	c.nodes[id] = node
	c.mu.Unlock()
	return node, nil
}

// Close drains the cluster: nodes shut down in reverse boot order (later
// nodes first, so earlier ones — conventionally the primaries — observe
// their peers leaving before going down themselves). Idempotent; returns
// the first close error.
func (c *Cluster) Close() error {
	c.mu.Lock()
	c.closed = true
	var down []*Node
	for i := len(c.ids) - 1; i >= 0; i-- {
		if n := c.nodes[c.ids[i]]; n != nil {
			down = append(down, n)
			delete(c.nodes, c.ids[i])
		}
	}
	c.mu.Unlock()
	var first error
	for _, n := range down {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitAllFor blocks until every live node that has the named predicate
// registered sees its stability frontier reach seq. It errors immediately
// when no live node knows the predicate. The first error a node's wait ends
// with cancels the other nodes' waits, and is returned once they have ended.
func (c *Cluster) WaitAllFor(ctx context.Context, seq uint64, key string) error {
	var targets []*Node
	for _, n := range c.Nodes() {
		if n.registry.Has(key) {
			targets = append(targets, n)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("core: no live cluster node has predicate %q", key)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, len(targets))
	for _, n := range targets {
		go func(n *Node) { errs <- n.WaitFor(ctx, seq, key) }(n)
	}
	var first error
	for range targets {
		if err := <-errs; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	return first
}

// WaitAllReceive polls until every live node other than origin has received
// origin's stream through seq, or ctx expires.
func (c *Cluster) WaitAllReceive(ctx context.Context, origin int, seq uint64) error {
	for {
		done := true
		for _, n := range c.Nodes() {
			if n.Self() == origin {
				continue
			}
			if n.tr.RecvLast(origin) < seq {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// EvalAllFor evaluates source against origin's stream on every live node
// and returns the minimum — the frontier the whole in-process deployment
// agrees on, which trails origin's own by up to one HeartbeatEvery (see
// Node.EvalFor). Crashed nodes are skipped; with no live nodes it errors.
func (c *Cluster) EvalAllFor(origin int, source string) (uint64, error) {
	nodes := c.Nodes()
	if len(nodes) == 0 {
		return 0, errors.New("core: no live cluster nodes")
	}
	var min uint64
	for i, n := range nodes {
		v, err := n.EvalFor(origin, source)
		if err != nil {
			return 0, fmt.Errorf("core: eval on node %d: %w", n.Self(), err)
		}
		if i == 0 || v < min {
			min = v
		}
	}
	return min, nil
}
