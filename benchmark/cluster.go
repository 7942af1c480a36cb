package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"stabilizer"
	"stabilizer/apps/quorum"
	"stabilizer/apps/wankv"
	"stabilizer/internal/predlib"
)

// opDeadline is the longest any single operation may take; one that errors
// or runs past it counts as failed and contributes no latency sample.
const opDeadline = 5 * time.Second

// cluster is one booted deployment: the 8-node EC2 topology in this
// process, in the default configuration, with the workload's applications
// attached. Everything here goes through the public facade.
type cluster struct {
	w   *workload
	net stabilizer.Network
	cl  *stabilizer.Cluster

	// wan-sync: the reader's quorum endpoint and the value set-up wrote.
	reader    *quorum.KV
	quorumKey string
	quorumVal []byte

	// lan-kv-sync: stores by node id, and when node 7 applied each write.
	stores  map[int]*wankv.Store
	applied map[int]*applyStamps

	goroutinesBefore int
}

// kvMirrors are the nodes that run a wankv.Store in lan-kv-sync. The
// versioned kvstore retains every version, so eight mirrors of a saturating
// writer would dominate the process's memory; the two clients plus one
// observer keep the app layer in the picture without that.
var kvMirrors = []int{1, 3, 7}

const kvObserver = 7

// boot opens the cluster and attaches the workload's applications. It does
// not send traffic.
func boot(w *workload, in inputs, trace stabilizer.TraceConfig) (*cluster, error) {
	c := &cluster{w: w, goroutinesBefore: runtime.NumGoroutine()}
	c.net = stabilizer.NewMemNetwork(w.matrix())
	cl, err := stabilizer.OpenCluster(stabilizer.ClusterConfig{
		Topology: stabilizer.EC2Topology(1),
		Network:  c.net,
		Trace:    trace,
	})
	if err != nil {
		_ = c.net.Close()
		return nil, fmt.Errorf("open cluster: %w", err)
	}
	c.cl = cl
	if err := c.attach(in); err != nil {
		_ = c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) attach(in inputs) error {
	for _, id := range c.w.senders {
		n := c.cl.Node(id)
		if err := n.RegisterPredicates(stabilizer.TableIII(n.Topology())); err != nil {
			return fmt.Errorf("register Table III on node %d: %w", id, err)
		}
	}
	switch c.w.name {
	case wlWANSync:
		var writer *quorum.KV
		for _, id := range append(append([]int(nil), quorumMembers...), quorumWriter) {
			kv, err := quorum.New(quorum.Config{Node: c.cl.Node(id), Members: quorumMembers, Nw: quorumNw, Nr: quorumNr})
			if err != nil {
				return fmt.Errorf("quorum endpoint on node %d: %w", id, err)
			}
			switch id {
			case c.w.senders[0]:
				c.reader = kv
			case quorumWriter:
				writer = kv
			}
		}
		c.quorumKey, c.quorumVal = "benchmark-object", in.payloads[len(in.payloads)-1]
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		defer cancel()
		seq, err := writer.Write(ctx, c.quorumKey, c.quorumVal)
		if err != nil {
			return fmt.Errorf("quorum write during set-up: %w", err)
		}
		// Every member holds the value before the first read, so which
		// replica answers never changes what a read returns.
		if err := c.cl.WaitAllReceive(ctx, quorumWriter, seq); err != nil {
			return fmt.Errorf("quorum write did not reach every node: %w", err)
		}
	case wlKVSync:
		c.stores = make(map[int]*wankv.Store, len(kvMirrors))
		c.applied = make(map[int]*applyStamps, len(c.w.senders))
		for _, id := range c.w.senders {
			c.applied[id] = new(applyStamps)
		}
		for _, id := range kvMirrors {
			var opts []wankv.Option
			if id == kvObserver {
				opts = append(opts, wankv.WithApplyHook(func(origin int, _ string, ver uint64) {
					if s := c.applied[origin]; s != nil {
						s.set(ver, time.Now().UnixNano())
					}
				}))
			}
			c.stores[id] = wankv.New(c.cl.Node(id), opts...)
		}
	}
	return nil
}

// close shuts the cluster and the fabric down and checks that every
// goroutine the deployment started has exited.
func (c *cluster) close() error {
	err := c.cl.Close()
	if cerr := c.net.Close(); err == nil {
		err = cerr
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > c.goroutinesBefore {
		if time.Now().After(deadline) {
			return errors.Join(err, fmt.Errorf("goroutines after Cluster.Close: %d, before boot: %d",
				runtime.NumGoroutine(), c.goroutinesBefore))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return err
}

// checkFinalFrontiers verifies that, with every message acknowledged
// everywhere, each Table III predicate's frontier on each sender ends at the
// last sequence that sender assigned.
func (c *cluster) checkFinalFrontiers() []string {
	var problems []string
	for _, id := range c.w.senders {
		n := c.cl.Node(id)
		last := n.NextSeq() - 1
		for _, key := range predlib.TableIIIOrder() {
			var f uint64
			// AllWNodes is already stable when this runs; the other five
			// are re-evaluated in the same drain, so this loop is a
			// formality rather than a wait.
			for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
				f, _ = n.StabilityFrontier(key)
				if f == last || time.Now().After(deadline) {
					break
				}
			}
			if f != last {
				problems = append(problems, fmt.Sprintf("node %d: %s frontier ends at %d, last sequence is %d", id, key, f, last))
			}
		}
	}
	return problems
}

// applyStamps remembers when the observer node applied the most recent
// versions of one origin's writes. One writer (the observer's delivery
// goroutine for that origin), one reader (that origin's client).
type applyStamps struct {
	ver [1 << 10]atomic.Uint64
	at  [1 << 10]atomic.Int64
}

func (s *applyStamps) set(ver uint64, unixNano int64) {
	i := ver % uint64(len(s.ver))
	s.ver[i].Store(0)
	s.at[i].Store(unixNano)
	s.ver[i].Store(ver)
}

func (s *applyStamps) get(ver uint64) (unixNano int64, ok bool) {
	i := ver % uint64(len(s.ver))
	if s.ver[i].Load() != ver {
		return 0, false
	}
	unixNano = s.at[i].Load()
	return unixNano, s.ver[i].Load() == ver
}
