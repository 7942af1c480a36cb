package core

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"stabilizer/internal/dsl"
	"stabilizer/internal/frontier"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
)

// StallConfig tunes degraded-mode stall detection: when a registered
// predicate's frontier lags the local send head and has not advanced for
// Deadline, the node reports the predicate stalled and names the peers
// holding it back (blame attribution). The zero value disables detection.
type StallConfig struct {
	// Deadline is how long a lagging frontier may sit still before the
	// predicate is declared stalled (0 disables the monitor).
	Deadline time.Duration
}

// checkEvery is the monitor's sweep period: a quarter of the deadline, so a
// stall is declared at most a quarter late, and never under 5ms.
func (s StallConfig) checkEvery() time.Duration {
	if every := s.Deadline / 4; every > 5*time.Millisecond {
		return every
	}
	return 5 * time.Millisecond
}

// StallReport is the degraded-mode notification delivered to OnStall hooks
// when a predicate stalls or its blamed peer set changes.
type StallReport struct {
	// Predicate is the stalled predicate's key (the reserved reclaim
	// predicate included — a stalled reclaim is what pins the send log).
	Predicate string
	// Frontier is the stuck frontier; Head the local send cursor it lags.
	Frontier uint64
	Head     uint64
	// Since is when the frontier last moved (or first lagged).
	Since time.Time
	// Peers are the blamed peer indexes, ascending: exactly the dependent
	// peers whose predicate-read ack cells sit at or below Frontier, i.e.
	// the ones whose advance would move it.
	Peers []int
}

// predStall is the monitor's per-predicate bookkeeping.
type predStall struct {
	frontier.Lag
	stalled bool
	since   time.Time
	blamed  []int
	// tails holds the per-blamed-peer recorder snapshots taken at the
	// stall (or blame-change) transition; cleared on unstall.
	tails map[int][]optrace.Event
}

// stallState is the node's stall-monitor state, split out of Node so the
// hot data plane never touches it.
type stallState struct {
	mu    sync.Mutex
	preds map[string]*predStall
	hooks cowList[hook[StallReport]]
	stop  chan struct{}
	wg    sync.WaitGroup
	cfg   StallConfig
	gauge *metrics.GaugeVec // stabilizer_frontier_stalled{predicate,peer}
}

// initStallState wires the stall monitor's metric families and, when a
// deadline is configured, starts the sweep goroutine.
func (n *Node) initStallState(cfg StallConfig, mreg *metrics.Registry) {
	st := &stallState{
		preds: make(map[string]*predStall),
		stop:  make(chan struct{}),
		cfg:   cfg,
	}
	st.gauge = mreg.GaugeVec("stabilizer_frontier_stalled",
		"1 while the predicate's frontier is stalled with this peer blamed.",
		"predicate", "peer")
	// The zone rollup keeps no count: each zone of the topology gets one
	// child that counts the blamed pairs when it is scraped.
	byZone := mreg.GaugeFuncVec("stabilizer_frontier_stalled_peers",
		"Currently blamed (predicate, peer) stall pairs whose peer is in this zone.",
		"az", "region")
	nodes := n.topo.Nodes
	for _, tn := range nodes {
		az, rg := tn.AZ, tn.Region
		byZone.Set(func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			count := 0
			for _, ps := range st.preds {
				for _, p := range ps.blamed {
					if nodes[p-1].AZ == az && nodes[p-1].Region == rg {
						count++
					}
				}
			}
			return float64(count)
		}, az, rg)
	}
	n.stall = st
	if st.cfg.Deadline <= 0 {
		return
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		tick := time.NewTicker(st.cfg.checkEvery())
		defer tick.Stop()
		for {
			select {
			case <-st.stop:
				return
			case <-tick.C:
				n.checkStalls(n.nowFn())
			}
		}
	}()
}

// stopStallMonitor halts the sweep goroutine (idempotent close path).
func (n *Node) stopStallMonitor() {
	st := n.stall
	if st == nil || st.cfg.Deadline <= 0 {
		return
	}
	close(st.stop)
	st.wg.Wait()
}

// OnStall registers fn to receive degraded-mode notifications: it fires when
// a predicate first stalls and again whenever a stalled predicate's blamed
// peer set changes. fn runs on the monitor goroutine; keep it short or hand
// off. Requires Config.Stall.Deadline > 0 for the monitor to run. The
// returned cancel detaches the hook (idempotent); a nil fn is ignored and
// gets a harmless no-op cancel.
func (n *Node) OnStall(fn func(StallReport)) (cancel func()) {
	return addHook(n, &n.stall.hooks, fn)
}

// blamePeers names the dependent peers holding at f the frontier of a
// predicate that reads cells: those whose predicate-read ack cells are ≤ f.
// Peers strictly ahead of f cannot be the binding constraint, so
// healthy-but-slightly-lagging peers are never over-blamed.
func (n *Node) blamePeers(cells []dsl.Cell, f uint64) []int {
	table := n.selfTable()
	seen := make(map[int]bool, len(cells))
	var peers []int
	for _, c := range cells {
		if c.Node == n.topo.Self || seen[c.Node] {
			continue
		}
		if table.Value(c.Node, c.Type) <= f {
			seen[c.Node] = true
			peers = append(peers, c.Node)
		}
	}
	sort.Ints(peers)
	return peers
}

// peerLagFor builds the Snapshot view of one blamed peer of a predicate that
// reads cells.
func (n *Node) peerLagFor(cells []dsl.Cell, peer int) PeerLag {
	node := n.topo.Nodes[peer-1]
	lag := PeerLag{Peer: peer, AZ: node.AZ, Region: node.Region}
	table := n.selfTable()
	first := true
	for _, c := range cells {
		if c.Node != peer {
			continue
		}
		if v := table.Value(c.Node, c.Type); first || v < lag.Ack {
			lag.Ack = v
			first = false
		}
	}
	return lag
}

// captureStallTails snapshots the flight-recorder tail for each blamed
// peer at the moment blame is (re)assigned, so a Snapshot carries the
// post-mortem of the stuck op stream, not a view from after recovery.
// Returns nil when tracing is disabled.
func (n *Node) captureStallTails(blamed []int, frontier uint64) map[int][]optrace.Event {
	if n.trace == nil || len(blamed) == 0 {
		return nil
	}
	tails := make(map[int][]optrace.Event, len(blamed))
	for _, p := range blamed {
		tails[p] = n.traceTail(p, frontier)
	}
	return tails
}

// checkStalls is one monitor sweep: classify every registered predicate as
// healthy or stalled, attribute blame, fire hooks on transitions, and
// refresh the stall gauges and their per-zone rollups.
func (n *Node) checkStalls(now time.Time) {
	st := n.stall
	head := n.log.Head()
	states := n.registry.States()
	var reports []StallReport

	st.mu.Lock()
	live := make(map[string]bool, len(states))
	for _, state := range states {
		key, f := state.Key, state.Frontier
		live[key] = true
		ps := st.preds[key]
		if ps == nil {
			ps = &predStall{}
			st.preds[key] = ps
		}
		still := ps.Observe(f, head, now)
		lagging := still >= st.cfg.Deadline // the sweep runs only with Deadline > 0
		switch {
		case lagging && !ps.stalled:
			ps.stalled = true
			ps.since = now.Add(-still)
			ps.blamed = n.blamePeers(state.Cells, f)
			ps.tails = n.captureStallTails(ps.blamed, f)
			for _, p := range ps.blamed {
				st.gauge.With(key, strconv.Itoa(p)).Set(1)
			}
			reports = append(reports, StallReport{
				Predicate: key, Frontier: f, Head: head,
				Since: ps.since, Peers: append([]int(nil), ps.blamed...),
			})
		case lagging && ps.stalled:
			blamed := n.blamePeers(state.Cells, f)
			if !equalInts(blamed, ps.blamed) {
				for _, p := range ps.blamed {
					st.gauge.Delete(key, strconv.Itoa(p))
				}
				ps.blamed = blamed
				ps.tails = n.captureStallTails(blamed, f)
				for _, p := range blamed {
					st.gauge.With(key, strconv.Itoa(p)).Set(1)
				}
				reports = append(reports, StallReport{
					Predicate: key, Frontier: f, Head: head,
					Since: ps.since, Peers: append([]int(nil), blamed...),
				})
			}
		case !lagging && ps.stalled:
			ps.stalled = false
			for _, p := range ps.blamed {
				st.gauge.Delete(key, strconv.Itoa(p))
			}
			ps.blamed = nil
			ps.tails = nil
		}
	}
	// Drop state for predicates that were removed, clearing their gauges.
	for key, ps := range st.preds {
		if live[key] {
			continue
		}
		for _, p := range ps.blamed {
			st.gauge.Delete(key, strconv.Itoa(p))
		}
		delete(st.preds, key)
	}
	st.mu.Unlock()

	for _, r := range reports {
		for _, h := range st.hooks.load() {
			h.fn(r)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
