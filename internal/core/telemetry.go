package core

import (
	"sync"

	"stabilizer/internal/config"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
	"stabilizer/internal/transport"
)

// coreMetrics are the node-level metric instances, resolved once at Open.
type coreMetrics struct {
	reg         *metrics.Registry
	sends       *metrics.Counter
	sendBytes   *metrics.Counter
	deliveries  *metrics.Counter
	deliveryLag *metrics.Histogram
	stabLatency *metrics.HistogramVec
	reclaimSeq  *metrics.Gauge

	// Stage-latency segments of stabilizer_stage_seconds, resolved by
	// initStageMetrics when tracing is enabled; nil otherwise. The
	// transport resolves its own segments of the same family.
	stageDeliver   *metrics.Histogram
	stageAckReturn *metrics.Histogram
}

// initStageMetrics resolves the core-owned segments of the per-stage
// latency decomposition family.
func (m *coreMetrics) initStageMetrics() {
	stage := m.reg.HistogramVec(optrace.StageFamily, optrace.StageFamilyHelp, metrics.LatencyOpts, "stage")
	m.stageDeliver = stage.With(optrace.SegDeliver)
	m.stageAckReturn = stage.With(optrace.SegAckReturn)
}

func newCoreMetrics(reg *metrics.Registry, nextSeq func() uint64) *coreMetrics {
	m := &coreMetrics{
		reg: reg,
		sends: reg.Counter("stabilizer_core_sends_total",
			"Messages sequenced by Send on this node."),
		sendBytes: reg.Counter("stabilizer_core_send_bytes_total",
			"Payload bytes sequenced by Send on this node."),
		deliveries: reg.Counter("stabilizer_core_deliveries_total",
			"Remote-origin messages delivered to the application."),
		deliveryLag: reg.Histogram("stabilizer_core_delivery_lag_seconds",
			"Origin send timestamp to local delivery.", metrics.LatencyOpts),
		stabLatency: reg.HistogramVec("stabilizer_stability_latency_seconds",
			"Send to predicate-frontier crossing, per predicate key.",
			metrics.LatencyOpts, "predicate"),
		reclaimSeq: reg.Gauge("stabilizer_core_reclaim_seq",
			"Highest sequence reclaimed from the send buffer."),
	}
	reg.GaugeFunc("stabilizer_core_next_seq",
		"Sequence number the next Send will be assigned.",
		func() float64 { return float64(nextSeq()) })
	return m
}

// sendTimeRingBits sizes the send-timestamp ring: the node remembers the
// send time of the most recent 2^sendTimeRingBits sequences to turn
// frontier advances into stability-latency samples. Messages that stabilize
// only after the ring wraps are dropped from the histogram, never blocked.
const sendTimeRingBits = 13

// sendTimes maps recent sequence numbers to their send timestamps. Writes
// come from the send log's OnAppend hook, inside the append and so before
// the message can be acknowledged; reads from the frontier-advance hook. Both
// are short critical sections over fixed arrays (no allocation).
type sendTimes struct {
	mu  sync.Mutex
	seq [1 << sendTimeRingBits]uint64
	ts  [1 << sendTimeRingBits]int64
}

// record stores seq's send timestamp (UnixNano).
func (s *sendTimes) record(seq uint64, ts int64) {
	slot := seq & (1<<sendTimeRingBits - 1)
	s.mu.Lock()
	s.seq[slot] = seq
	s.ts[slot] = ts
	s.mu.Unlock()
}

// observeRange invokes obs with each sequence in (old, new] still present
// in the ring and its now-sendTime latency.
func (s *sendTimes) observeRange(old, new uint64, now int64, obs func(seq uint64, latNanos int64)) {
	const size = 1 << sendTimeRingBits
	if new-old > size {
		old = new - size
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for seq := old + 1; seq <= new; seq++ {
		slot := seq & (size - 1)
		if s.seq[slot] == seq {
			obs(seq, now-s.ts[slot])
		}
	}
}

// lookup returns seq's send timestamp if it is still in the ring.
func (s *sendTimes) lookup(seq uint64) (int64, bool) {
	slot := seq & (1<<sendTimeRingBits - 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq[slot] != seq {
		return 0, false
	}
	return s.ts[slot], true
}

// slowOp tracks the slowest sampled operation this node has seen
// stabilize, feeding the /debug/trace?op=latest-slow endpoint.
type slowOp struct {
	mu   sync.Mutex
	seq  uint64
	lat  int64
	pred string
	ok   bool
}

func (s *slowOp) update(seq uint64, lat int64, pred string) {
	s.mu.Lock()
	if !s.ok || lat > s.lat {
		s.seq, s.lat, s.pred, s.ok = seq, lat, pred, true
	}
	s.mu.Unlock()
}

func (s *slowOp) get() (seq uint64, lat int64, pred string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.lat, s.pred, s.ok
}

// --- the snapshot (Node.Snapshot, served at /debug/stabilizer) ---

// Snapshot is the one read of a node's state, for dashboards, operators,
// /debug/stabilizer and checkers: every number appears in it once. The
// predicates are read under one hold of the registry lock and the send log
// under one hold of its mutex; the sections are taken one after another, so
// the snapshot is consistent within each and only roughly simultaneous
// across them. The counters are the node's children in the metrics registry
// (a registry shared across an in-process restart keeps counting).
type Snapshot struct {
	// Self is the local node index; Nodes the whole topology.
	Self           int           `json:"self"`
	Nodes          []config.Node `json:"nodes"`
	StabilityTypes []string      `json:"stabilityTypes"`
	// Log is the send log: occupancy of both tiers, the admission latch and
	// its blocked/shed counts. Log.Head is the highest sequence assigned.
	Log transport.LogStats `json:"log"`
	// Totals is the traffic summed over peers; RecvLast the highest
	// contiguous data sequence received per peer that has sent any.
	transport.Totals
	RecvLast map[int]uint64 `json:"recvLast"`
	// Sends counts messages sequenced locally, Deliveries remote-origin
	// messages handed to the application, Waiters the WaitFor callers
	// currently blocked.
	Sends      int64 `json:"sends"`
	Deliveries int64 `json:"deliveries"`
	Waiters    int   `json:"waiters"`
	// Acks is the local origin's recorder, one row per stability type name.
	Acks map[string][]uint64 `json:"acks"`
	// Predicates holds the verdict on every registered predicate, sorted by
	// key, against Log.Head: the reserved reclaim predicate included, so
	// buffer reclamation (and a stalled reclaim, which is what pins the send
	// log) is observable.
	Predicates []PredicateState `json:"predicates"`
}

// Snapshot reads the node's state once.
func (n *Node) Snapshot() Snapshot {
	s := Snapshot{
		Self:       n.topo.Self,
		Nodes:      append([]config.Node(nil), n.topo.Nodes...),
		Log:        n.log.Stats(),
		Totals:     n.tr.Totals(),
		RecvLast:   n.tr.RecvLastAll(),
		Sends:      n.metrics.sends.Value(),
		Deliveries: n.metrics.deliveries.Value(),
		Acks:       make(map[string][]uint64),
	}
	for _, id := range n.types.IDs() {
		s.StabilityTypes = append(s.StabilityTypes, n.types.Name(id))
	}
	for typ, row := range n.selfTable().Snapshot() {
		s.Acks[n.types.Name(typ)] = row
	}
	states := n.registry.States(s.Log.Head, n.nowFn())
	s.Predicates = make([]PredicateState, 0, len(states))
	for _, ps := range states {
		s.Waiters += ps.Waiters
		s.Predicates = append(s.Predicates, n.verdict(ps, s.Log.Head))
	}
	return s
}
