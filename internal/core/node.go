// Package core implements the Stabilizer node: the paper's primary
// contribution. A node glues the aggressive streaming data plane
// (internal/transport) to the asynchronous control plane
// (internal/frontier) and exposes the paper's interfaces (§III-D):
//
//   - Send            — sequence and stream a message to every peer
//   - WaitFor         — one-time stability frontier update trigger
//   - MonitorStabilityFrontier — stability frontier update monitor
//   - RegisterPredicate / ChangePredicate — DSL predicate management
//   - ReportStability — application-defined stability reports
//
// Each node owns one outbound stream (primary-site model: only the owner
// updates its data) and mirrors the streams of every other node. Stability
// reports are monotonic and coalesced, so control traffic never blocks the
// data flow (§III-A control/data separation).
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/config"
	"stabilizer/internal/dsl"
	"stabilizer/internal/emunet"
	"stabilizer/internal/frontier"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
	"stabilizer/internal/transport"
	"stabilizer/internal/wire"
)

// ReclaimPredicateKey is the reserved predicate used internally to reclaim
// send-buffer space once a message has been received everywhere (§III-B).
const ReclaimPredicateKey = "__stabilizer_reclaim"

// Errors returned by Node methods.
var (
	ErrClosed      = errors.New("core: node closed")
	ErrReservedKey = errors.New("core: predicate key is reserved")
)

// Message is one delivered data-plane message.
type Message struct {
	// Origin is the 1-based index of the node that sent the message.
	Origin int
	// Seq is the origin-assigned sequence number.
	Seq uint64
	// Payload is the application data. On a receiver it is lent from the
	// connection's read chunk until the upcall returns (wire.Reader states
	// the rule); a consumer that keeps it copies it.
	Payload []byte
	// SentAt is the origin's send timestamp.
	SentAt time.Time
}

// DeliverFunc is a data-plane upcall. Upcalls for one origin arrive in
// FIFO order; upcalls for different origins may be concurrent.
type DeliverFunc func(m Message)

// AppMessage is an out-of-band application request or response (used by
// the quorum protocol's read path, among others).
type AppMessage struct {
	From       int
	ID         uint64
	Method     uint16
	IsResponse bool
	Payload    []byte
}

// AppFunc handles application messages.
type AppFunc func(m AppMessage)

// Persister, when configured, is invoked after delivery; a nil error makes
// the node report the "persisted" stability level for the message. The
// payload is lent until Persist returns (see Message.Payload).
type Persister interface {
	Persist(m Message) error
}

// Config parameterizes Open and OpenCluster: one struct describes a single
// node or a whole in-process deployment — the fabric the nodes share and the
// knobs applied to every node. Per-node divergence (a Persister on the
// primary, a restored Checkpoint, per-node flow caps) means one Open per
// node, each with its own Config and one shared Metrics.
type Config struct {
	// Topology is the WAN deployment; required. Open boots its Self node;
	// OpenCluster ignores Self and derives a per-node topology for every
	// booted node.
	Topology *config.Topology
	// Network is the fabric every node dials and listens through; required.
	Network emunet.Network
	// HeartbeatEvery is the node's tick (default 500ms): a heartbeat to
	// every peer, the failure detector's scan, the stall clocks, adaptive
	// controllers and SLO monitors. A peer is down after 8 ticks without a
	// frame from it.
	HeartbeatEvery time.Duration
	// Persister optionally persists delivered messages (see Persister).
	Persister Persister
	// Checkpoint resumes a restarted primary (§III-E); nil starts fresh. It
	// is one node's state, so only Open takes it; OpenCluster refuses it.
	Checkpoint *Checkpoint
	// DisableAutoReclaim keeps the send buffer forever (useful in tests
	// and ablations). By default the node reclaims buffer space once a
	// message is received everywhere.
	DisableAutoReclaim bool
	// Metrics receives the instrumentation of every booted node
	// (stabilizer_core_*, stabilizer_stability_latency_seconds, and the
	// transport and frontier families): each node instruments through its
	// own node-labeled group view, so one scrape of this registry sees the
	// whole in-process deployment. Nil creates a private registry
	// (reachable via Cluster.Metrics), so metrics are always collected.
	// Pass a registry to read the families of a node booted with Open.
	Metrics *metrics.Registry
	// Flow bounds the send log with admission control (a byte cap, and a
	// directory for the disk tier); the zero value keeps the log unbounded.
	Flow transport.FlowConfig
	// Trace configures the per-operation lifecycle flight recorder
	// (sampling rate and ring size); the zero value disables tracing and
	// keeps every hot path allocation-free.
	Trace optrace.Config
}

// defaultHeartbeatEvery is the node tick's period when
// Config.HeartbeatEvery is zero.
const defaultHeartbeatEvery = 500 * time.Millisecond

// Checkpoint captures the durable control-plane state of a node so a
// restarted primary resumes sequence numbering and frontier tracking where
// it left off (§III-E).
type Checkpoint struct {
	// NextSeq is the next sequence number to assign.
	NextSeq uint64 `json:"nextSeq"`
	// SelfAcks is the ACK recorder snapshot for the local origin's
	// stream, keyed by stability-type id.
	SelfAcks map[uint16][]uint64 `json:"selfAcks"`
}

// Node is one Stabilizer WAN node.
type Node struct {
	topo     *config.Topology
	types    *frontier.Types
	tables   []*frontier.Table // index origin-1
	registry *frontier.Registry
	log      *transport.SendLog
	tr       *transport.Transport
	env      *topoEnv

	persister Persister

	metrics   *coreMetrics
	sendTimes sendTimes
	trace     *optrace.Recorder // nil when tracing is disabled
	slow      slowOp

	// The callback lists are copy-on-write: the transport's upcalls read a
	// snapshot without taking mu; registration and detach publish a fresh
	// copy while holding it.
	deliverFns cowList[DeliverFunc]
	appFns     cowList[AppFunc]
	peerFns    cowList[peerHook]

	mu            sync.Mutex
	nextHook      int
	reclaimCancel func()
	// tickEvery is the node tick's period, Config.HeartbeatEvery defaulted.
	tickEvery time.Duration
	// tickers is everything the node tick drives after the stall clocks, in
	// the order attached: the controllers StartAdaptive started and the
	// monitors NewSLOMonitor attached.
	tickers cowList[*ticker]

	closed atomic.Bool
	nowFn  func() time.Time
}

// Open starts a single Stabilizer node and connects it to its peers: it is
// the cluster boot path for exactly Topology.Self. A process hosting some of
// a topology's nodes calls Open once per node with one shared Config.Metrics,
// so all of them land in one node-labeled registry; one hosting all of them
// can call OpenCluster.
func Open(cfg Config) (*Node, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: Config.Topology is required")
	}
	self := cfg.Topology.Self
	cl, err := openCluster(cfg, []int{self})
	if err != nil {
		return nil, err
	}
	return cl.Node(self), nil
}

// openNode boots one node. cfg.Metrics, when set, is the registry shared by
// the process: openNode derives this node's group view from it, so every
// family the node touches carries a node label.
func openNode(cfg Config) (*Node, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: Config.Topology is required")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Network == nil {
		return nil, errors.New("core: Config.Network is required")
	}
	topo := cfg.Topology.Clone()
	n := topo.N()

	types := frontier.NewTypes()
	tables := make([]*frontier.Table, n)
	for i := range tables {
		tables[i] = frontier.NewTable(n)
	}
	env := &topoEnv{topo: topo, types: types}
	selfTable := tables[topo.Self-1]

	firstSeq := uint64(1)
	if cfg.Checkpoint != nil {
		firstSeq = cfg.Checkpoint.NextSeq
		selfTable.Restore(cfg.Checkpoint.SelfAcks)
	}
	flow := cfg.Flow
	if flow.SpillDir != "" {
		// Many nodes of one cluster commonly share a Config (and thus a
		// SpillDir); give each its own segment namespace so restarting
		// node i recovers exactly node i's backlog.
		flow.SpillDir = filepath.Join(flow.SpillDir, fmt.Sprintf("node%d", topo.Self))
	}
	log, err := transport.NewSendLogFlow(firstSeq, flow)
	if err != nil {
		return nil, fmt.Errorf("core: node %d send log: %w", topo.Self, err)
	}
	registry := frontier.NewRegistry(env, selfTable)
	// fail releases what a half-booted node already owns: the registry's
	// drainer goroutine and the log's spiller.
	fail := func(err error) (*Node, error) {
		registry.Close()
		log.Close()
		return nil, err
	}

	mreg := cfg.Metrics
	if mreg == nil {
		mreg = metrics.NewRegistry()
	}
	// Everything this node instruments — core, frontier and transport
	// families — goes through the node-labeled view, so any number of
	// in-process nodes can share one registry and one scrape.
	mreg = mreg.NodeGroup(strconv.Itoa(topo.Self))

	node := &Node{
		topo:      topo,
		types:     types,
		tables:    tables,
		registry:  registry,
		log:       log,
		env:       env,
		persister: cfg.Persister,
		metrics:   newCoreMetrics(mreg, log.NextSeq),
		trace:     optrace.New(topo.Self, cfg.Trace),
		tickEvery: cfg.HeartbeatEvery,
		nowFn:     time.Now,
	}
	if node.tickEvery <= 0 {
		node.tickEvery = defaultHeartbeatEvery
	}
	// A send time is on record before its message can be acknowledged, so
	// a frontier that passes a sequence finds it in the ring.
	log.OnAppend(node.sendTimes.record)
	registry.EnableMetrics(mreg)
	if node.trace != nil {
		node.metrics.initStageMetrics()
	}
	// Turn frontier advances into the headline stability-latency samples:
	// each sequence crossing a predicate's frontier is timed from its Send.
	// latency keeps each predicate's histogram from its first advance on (a
	// child is never deleted); the registry runs its hooks one call at a
	// time, so the map and the tally need no lock. An advance's samples are
	// tallied and published together before the hook returns, so they exist
	// by the time the waiters it releases resume.
	latency := make(map[string]*metrics.Histogram)
	var tally metrics.Tally
	registry.OnAdvance(func(key string, old, new uint64) {
		// Stabilize is a cumulative watermark, recorded for every
		// predicate (the reclaim pseudo-predicate included) whenever the
		// recorder is live — coalesced control-plane rate, not data rate.
		if rec := node.trace; rec != nil {
			rec.Record(optrace.StageStabilize, node.topo.Self, new, 0,
				rec.Label(key), node.nowFn().UnixNano())
		}
		if key == ReclaimPredicateKey {
			node.metrics.reclaimSeq.Set(int64(new))
			return
		}
		h := latency[key]
		if h == nil {
			h = node.metrics.stabLatency.With(key)
			latency[key] = h
		}
		now := node.nowFn().UnixNano()
		node.sendTimes.observeRange(old, new, now, func(seq uint64, lat int64) {
			tally.Observe(lat)
			if node.trace.Sampled(node.topo.Self, seq) {
				node.slow.update(seq, lat, key)
			}
		})
		tally.AddTo(h)
	})
	// Materialize the well-known stability rows so the completeness rule
	// (UpdateAll on Send) covers them from the first message.
	head := log.Head()
	for _, typ := range []uint16{frontier.TypeReceived, frontier.TypePersisted, frontier.TypeDelivered} {
		selfTable.EnsureType(typ, topo.Self, head)
	}

	tcfg := transport.Config{
		Self:           topo.Self,
		N:              n,
		Network:        cfg.Network,
		Handler:        (*trHandler)(node),
		Log:            log,
		HeartbeatEvery: node.tickEvery,
		Metrics:        mreg,
		Trace:          node.trace,
		OnTick:         node.tick,
	}
	self := topo.Nodes[topo.Self-1]
	tcfg.TopoTags.AZ, tcfg.TopoTags.Region = self.AZ, self.Region
	tcfg.PeerTags = make(map[int]transport.TopoTag, n)
	for i, tn := range topo.Nodes {
		tcfg.PeerTags[i+1] = transport.TopoTag{AZ: tn.AZ, Region: tn.Region}
	}
	tr, err := transport.New(tcfg)
	if err != nil {
		return fail(err)
	}
	node.tr = tr

	if !cfg.DisableAutoReclaim && n > 1 {
		if err := registry.Register(ReclaimPredicateKey, "MIN($ALLWNODES)"); err != nil {
			return fail(fmt.Errorf("core: install reclaim predicate: %w", err))
		}
		cancel, err := registry.Monitor(ReclaimPredicateKey, func(f uint64) {
			log.TruncateThrough(f)
		})
		if err != nil {
			return fail(fmt.Errorf("core: monitor reclaim predicate: %w", err))
		}
		node.reclaimCancel = cancel
	}

	if err := tr.Start(); err != nil {
		return fail(err)
	}
	return node, nil
}

// Close shuts the node down.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	// Stop the adaptive controllers first: they drive ChangePredicate into
	// the registry this teardown is about to close. A tick in flight finishes
	// its step before Close returns; a later one finds the node closed.
	for _, t := range n.tickers.load() {
		if t.ctrl != nil {
			t.ctrl.Close()
		}
	}
	if n.reclaimCancel != nil {
		n.reclaimCancel()
	}
	// Stop the stabilization drainer (final drain included) before tearing
	// down the log it may still truncate through the reclaim monitor.
	n.registry.Close()
	n.log.Close()
	return n.tr.Close()
}

// Self returns the local node's 1-based index.
func (n *Node) Self() int { return n.topo.Self }

// Topology returns a copy of the node's topology.
func (n *Node) Topology() *config.Topology { return n.topo.Clone() }

// A ticker is one thing the node tick drives: an adaptive controller or an
// SLO monitor. step reports false once the thing is closed, and the tick
// detaches it.
type ticker struct {
	ctrl *adaptive.Controller // nil for an SLO monitor
	step func(now time.Time) (open bool)
}

// tick is the node's one clock, run by the transport every HeartbeatEvery
// after its heartbeats and failure detector: every predicate's stall clock
// gets a reading, then every adaptive controller and SLO monitor takes its
// step. OnTransition and OnAlert hooks run here.
func (n *Node) tick(now time.Time) {
	if n.closed.Load() {
		return
	}
	// Reading every stall clock starts Stuck within one tick of a message
	// being outstanding, whether or not anyone calls Explain.
	n.registry.States(n.log.Head(), now)
	for _, t := range n.tickers.load() {
		if !t.step(now) {
			n.mu.Lock()
			n.tickers.remove(func(u *ticker) bool { return u == t })
			n.mu.Unlock()
		}
	}
}

// --- data plane ---

// Send assigns the next sequence number to payload and streams it to every
// peer asynchronously. It returns as soon as the message is buffered: the
// semantics of a bare Send is local stability only — callers wanting a
// stronger guarantee follow up with WaitFor on a predicate matching their
// consistency model (paper §V-A).
//
// The payload is the caller's again when Send returns: the send log copies
// it (transport.SendLog.AppendCtx states the rule).
func (n *Node) Send(payload []byte) (uint64, error) {
	return n.SendCtx(nil, payload)
}

// SendCtx is Send with the caller's patience attached: at the Config.Flow
// send-log cap the append waits for space only as long as ctx allows — not
// at all when ctx is already done — and then fails with an error wrapping
// both transport.ErrBackpressure and ctx.Err(). A nil ctx waits without
// deadline, as Send does.
func (n *Node) SendCtx(ctx context.Context, payload []byte) (uint64, error) {
	if n.closed.Load() {
		return 0, ErrClosed
	}
	sentAt := n.nowFn().UnixNano()
	seq, err := n.log.AppendCtx(ctx, payload, sentAt)
	if err != nil {
		if errors.Is(err, transport.ErrLogClosed) {
			return 0, ErrClosed
		}
		// ErrBackpressure (ctx ended at the cap) passes through so callers
		// can shed or retry.
		return 0, err
	}
	if rec := n.trace; rec != nil && rec.Sampled(n.topo.Self, seq) {
		rec.Record(optrace.StageAppend, n.topo.Self, seq, 0, 0, sentAt)
	}
	n.metrics.sends.Inc()
	n.metrics.sendBytes.Add(int64(len(payload)))
	// Completeness rule (§III-C): every stability property holds at the
	// originating node the moment the message exists.
	advanced := n.selfTable().UpdateAll(n.topo.Self, seq)
	n.tr.NotifyData()
	if advanced {
		n.registry.NoteNodeUpdate(n.topo.Self)
	}
	return seq, nil
}

// cowList is a copy-on-write callback list. load returns the current
// snapshot without locking or allocating, and the snapshot is never mutated;
// writers, serialized by Node.mu, publish a fresh slice with store.
type cowList[T any] struct{ p atomic.Pointer[[]T] }

func (c *cowList[T]) load() []T {
	if p := c.p.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *cowList[T]) store(list []T) { c.p.Store(&list) }

// add publishes the list extended by v. Caller holds Node.mu.
func (c *cowList[T]) add(v T) {
	old := c.load()
	c.store(append(old[:len(old):len(old)], v))
}

// remove publishes the list without the entries drop picks. Caller holds
// Node.mu.
func (c *cowList[T]) remove(drop func(T) bool) {
	c.store(slices.DeleteFunc(slices.Clone(c.load()), drop))
}

// OnDeliver registers a data-plane upcall for messages from remote origins.
// The payload is lent until fn returns (see Message.Payload).
func (n *Node) OnDeliver(fn DeliverFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.deliverFns.add(fn)
}

// OnApp registers a handler for out-of-band application messages.
func (n *Node) OnApp(fn AppFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.appFns.add(fn)
}

// peerHook is one OnPeer registration; the id makes it detachable via the
// returned cancel.
type peerHook struct {
	id int
	fn func(peer int, up bool)
}

// OnPeer registers a callback fired when the failure detector changes its
// mind about a peer: up=false when the peer is suspected failed, up=true when
// it is (re)heard from. The paper's recovery recipe (§III-E): on a down, the
// application inspects which predicates depend on the dead node
// (Explain(key).DependsOn) and adjusts them with ChangePredicate. The returned
// cancel detaches the callback (idempotent); a nil fn is ignored and gets a
// no-op cancel.
func (n *Node) OnPeer(fn func(peer int, up bool)) (cancel func()) {
	if fn == nil {
		return func() {}
	}
	n.mu.Lock()
	id := n.nextHook
	n.nextHook++
	n.peerFns.add(peerHook{id: id, fn: fn})
	n.mu.Unlock()
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.peerFns.remove(func(h peerHook) bool { return h.id == id })
	}
}

// SendApp sends an out-of-band application message to one peer.
func (n *Node) SendApp(to int, id uint64, method uint16, isResponse bool, payload []byte) error {
	if n.closed.Load() {
		return ErrClosed
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	return n.tr.SendApp(to, &wire.App{
		ID:         id,
		Method:     method,
		IsResponse: isResponse,
		From:       uint16(n.topo.Self),
		Payload:    buf,
	})
}

// --- control plane ---

// RegisterStabilityType registers an application-defined stability level
// ("verified", "countersigned", ...) usable as a '.suffix' in predicates
// and with ReportStability.
func (n *Node) RegisterStabilityType(name string) error {
	id, err := n.types.Register(name)
	if err != nil {
		return err
	}
	// Completeness: the local origin trivially satisfies the new level
	// for everything it has sent so far.
	n.selfTable().EnsureType(id, n.topo.Self, n.log.Head())
	return nil
}

// ReportStability records that this node has reached the named stability
// level for origin's messages up to seq, and sends the (monotonic) report to
// origin at once; every other peer gets it with the next write on its link,
// a heartbeat at the latest.
func (n *Node) ReportStability(origin int, typeName string, seq uint64) error {
	if n.closed.Load() {
		return ErrClosed
	}
	typ, err := n.types.Lookup(typeName)
	if err != nil {
		return err
	}
	if origin < 1 || origin > n.topo.N() {
		return fmt.Errorf("core: origin %d out of range", origin)
	}
	advanced := n.tables[origin-1].Update(n.topo.Self, typ, seq)
	n.tr.QueueAck(wire.Ack{
		Origin: uint16(origin),
		By:     uint16(n.topo.Self),
		Type:   typ,
		Seq:    seq,
	})
	if advanced && origin == n.topo.Self {
		n.registry.NoteCellUpdate(n.topo.Self, typ)
	}
	return nil
}

// RegisterPredicate compiles a DSL predicate and installs it under key
// (paper register_predicate). The predicate evaluates the stability of the
// local node's outbound stream.
func (n *Node) RegisterPredicate(key, source string) error {
	if key == ReclaimPredicateKey {
		return fmt.Errorf("%w: %q", ErrReservedKey, key)
	}
	return n.registry.Register(key, source)
}

// RegisterPredicates installs a batch of predicates atomically: every
// source must compile and every key must be new (and none reserved), or
// nothing is registered at all. Keys are validated in sorted order, so the
// first error reported is deterministic regardless of map iteration.
func (n *Node) RegisterPredicates(preds map[string]string) error {
	if _, ok := preds[ReclaimPredicateKey]; ok {
		return fmt.Errorf("%w: %q", ErrReservedKey, ReclaimPredicateKey)
	}
	return n.registry.RegisterBatch(preds)
}

// ChangePredicate swaps the predicate under key at runtime (paper
// change_predicate, exercised by the dynamic reconfiguration experiment). What
// a weaker predicate releases is released when it returns; what a stronger one
// takes back is re-climbed in silence (see MonitorStabilityFrontier). It waits
// for a frontier publication in progress, so it must not be called from a
// MonitorStabilityFrontier or OnFrontierAdvance callback.
func (n *Node) ChangePredicate(key, source string) error {
	if key == ReclaimPredicateKey {
		return fmt.Errorf("%w: %q", ErrReservedKey, key)
	}
	return n.registry.Change(key, source)
}

// ChangeReclaimPredicate swaps the reserved reclaim predicate at runtime —
// the degraded-mode escape hatch: when a stalled peer pins the reclaim
// frontier and admission control has capped the send log, falling back to a
// weaker predicate (e.g. a majority KTH_MIN) lets reclaim advance and
// appends resume. Caveat: entries truncated under the weaker rule are gone
// from the retransmission buffer, so a peer excluded by the fallback that
// later heals will observe a gap in this node's stream and must recover out
// of band (snapshot/state transfer). Returns an error when auto-reclaim is
// disabled (no reclaim predicate is registered).
func (n *Node) ChangeReclaimPredicate(source string) error {
	if n.closed.Load() {
		return ErrClosed
	}
	return n.registry.Change(ReclaimPredicateKey, source)
}

// RemovePredicate deletes the predicate under key.
func (n *Node) RemovePredicate(key string) error {
	if key == ReclaimPredicateKey {
		return fmt.Errorf("%w: %q", ErrReservedKey, key)
	}
	return n.registry.Remove(key)
}

// WaitFor blocks until the stability frontier of the named predicate
// reaches seq (paper waitfor), and returns nil only then. It returns
// ErrClosed once the node closes, an error wrapping frontier.ErrPredUnknown
// when the predicate is removed, and one wrapping ctx's error when ctx ends.
func (n *Node) WaitFor(ctx context.Context, seq uint64, key string) error {
	err := n.registry.WaitFor(ctx, seq, key)
	if errors.Is(err, frontier.ErrClosed) {
		return ErrClosed
	}
	return err
}

// MonitorStabilityFrontier registers fn to run with the newest frontier
// each time the named predicate advances (paper
// monitor_stability_frontier). Intermediate values may be skipped; an
// upcall with sequence s implies the stability of every message ≤ s. The
// sequence fn hears is strictly increasing: after ChangePredicate swaps in a
// stronger predicate the frontier may retreat, and fn hears nothing until it
// passes the last value fn was told. fn runs on the control plane's one
// publication path, after the WaitFor callers the advance satisfies are
// released: keep it short, and do not call ChangePredicate or Close from it,
// nor wait there for a lock their callers hold — an adaptive controller's
// accessors, for one (hand off to a goroutine); registering and cancelling
// monitors, Send and this node's reads are fine.
func (n *Node) MonitorStabilityFrontier(key string, fn func(seq uint64)) (cancel func(), err error) {
	return n.registry.Monitor(key, frontier.MonitorFunc(fn))
}

// StabilityFrontier returns the last computed frontier of the named
// predicate (paper get_stability_frontier).
func (n *Node) StabilityFrontier(key string) (uint64, error) {
	return n.registry.Frontier(key)
}

// OnFrontierAdvance registers fn to run after any registered predicate's
// frontier advances, with the predicate key and the old and new frontiers.
// Unlike MonitorStabilityFrontier it covers every predicate (the reserved
// reclaim predicate included) and reports the previous value, which is what
// invariant checkers need to assert monotonicity: per key each call's old is
// the previous call's new, strictly increasing, with the re-climb after a swap
// to a stronger predicate left out. Hooks accumulate until their returned
// cancel detaches them, and are safe to add on a live node; fn runs on the
// control plane's publication path before waiters are released, so keep it
// short, and like a monitor it must not call ChangePredicate or Close. A nil
// fn is ignored and gets a no-op cancel.
func (n *Node) OnFrontierAdvance(fn func(key string, old, new uint64)) (cancel func()) {
	return n.registry.OnAdvance(fn)
}

// StartAdaptive registers the ladder's strongest rung under key and starts
// a closed-loop controller that steps the active predicate down the ladder
// when the stability SLO burns (or the frontier stalls) and back up, with
// hysteresis, when it recovers. Every rung is validated through the real
// DSL compile path up front, so a broken rung fails here instead of
// mid-incident. If key is already registered, the existing predicate is
// swapped to rung 0. One controller per key. The node's tick steps it every
// HeartbeatEvery, and it stops at node Close (or its own Close), leaving the
// last installed rung in place.
func (n *Node) StartAdaptive(key string, ladder adaptive.Ladder, cfg adaptive.Config) (*adaptive.Controller, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if key == ReclaimPredicateKey {
		return nil, fmt.Errorf("%w: %q", ErrReservedKey, key)
	}
	if ladder.Len() < 2 {
		return nil, errors.New("core: adaptive ladder is empty or unvalidated; build it with adaptive.NewLadder")
	}
	for _, r := range ladder.Rungs() {
		if _, err := dsl.Compile(r.Source, n.env); err != nil {
			return nil, fmt.Errorf("core: adaptive rung %q: %w", r.Name, err)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if slices.ContainsFunc(n.tickers.load(), func(t *ticker) bool { return t.ctrl != nil && t.ctrl.Key() == key }) {
		return nil, fmt.Errorf("core: adaptive controller already running for %q", key)
	}
	if n.registry.Has(key) {
		if err := n.registry.Change(key, ladder.Rung(0).Source); err != nil {
			return nil, err
		}
	} else if err := n.registry.Register(key, ladder.Rung(0).Source); err != nil {
		return nil, err
	}
	ctrl, err := adaptive.New(adaptiveHost{n}, key, ladder, cfg, n.metrics.stabLatency.With(key), n.metrics.reg)
	if err != nil {
		return nil, err
	}
	// Swap events go into the flight recorder as stabilize-stage events
	// labeled adaptive:<direction>:<rung>, so a trace of an incident shows
	// when the guarantee changed relative to the op stream around it.
	if rec := n.trace; rec != nil {
		ctrl.OnTransition(func(tr adaptive.Transition) {
			f, _ := n.registry.Frontier(key)
			label := rec.Label("adaptive:" + string(tr.Direction) + ":" + tr.ToRung.Name)
			rec.Record(optrace.StageStabilize, n.topo.Self, f, tr.To, label, n.nowFn().UnixNano())
		})
	}
	n.tickers.add(&ticker{ctrl: ctrl, step: func(now time.Time) bool {
		ctrl.Tick(now)
		return true
	}})
	return ctrl, nil
}

// adaptiveHost is the node as an adaptive controller sees it: its stall input
// is the predicate's one stall clock, read on the node's clock like every
// other reading of it.
type adaptiveHost struct{ *Node }

func (h adaptiveHost) Stuck(key string) (time.Duration, error) {
	st, err := h.registry.State(key, h.log.Head(), h.nowFn())
	return st.Stuck, err
}

// NewSLOMonitor attaches a multiwindow burn-rate monitor to n's tick. It
// watches the stability latency of the registered predicate key, the
// stabilizer_stability_latency_seconds{predicate=key} child of n's
// registry, takes a sample every HeartbeatEvery and runs cfg.OnAlert on the
// node tick. An empty cfg.Name becomes key. Closing the monitor detaches it.
func NewSLOMonitor(n *Node, key string, cfg metrics.SLOConfig) (*metrics.SLOMonitor, error) {
	if !n.registry.Has(key) {
		return nil, fmt.Errorf("%w: %q", frontier.ErrPredUnknown, key)
	}
	if cfg.Name == "" {
		cfg.Name = key
	}
	m, err := metrics.NewSLOMonitor(n.metrics.stabLatency.With(key), cfg)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.tickers.add(&ticker{step: func(now time.Time) bool {
		_, _, open := m.Tick(now)
		return open
	}})
	n.mu.Unlock()
	return m, nil
}

// EvalFor evaluates a predicate over another origin's stream: because
// every node's stability reports reach every node, each WAN site can
// independently evaluate the same predicate about the same stream, and
// "all WAN nodes reach the same conclusions eventually" (§III-A). Only the
// origin is told at once; a report about a foreign origin rides the next
// write on the reporter's link to this node, so the result can trail the
// origin's own view by one HeartbeatEvery on an idle link. It is never
// ahead of the truth: a late report makes a frontier weaker, not stronger.
// The predicate is compiled ad hoc; registered predicates always concern
// the local origin's stream. One recorder cell is a one-operand predicate:
// EvalFor(o, "MAX($b.t)") is the highest sequence of o's stream this node
// knows b to have acknowledged at level t (for the local origin,
// Snapshot().Acks[t][b-1] holds the same number).
func (n *Node) EvalFor(origin int, source string) (uint64, error) {
	if origin < 1 || origin > n.topo.N() {
		return 0, fmt.Errorf("core: origin %d out of range", origin)
	}
	prog, err := dsl.Compile(source, n.env)
	if err != nil {
		return 0, err
	}
	return n.tables[origin-1].EvalLocked(prog), nil
}

// Checkpoint exports the control-plane state needed to restart the node as
// the same primary (§III-E).
func (n *Node) Checkpoint() *Checkpoint {
	return &Checkpoint{
		NextSeq:  n.log.NextSeq(),
		SelfAcks: n.selfTable().Snapshot(),
	}
}

// NextSeq returns the sequence number the next Send will be assigned.
func (n *Node) NextSeq() uint64 { return n.log.NextSeq() }

func (n *Node) selfTable() *frontier.Table { return n.tables[n.topo.Self-1] }

// --- transport handler ---

// trHandler adapts Node to transport.Handler without exporting the
// callback methods on Node itself.
type trHandler Node

var (
	_ transport.Handler    = (*trHandler)(nil)
	_ transport.RunHandler = (*trHandler)(nil)
)

// HandleData implements transport.Handler. The transport delivers through
// HandleDataRun; a lone message is a run of one.
func (h *trHandler) HandleData(from int, d *wire.Data) {
	h.HandleDataRun(from, []wire.Data{*d})
}

// HandleDataRun implements transport.RunHandler: report the run received,
// deliver it in sequence order, report it delivered. Stability reports are
// monotone watermarks, so each is made once, for the run's last sequence:
// one recorder update and one queued ACK per stability type, whatever the
// run's length.
func (h *trHandler) HandleDataRun(from int, run []wire.Data) {
	n := (*Node)(h)
	table, self := n.tables[from-1], n.topo.Self
	last := run[len(run)-1].Seq
	report := func(typ uint16, seq uint64) {
		n.tr.QueueAck(wire.Ack{Origin: uint16(from), By: uint16(self), Type: typ, Seq: seq})
	}
	// The run's lag samples are published together, and before the
	// delivery count moves: a reader that sees the count sees every sample.
	start := n.nowFn().UnixNano()
	var lag metrics.Tally
	for i := range run {
		lag.Observe(start - run[i].SentUnixNano)
	}
	lag.AddTo(n.metrics.deliveryLag)
	n.metrics.deliveries.Add(int64(len(run)))

	// "received" is reported before the application upcalls: the run is
	// fully decoded, past the duplicate filter and in Stabilizer's hands.
	table.NoteReceived(from, self, last)
	report(frontier.TypeReceived, last)

	fns := n.deliverFns.load()
	for i := range run {
		d := &run[i]
		m := dataMessage(from, d)
		for _, fn := range fns {
			fn(m)
		}
		if rec := n.trace; rec != nil && rec.Sampled(from, d.Seq) {
			// Deliver is stamped after the frame's upcalls, and so before
			// the delivered row advances: a trace can never show
			// stabilization racing ahead of the delivery it depends on.
			done := n.nowFn().UnixNano()
			rec.Record(optrace.StageDeliver, from, d.Seq, 0, 0, done)
			n.metrics.stageDeliver.Observe(done - start)
		}
	}
	// "delivered" only once the last upcall has returned.
	table.Update(self, frontier.TypeDelivered, last)
	report(frontier.TypeDelivered, last)

	if n.persister != nil {
		var persisted uint64
		for i := range run {
			if err := n.persister.Persist(dataMessage(from, &run[i])); err == nil {
				persisted = run[i].Seq
			}
		}
		if persisted > 0 {
			table.Update(self, frontier.TypePersisted, persisted)
			report(frontier.TypePersisted, persisted)
		}
	}
}

// dataMessage is the application's view of one received data frame.
func dataMessage(from int, d *wire.Data) Message {
	return Message{
		Origin:  from,
		Seq:     d.Seq,
		Payload: d.Payload,
		SentAt:  time.Unix(0, d.SentUnixNano),
	}
}

// HandleAck implements transport.Handler.
func (h *trHandler) HandleAck(a *wire.Ack) {
	n := (*Node)(h)
	origin := int(a.Origin)
	if origin < 1 || origin > n.topo.N() {
		return
	}
	if rec := n.trace; rec != nil {
		// Recorded before the table update so the ack's timestamp always
		// precedes any Stabilize it enables. Acks are coalesced monotone
		// watermarks, so this runs at control-plane rate.
		now := n.nowFn().UnixNano()
		rec.Record(optrace.StageAck, origin, a.Seq, int(a.By), rec.Label(n.types.Name(a.Type)), now)
		if origin == n.topo.Self && rec.Sampled(origin, a.Seq) {
			if sentAt, ok := n.sendTimes.lookup(a.Seq); ok {
				n.metrics.stageAckReturn.Observe(now - sentAt)
			}
		}
	}
	advanced := n.tables[origin-1].Update(int(a.By), a.Type, a.Seq)
	if advanced && origin == n.topo.Self {
		n.registry.NoteCellUpdate(int(a.By), a.Type)
	}
}

// HandleApp implements transport.Handler.
func (h *trHandler) HandleApp(from int, a *wire.App) {
	m := AppMessage{
		From:       from,
		ID:         a.ID,
		Method:     a.Method,
		IsResponse: a.IsResponse,
		Payload:    a.Payload,
	}
	for _, fn := range (*Node)(h).appFns.load() {
		fn(m)
	}
}

// PeerUp implements transport.Handler.
func (h *trHandler) PeerUp(peer int) { (*Node)(h).firePeer(peer, true) }

// PeerDown implements transport.Handler.
func (h *trHandler) PeerDown(peer int) { (*Node)(h).firePeer(peer, false) }

func (n *Node) firePeer(peer int, up bool) {
	for _, hk := range n.peerFns.load() {
		hk.fn(peer, up)
	}
}

// NewDSLEnv builds a dsl.Env from a topology and a stability-type
// registry, for tooling (predcheck, benchmarks) that compiles predicates
// without running a node.
func NewDSLEnv(topo *config.Topology, types *frontier.Types) dsl.Env {
	return &topoEnv{topo: topo, types: types}
}

// --- DSL environment ---

// topoEnv adapts (Topology, Types) to dsl.Env.
type topoEnv struct {
	topo  *config.Topology
	types *frontier.Types
}

var _ dsl.Env = (*topoEnv)(nil)

func (e *topoEnv) N() int           { return e.topo.N() }
func (e *topoEnv) MyNode() int      { return e.topo.Self }
func (e *topoEnv) AllNodes() []int  { return e.topo.AllIndexes() }
func (e *topoEnv) MyAZNodes() []int { return e.topo.MyAZIndexes() }

func (e *topoEnv) AZNodes(name string) ([]int, error) { return e.topo.AZIndexes(name) }

func (e *topoEnv) NodeIndex(name string) (int, error) { return e.topo.IndexOf(name) }

func (e *topoEnv) StabilityType(name string) (uint16, error) { return e.types.Lookup(name) }
