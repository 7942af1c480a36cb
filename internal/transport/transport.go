package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
	"stabilizer/internal/wire"
)

// Handler receives transport events. Callbacks run on transport goroutines:
// data and app callbacks are invoked in FIFO order per peer; implementations
// must be safe for concurrent calls from different peers.
type Handler interface {
	// HandleData delivers one sequenced data message originated by peer
	// from. Duplicates are filtered by the transport; sequence numbers
	// are strictly increasing per peer. The Data struct and its payload
	// are valid only for the duration of the call (wire.Reader states the
	// rule); copy what is kept.
	HandleData(from int, d *wire.Data)
	// HandleAck delivers one monotonic stability report. Like Data, the
	// struct is only valid during the call. Two goroutines may call it for
	// one reporting peer at once: the reader of the peer's connection to
	// us, and the reader of our connection to the peer, which carries back
	// the reports a lone message of ours raised there. Reports are
	// watermarks, so their order across the two does not matter, and a
	// report may arrive twice.
	HandleAck(a *wire.Ack)
	// HandleApp delivers an application request/response message.
	HandleApp(from int, a *wire.App)
	// PeerUp fires when a peer is first heard from, or heard again after
	// a failure.
	PeerUp(peer int)
	// PeerDown fires when a peer has been silent for peerDownTicks
	// consecutive ticks.
	PeerDown(peer int)
}

// RunHandler is optionally implemented by a Handler that takes received data
// a run at a time. A run is the fresh Data frames of one peer that were
// already decoded when the transport took the peer's delivery lock: at least
// one frame, strictly increasing sequences, duplicates filtered. A handler
// that implements it receives every data frame through HandleDataRun and
// none through HandleData; the slice, its structs and their payloads are
// valid only for the duration of the call, as with HandleData.
type RunHandler interface {
	HandleDataRun(from int, run []wire.Data)
}

// maxRecvRun caps the frames applied as one run, bounding how long a control
// frame queued behind a burst — and the burst's own delivered report — waits.
const maxRecvRun = 512

// Config parameterizes a Transport.
type Config struct {
	// Self is the local node's 1-based index.
	Self int
	// N is the number of WAN nodes.
	N int
	// Network is the fabric to dial and listen through.
	Network emunet.Network
	// Handler receives events. Required.
	Handler Handler
	// Log is the shared send log feeding every outgoing link. Required.
	Log *SendLog
	// HeartbeatEvery is the tick period (default 500ms): a heartbeat on
	// every link, a failure-detector scan and OnTick each tick. A peer is
	// down after peerDownTicks ticks without a frame from it.
	HeartbeatEvery time.Duration
	// Metrics receives the transport's instrumentation families
	// (stabilizer_transport_*). Nil uses a private registry: the per-peer
	// counters are the only traffic ledger there is, and Totals sums them.
	Metrics *metrics.Registry
	// TopoTags optionally labels the node-level sendlog/backpressure
	// families with the local availability zone and region so registries
	// aggregating many nodes can roll them up (empty strings omit no
	// labels — the families always carry az/region, possibly blank).
	TopoTags TopoTag
	// PeerTags optionally maps peer index → that peer's zone, enabling
	// the per-{az,region} rollups of the byte/frame families
	// (stabilizer_transport_zone_*). Missing peers roll up under blank
	// labels.
	PeerTags map[int]TopoTag
	// Trace, when non-nil, is the node's lifecycle flight recorder: the
	// transport records BatchEnqueue/WireSend on the outgoing links and
	// WireRecv on accepted connections for sampled operations, and feeds
	// the stabilizer_stage_seconds batch_queue/wire_send/flight segments.
	// Nil keeps every hot path branch-predictable and allocation-free.
	Trace *optrace.Recorder
	// OnTick, when set, runs on every tick of the transport's one clock, after
	// the heartbeats are queued and the failure detector has scanned, with the
	// tick's time. It runs on the tick goroutine and delays the next tick
	// while it runs: keep it short or hand off.
	OnTick func(now time.Time)

	// batch overrides defaultBatch when non-zero: the reconnect tests cut
	// batches mid-run with a 40-byte bound.
	batch batchLimits
}

// TopoTag places a node in the WAN topology: its availability zone and
// region.
type TopoTag struct {
	AZ     string
	Region string
}

// batchLimits bounds the data one pass of a link's writer drains from the
// send log and hands to the connection as one write: that many frames or that
// many payload bytes, whichever comes first (one frame always goes, whatever
// its size). It is also how long the control outbox (ACKs, heartbeats) waits
// behind bulk data.
type batchLimits struct {
	maxFrames, maxBytes int
}

var defaultBatch = batchLimits{maxFrames: 256, maxBytes: 16 << 10}

// peerInstruments are the per-peer metric instances, resolved once at
// startup so hot paths touch only atomics.
type peerInstruments struct {
	bytesSent *metrics.Counter
	bytesRecv *metrics.Counter
	dataSent  *metrics.Counter
	ackSent   *metrics.Counter
	appSent   *metrics.Counter
	hbSent    *metrics.Counter
	dataRecv  *metrics.Counter
	ackRecv   *metrics.Counter
	appRecv   *metrics.Counter
	hbRecv    *metrics.Counter
	resent    *metrics.Counter
	reconn    *metrics.Counter
	fdTrips   *metrics.Counter
	hbRTT     *metrics.Histogram
	up        *metrics.Gauge
}

// Transport connects the local node to every peer: it owns one outgoing
// link per peer (our data, ACKs and app messages flow there) and accepts
// one incoming link per peer (their traffic toward us).
type Transport struct {
	cfg      Config
	listener net.Listener
	// handleRun is the Handler's data entry point, resolved once at New:
	// its HandleDataRun when it is a RunHandler, a HandleData loop otherwise.
	handleRun func(from int, run []wire.Data)

	// links is indexed by peer (nil at 0 and Self) and linkList is the same
	// links densely, for the paths that walk them all (NotifyData on every
	// append). Both are built once at construction, never mutated.
	links    []*link
	linkList []*link
	peers    map[int]*peerInstruments // keyed by peer index
	// board holds this node's stability reports for every link to read.
	board *board

	// recvLast[p] is the highest contiguous data sequence received from
	// peer p. It is written under deliverMu[p] and read lock-free by
	// snapshot getters and the reconnect handshake. Index 0 is unused
	// (peers are 1-based).
	recvLast []atomic.Uint64
	// deliverMu[p] serializes the duplicate filter and the data upcall for
	// peer p, run by run, so the Handler's per-peer FIFO contract holds even
	// while a superseded connection from the same peer is still draining
	// alongside its replacement. Per-peer, so peers never contend with each
	// other.
	deliverMu []sync.Mutex
	// loneRun[p] is set, under deliverMu[p], while a run of one frame from
	// peer p is in the Handler: the reports about p raised meanwhile wake no
	// link, because the reader writes them back on p's connection once the
	// run is applied (serveIncoming). Index 0 is unused.
	loneRun []atomic.Bool

	recvMu   sync.Mutex
	incoming map[int]net.Conn  // current accepted conn per peer
	accepted map[net.Conn]bool // every live accepted conn, incl. pre-handshake

	// Liveness is frame-counter based so the receive hot path stays off
	// the clock: heardTick[p] moves whenever peer p is heard from (one
	// atomic add per frame, or per run of data frames), and the transport's
	// tick counts the scans at which it did not move. liveMu serializes
	// only the rare up/down transitions. Index 0 is unused (peers are
	// 1-based).
	liveMu    sync.Mutex
	heardTick []atomic.Int64
	peerUpA   []atomic.Bool
	// The tick's own state: the heartbeat counter, and per peer the heard
	// counter at the last scan and the scans since it last moved.
	clock uint64
	seen  []int64
	quiet []int

	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	started atomic.Bool

	// Stage-latency segments of stabilizer_stage_seconds, resolved once
	// at startup; nil when tracing is disabled.
	stageBatchQueue *metrics.Histogram
	stageWireSend   *metrics.Histogram
	stageFlight     *metrics.Histogram

	// recvRunFrames observes the frames handed to the Handler per run: the
	// receive path's coalescing factor.
	recvRunFrames *metrics.Histogram
}

// New creates a transport. Call Start to begin dialing and accepting.
func New(cfg Config) (*Transport, error) {
	if cfg.Handler == nil {
		return nil, errors.New("transport: Config.Handler is required")
	}
	if cfg.Log == nil {
		return nil, errors.New("transport: Config.Log is required")
	}
	if cfg.Network == nil {
		return nil, errors.New("transport: Config.Network is required")
	}
	if cfg.Self < 1 || cfg.Self > cfg.N {
		return nil, fmt.Errorf("transport: self index %d out of range [1,%d]", cfg.Self, cfg.N)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.batch == (batchLimits{}) {
		cfg.batch = defaultBatch
	}
	t := &Transport{
		cfg:       cfg,
		links:     make([]*link, cfg.N+1),
		board:     newBoard(cfg.N),
		peers:     make(map[int]*peerInstruments, cfg.N-1),
		recvLast:  make([]atomic.Uint64, cfg.N+1),
		deliverMu: make([]sync.Mutex, cfg.N+1),
		loneRun:   make([]atomic.Bool, cfg.N+1),
		incoming:  make(map[int]net.Conn, cfg.N-1),
		accepted:  make(map[net.Conn]bool, cfg.N-1),
		heardTick: make([]atomic.Int64, cfg.N+1),
		seen:      make([]int64, cfg.N+1),
		quiet:     make([]int, cfg.N+1),
		peerUpA:   make([]atomic.Bool, cfg.N+1),
		stop:      make(chan struct{}),
	}
	if rh, ok := cfg.Handler.(RunHandler); ok {
		t.handleRun = rh.HandleDataRun
	} else {
		t.handleRun = func(from int, run []wire.Data) {
			for i := range run {
				cfg.Handler.HandleData(from, &run[i])
			}
		}
	}
	m := cfg.Metrics
	bytesSent := m.CounterVec("stabilizer_transport_bytes_sent_total", "Frame bytes written per peer.", "peer")
	bytesRecv := m.CounterVec("stabilizer_transport_bytes_recv_total", "Frame bytes read per peer.", "peer")
	framesSent := m.CounterVec("stabilizer_transport_frames_sent_total", "Frames written per peer and kind.", "peer", "kind")
	framesRecv := m.CounterVec("stabilizer_transport_frames_recv_total", "Frames read per peer and kind.", "peer", "kind")
	resent := m.CounterVec("stabilizer_transport_data_resent_total", "Data frames retransmitted after reconnect, per peer.", "peer")
	reconn := m.CounterVec("stabilizer_transport_reconnects_total", "Successful re-dials after the first connection, per peer.", "peer")
	fdTrips := m.CounterVec("stabilizer_transport_failure_detector_trips_total", "Failure detector suspicions raised per peer.", "peer")
	hbRTT := m.HistogramVec("stabilizer_transport_heartbeat_rtt_seconds", "Heartbeat echo round-trip time per peer.", metrics.LatencyOpts, "peer")
	up := m.GaugeVec("stabilizer_transport_peer_up", "1 while the peer is considered alive.", "peer")
	t.recvRunFrames = m.Histogram("stabilizer_transport_recv_run_frames",
		"Data frames handed to the handler per receive run.",
		metrics.HistogramOpts{MaxPow: 10})

	// Node-level send-log occupancy and backpressure families, tagged with
	// the local topology so multi-node registries can roll them up by
	// AZ/region. Each gauge is one field of the log's Stats, read at
	// exposition time. The spill-tier families (zero and inert without a
	// spill directory) say how much retransmission backlog has been migrated
	// to disk, how much has been streamed back to reconnecting peers, and
	// whether the tier is currently degraded by a disk fault.
	log := cfg.Log
	for _, g := range []struct {
		name, help string
		read       func(LogStats) int64
	}{
		{"stabilizer_transport_sendlog_bytes", "Payload bytes buffered in the send log awaiting global reclaim.",
			func(s LogStats) int64 { return s.Bytes }},
		{"stabilizer_transport_sendlog_entries", "Entries buffered in the send log awaiting global reclaim.",
			func(s LogStats) int64 { return int64(s.Entries) }},
		{"stabilizer_transport_sendlog_cap_bytes", "Configured send-log byte cap (0 = unbounded).",
			func(s LogStats) int64 { return s.CapBytes }},
		{"stabilizer_transport_backpressure_waiters", "Appends currently blocked on send-log admission control.",
			func(s LogStats) int64 { return int64(s.Waiting) }},
		{"stabilizer_sendlog_spilled_bytes", "Payload bytes parked in on-disk spill segments awaiting reclaim or read-back.",
			func(s LogStats) int64 { return s.SpilledBytes }},
		{"stabilizer_sendlog_spilled_segments", "Live on-disk spill segment files.",
			func(s LogStats) int64 { return s.SpilledSegments }},
		{"stabilizer_sendlog_readback_bytes", "Cumulative payload bytes served to readers from the spill tier.",
			func(s LogStats) int64 { return s.SpillReadbackBytes }},
		{"stabilizer_sendlog_spill_degraded", "1 while the spill tier cannot write (log degraded to blocking admission).",
			func(s LogStats) int64 {
				if s.SpillDegraded {
					return 1
				}
				return 0
			}},
	} {
		m.GaugeFuncVec(g.name, g.help, "az", "region").Set(
			func() float64 { return float64(g.read(log.Stats())) }, cfg.TopoTags.AZ, cfg.TopoTags.Region)
	}
	bp := m.CounterVec("stabilizer_transport_backpressure_total",
		"Appends gated by send-log admission control, by outcome.", "outcome")
	log.mu.Lock()
	log.blocked, log.shed = bp.With("blocked"), bp.With("shed")
	log.mu.Unlock()
	if cfg.Trace != nil {
		stage := m.HistogramVec(optrace.StageFamily, optrace.StageFamilyHelp, metrics.LatencyOpts, "stage")
		t.stageBatchQueue = stage.With(optrace.SegBatchQueue)
		t.stageWireSend = stage.With(optrace.SegWireSend)
		t.stageFlight = stage.With(optrace.SegFlight)
	}
	for p := 1; p <= cfg.N; p++ {
		if p == cfg.Self {
			continue
		}
		ps := strconv.Itoa(p)
		t.peers[p] = &peerInstruments{
			bytesSent: bytesSent.With(ps),
			bytesRecv: bytesRecv.With(ps),
			dataSent:  framesSent.With(ps, "data"),
			ackSent:   framesSent.With(ps, "ack"),
			appSent:   framesSent.With(ps, "app"),
			hbSent:    framesSent.With(ps, "heartbeat"),
			dataRecv:  framesRecv.With(ps, "data"),
			ackRecv:   framesRecv.With(ps, "ack"),
			appRecv:   framesRecv.With(ps, "app"),
			hbRecv:    framesRecv.With(ps, "heartbeat"),
			resent:    resent.With(ps),
			reconn:    reconn.With(ps),
			fdTrips:   fdTrips.With(ps),
			hbRTT:     hbRTT.With(ps),
			up:        up.With(ps),
		}
		t.links[p] = newLink(t, p)
		t.linkList = append(t.linkList, t.links[p])
	}
	t.registerZoneRollups()
	return t, nil
}

// registerZoneRollups exposes the byte/frame families keyed by the destination
// (or source) peer's {az,region} instead of its index, for dashboards over
// deployments too large to chart per peer. A rollup child holds no count of
// its own: a scrape sums the per-peer counters of the zone's peers (peers
// without a tag roll up under blank labels), so the two families cannot
// disagree and a counted frame is one atomic add.
func (t *Transport) registerZoneRollups() {
	zones := make(map[TopoTag][]*peerInstruments)
	for p, ins := range t.peers {
		tag := t.cfg.PeerTags[p]
		zones[tag] = append(zones[tag], ins)
	}
	m := t.cfg.Metrics
	bytesSent := m.CounterFuncVec("stabilizer_transport_zone_bytes_sent_total", "Frame bytes written, rolled up by destination peer zone.", "az", "region")
	bytesRecv := m.CounterFuncVec("stabilizer_transport_zone_bytes_recv_total", "Frame bytes read, rolled up by source peer zone.", "az", "region")
	framesSent := m.CounterFuncVec("stabilizer_transport_zone_frames_sent_total", "Frames written, rolled up by destination peer zone and kind.", "az", "region", "kind")
	framesRecv := m.CounterFuncVec("stabilizer_transport_zone_frames_recv_total", "Frames read, rolled up by source peer zone and kind.", "az", "region", "kind")
	type pick func(*peerInstruments) *metrics.Counter
	for tag, members := range zones {
		sum := func(of pick) func() float64 {
			return func() float64 {
				var s int64
				for _, ins := range members {
					s += of(ins).Value()
				}
				return float64(s)
			}
		}
		az, rg := tag.AZ, tag.Region
		bytesSent.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.bytesSent }), az, rg)
		bytesRecv.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.bytesRecv }), az, rg)
		framesSent.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.dataSent }), az, rg, "data")
		framesSent.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.ackSent }), az, rg, "ack")
		framesSent.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.appSent }), az, rg, "app")
		framesSent.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.hbSent }), az, rg, "heartbeat")
		framesRecv.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.dataRecv }), az, rg, "data")
		framesRecv.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.ackRecv }), az, rg, "ack")
		framesRecv.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.appRecv }), az, rg, "app")
		framesRecv.Set(sum(func(i *peerInstruments) *metrics.Counter { return i.hbRecv }), az, rg, "heartbeat")
	}
}

// Start opens the listener, the accept loop, the per-peer dial loops and the
// transport's one tick, which queues heartbeats and runs the failure detector.
func (t *Transport) Start() error {
	if t.started.Swap(true) {
		return errors.New("transport: already started")
	}
	l, err := t.cfg.Network.Listen(t.cfg.Self)
	if err != nil {
		return fmt.Errorf("transport: listen: %w", err)
	}
	t.listener = l
	t.wg.Add(1)
	go t.acceptLoop()
	for _, lk := range t.linkList {
		t.wg.Add(1)
		go lk.run()
	}
	t.wg.Add(1)
	go t.tickLoop()
	return nil
}

// Close shuts the transport down and waits for its goroutines.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stop)
	if t.listener != nil {
		_ = t.listener.Close()
	}
	for _, lk := range t.linkList {
		lk.close()
	}
	t.recvMu.Lock()
	for c := range t.accepted {
		_ = c.Close()
	}
	t.recvMu.Unlock()
	t.wg.Wait()
	return nil
}

// NotifyData hands the entries just appended to the send log to every
// outgoing link. A link whose writer parked lending its stream, whose peer has
// reported on every message before the log's head and whose connection takes
// the write now gets the new frames written by the caller, and no wake-up
// (link.borrow): a lone message goes out on the Send's goroutine. Every other
// link is woken. Wake-ups are coalesced per link: during a burst of appends
// the first ring fills a link's doorbell and the rest find it full.
func (t *Transport) NotifyData() {
	head := t.cfg.Log.Head()
	for _, lk := range t.linkList {
		if !lk.borrow(head) {
			lk.wake()
		}
	}
}

// QueueAck posts a stability report on the node's board, where only the
// newest sequence per (origin, by, type) is kept — monotonicity makes older
// reports redundant — and, if it is news, wakes one link: the one to
// a.Origin, the node whose predicates read it. While a lone message from
// a.Origin is being applied it wakes nothing: the reader that applies it
// writes the report back on the origin's own connection once the message is
// in (serveIncoming). Either way the link to a.Origin also carries the report
// in its next write, a heartbeat at the latest. Every other peer gets the
// report with its link's next heartbeat, so its view of a foreign origin
// trails by at most one HeartbeatEvery. The cost is the same whatever N is.
// Reports about an origin outside [1, N] are dropped: no peer's recorder has
// a table for them.
func (t *Transport) QueueAck(a wire.Ack) {
	if a.Origin < 1 || int(a.Origin) > t.cfg.N || !t.board.raise(a) {
		return
	}
	if lk := t.links[a.Origin]; lk != nil && !t.loneRun[a.Origin].Load() {
		lk.wake()
	}
}

// SendApp enqueues an application message toward peer.
func (t *Transport) SendApp(peer int, a *wire.App) error {
	if peer < 1 || peer >= len(t.links) || t.links[peer] == nil {
		return fmt.Errorf("transport: no link to peer %d", peer)
	}
	return t.links[peer].queueApp(a)
}

// Totals is the node's traffic summed over its peers: frame bytes written
// to and read from them (the Hello that opens an accepted connection
// included), data frames written (retransmissions included) and read
// (duplicates included), data frames rewritten after reconnects, successful
// re-dials after each link's first connect, and peers declared suspect.
type Totals struct {
	BytesSent            int64 `json:"bytesSent"`
	BytesRecv            int64 `json:"bytesRecv"`
	DataFramesSent       int64 `json:"dataFramesSent"`
	DataFramesRecv       int64 `json:"dataFramesRecv"`
	ResentFrames         int64 `json:"resentFrames"`
	Reconnects           int64 `json:"reconnects"`
	FailureDetectorTrips int64 `json:"failureDetectorTrips"`
}

// Totals sums the per-peer counters: the children of the
// stabilizer_transport_* families under this node's label are the only
// ledger, so a total is worked out when somebody asks and always equals what
// a scrape would add up. A registry outlives an in-process restart of the
// node, and so do the counts.
func (t *Transport) Totals() Totals {
	var s Totals
	for _, ins := range t.peers {
		s.BytesSent += ins.bytesSent.Value()
		s.BytesRecv += ins.bytesRecv.Value()
		s.DataFramesSent += ins.dataSent.Value()
		s.DataFramesRecv += ins.dataRecv.Value()
		s.ResentFrames += ins.resent.Value()
		s.Reconnects += ins.reconn.Value()
		s.FailureDetectorTrips += ins.fdTrips.Value()
	}
	return s
}

// RecvLast returns the highest contiguous data sequence received from peer.
func (t *Transport) RecvLast(peer int) uint64 {
	if peer < 1 || peer >= len(t.recvLast) {
		return 0
	}
	return t.recvLast[peer].Load()
}

// Up reports whether the failure detector holds peer alive.
func (t *Transport) Up(peer int) bool { return t.peerUpA[peer].Load() }

// RecvLastAll returns the highest contiguous data sequence received from
// every peer that has sent data.
func (t *Transport) RecvLastAll() map[int]uint64 {
	out := make(map[int]uint64)
	for p := 1; p < len(t.recvLast); p++ {
		if s := t.recvLast[p].Load(); s > 0 {
			out[p] = s
		}
	}
	return out
}

// peerIns returns peer's resolved instruments (nil for unknown peers).
func (t *Transport) peerIns(peer int) *peerInstruments { return t.peers[peer] }

// --- accept path ---

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.recvMu.Lock()
		if t.closed.Load() {
			t.recvMu.Unlock()
			_ = conn.Close()
			return
		}
		t.accepted[conn] = true
		t.recvMu.Unlock()
		t.wg.Add(1)
		go t.serveIncoming(conn)
	}
}

// countingReader counts the bytes read from a connection into the peer's
// counter. On an accepted connection who that is is not known until the Hello
// is decoded, so the bytes read before then are held and credited by
// identify; a dialer names the peer once the handshake is done and leaves
// what it held uncounted. One goroutine at a time touches it.
type countingReader struct {
	r    io.Reader
	peer *metrics.Counter
	held int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if cr.peer != nil {
		cr.peer.Add(int64(n))
	} else {
		cr.held += int64(n)
	}
	return n, err
}

// identify names the peer and credits it everything read so far: the Hello
// and whatever the first reads brought in behind it.
func (cr *countingReader) identify(peer *metrics.Counter) {
	cr.peer = peer
	peer.Add(cr.held)
}

func (t *Transport) serveIncoming(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.recvMu.Lock()
		delete(t.accepted, conn)
		t.recvMu.Unlock()
		_ = conn.Close()
	}()
	cr := &countingReader{r: conn}
	r := wire.NewReader(cr)
	msg, err := r.Next()
	if err != nil {
		_ = conn.Close()
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok || int(hello.From) < 1 || int(hello.From) > t.cfg.N || int(hello.From) == t.cfg.Self {
		_ = conn.Close()
		return
	}
	from := int(hello.From)
	ins := t.peerIns(from)
	cr.identify(ins.bytesRecv)

	t.recvMu.Lock()
	if old := t.incoming[from]; old != nil {
		_ = old.Close()
	}
	t.incoming[from] = conn
	t.recvMu.Unlock()
	last := t.recvLast[from].Load()

	// scratch is the connection's reusable write buffer: the HelloAck here
	// and every heartbeat echo and report written back below are framed into
	// it instead of paying wire.WriteFrame's per-call allocation.
	var (
		scratch []byte
		back    reportsBack
	)
	scratch = wire.AppendFrame(scratch, &wire.HelloAck{From: uint16(t.cfg.Self), LastSeq: last})
	if _, err := conn.Write(scratch); err != nil {
		_ = conn.Close()
		return
	}
	t.heard(from)

	// run is the connection's reusable run buffer: the Data frame Next
	// returned plus every further one already buffered behind it.
	var run []wire.Data
	for {
		msg, err := r.Next()
		if err != nil {
			t.recvMu.Lock()
			if t.incoming[from] == conn {
				delete(t.incoming, from)
			}
			t.recvMu.Unlock()
			_ = conn.Close()
			return
		}
		t.heard(from)
		switch m := msg.(type) {
		case *wire.Data:
			run = r.AppendBufferedData(append(run[:0], *m), maxRecvRun)
			if !t.applyRun(from, ins, run) {
				break
			}
			// A lone message: its reports go back to the origin on this
			// connection now, read after applyRun cleared loneRun, so a
			// report raised by any goroutine while the mark was up is in
			// what the board shows here. A report raised after the clear
			// woke the link. The write is a shortcut: the link carries
			// every report too, so one lost with this connection costs at
			// most a heartbeat.
			var n int
			if scratch, n = back.appendAbout(scratch[:0], t.board, from); n == 0 {
				break
			}
			if _, err := conn.Write(scratch); err != nil {
				_ = conn.Close()
				break
			}
			ins.ackSent.Add(int64(n))
			ins.bytesSent.Add(int64(len(scratch)))
		case *wire.Ack:
			ins.ackRecv.Inc()
			t.links[from].noteReport(m)
			t.cfg.Handler.HandleAck(m)
		case *wire.App:
			ins.appRecv.Inc()
			t.cfg.Handler.HandleApp(from, m)
		case *wire.Heartbeat:
			// Echo the heartbeat, the same frame on the connection it came
			// in on, so the dialer measures one network round trip whatever
			// our own link toward it is busy with. This goroutine is the
			// connection's only writer after the HelloAck, so the write
			// (and scratch reuse) is race-free.
			ins.hbRecv.Inc()
			scratch = wire.AppendFrame(scratch[:0], m)
			if _, err := conn.Write(scratch); err != nil {
				_ = conn.Close()
				break
			}
			ins.hbSent.Inc()
			ins.bytesSent.Add(int64(len(scratch)))
		case *wire.Hello, *wire.HelloAck:
			// Unexpected mid-stream; ignore.
		}
	}
}

// applyRun counts a decoded run, filters the duplicates a
// resend-after-reconnect causes and hands what is fresh to the Handler in one
// call, filter and upcall under the peer's delivery mutex. The mutex is what
// makes the Handler's per-peer FIFO promise real: during a reconnect a
// superseded connection from the same peer can still be draining frames
// alongside its replacement, and without serialization the two goroutines
// could both pass the filter (for different sequences) and race their upcalls
// out of order. Normal operation has one connection per peer, so the lock is
// uncontended. recvLast moves to the run's last sequence before the upcall:
// every frame it covers is decoded and past the filter by then. It reports
// whether the run held exactly one fresh frame, a lone message, whose
// reports the caller writes back (loneRun).
func (t *Transport) applyRun(from int, ins *peerInstruments, run []wire.Data) bool {
	ins.dataRecv.Add(int64(len(run)))
	// Record wire arrivals before the duplicate filter: a resent frame
	// really did cross the wire again, and the trace should show it. The
	// run was buffered together, so its sampled frames share one clock read.
	if rec := t.cfg.Trace; rec != nil {
		var now int64
		for i := range run {
			if d := &run[i]; rec.Sampled(from, d.Seq) {
				if now == 0 {
					now = nowNano()
				}
				rec.Record(optrace.StageWireRecv, from, d.Seq, from, 0, now)
				t.stageFlight.Observe(now - d.SentUnixNano)
			}
		}
	}
	mu := &t.deliverMu[from]
	mu.Lock()
	defer mu.Unlock()
	last := t.recvLast[from].Load()
	fresh := run[:0]
	for i := range run {
		if run[i].Seq > last {
			last = run[i].Seq
			fresh = append(fresh, run[i])
		}
	}
	if len(fresh) == 0 {
		return false
	}
	t.recvLast[from].Store(last)
	t.recvRunFrames.Observe(int64(len(fresh)))
	lone := len(fresh) == 1
	if lone {
		t.loneRun[from].Store(true)
	}
	t.handleRun(from, fresh)
	if lone {
		t.loneRun[from].Store(false)
	}
	return lone
}

// --- liveness ---

// heard notes traffic from peer. The steady-state cost is one atomic add
// plus one atomic load — no clock read, no lock, no map write — because the
// transport's tick derives arrival times from counter movement. Only the up
// transition (first frame after down) takes liveMu.
func (t *Transport) heard(peer int) {
	t.heardTick[peer].Add(1)
	if t.peerUpA[peer].Load() {
		return
	}
	t.liveMu.Lock()
	wasUp := t.peerUpA[peer].Swap(true)
	t.liveMu.Unlock()
	if !wasUp {
		if ins := t.peerIns(peer); ins != nil {
			ins.up.Set(1)
		}
		t.cfg.Handler.PeerUp(peer)
	}
}

// peerDownTicks is the failure detector's threshold: a peer up is declared
// down at the peerDownTicks-th consecutive tick that finds no frame from it
// since the tick before.
const peerDownTicks = 8

// tickLoop is the transport's one clock: it runs tick every HeartbeatEvery.
func (t *Transport) tickLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case now := <-ticker.C:
			t.tick(now)
		}
	}
}

// tick queues a heartbeat on each link, then runs the failure detector's
// scan: a peer up whose heard counter has not moved for peerDownTicks scans
// is declared down. Last it calls Config.OnTick, the node's clock for
// everything else.
func (t *Transport) tick(now time.Time) {
	t.clock++
	for _, lk := range t.linkList {
		lk.queueHeartbeat(t.clock)
	}
	var downs []int
	t.liveMu.Lock()
	for _, lk := range t.linkList {
		peer := lk.peer
		if cur := t.heardTick[peer].Load(); cur != t.seen[peer] {
			t.seen[peer] = cur
			t.quiet[peer] = 0
			continue
		}
		t.quiet[peer]++
		if t.quiet[peer] >= peerDownTicks && t.peerUpA[peer].Load() {
			t.peerUpA[peer].Store(false)
			downs = append(downs, peer)
		}
	}
	t.liveMu.Unlock()
	for _, p := range downs {
		if ins := t.peerIns(p); ins != nil {
			ins.fdTrips.Inc()
			ins.up.Set(0)
		}
		t.cfg.Handler.PeerDown(p)
	}
	if t.cfg.OnTick != nil {
		t.cfg.OnTick(now)
	}
}
