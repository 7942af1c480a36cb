// Package stabilizer is a flexible geo-replication library with
// user-defined consistency models, reproducing "Stabilizer: Geo-Replication
// with User-defined Consistency" (ICDCS 2022).
//
// A Stabilizer deployment is a set of WAN nodes (data centers), each owning
// a pool of data it alone updates (primary-site model) and mirroring every
// other node's stream. The data plane streams messages aggressively to
// saturate WAN bandwidth; the control plane streams monotonic stability
// reports (ACKs) separately, and every node independently re-evaluates its
// registered stability frontier predicates as reports arrive.
//
// Consistency models are expressions in a small DSL over per-node
// acknowledgment counters:
//
//	MIN($ALLWNODES)                                   // received everywhere
//	KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)       // majority quorum
//	MIN(MIN($MYAZWNODES-$MYWNODE),
//	    MAX($ALLWNODES-$MYAZWNODES))                  // AZ-replicated + ≥1 remote
//	MIN(($ALLWNODES-$MYWNODE).verified)               // app-defined level
//
// Quick start:
//
//	node, err := stabilizer.Open(stabilizer.Config{
//	    Topology: topo,          // *stabilizer.Topology
//	    Network:  network,       // emulated or loopback fabric
//	})
//	node.RegisterPredicate("maj", "KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)")
//	seq, _ := node.Send(payload)
//	node.WaitFor(ctx, seq, "maj") // block until majority-stable
//
// To run several WAN nodes in one process — emulated deployments, tests,
// benchmarks — open a Cluster instead of wiring nodes by hand. Every node
// shares one metrics registry, each instrumenting through its own
// node-labeled group, so a single ServeMetrics endpoint exposes the whole
// deployment:
//
//	reg := stabilizer.NewMetricsRegistry()
//	cluster, err := stabilizer.OpenCluster(stabilizer.Config{
//	    Topology: topo,          // full deployment, every node booted
//	    Network:  network,
//	    Metrics:  reg,           // shared; families carry node="<id>"
//	})
//	defer cluster.Close()        // ordered drain, reverse boot order
//	n1 := cluster.Node(1)
//	seq, _ := n1.Send(payload)
//	cluster.WaitAllFor(ctx, seq, "maj") // stable on every live node
//	stabilizer.ServeMetrics(":9090", reg, nil, stabilizer.WithPprof())
//
// # Naming conventions
//
// Methods come in pairs when both a plain and a context-aware form make
// sense: the plain name (Send, Put, Backup) blocks with the package's
// default deadline semantics, and the Ctx-suffixed variant (SendCtx,
// PutCtx, BackupCtx) takes a context.Context for cancellation. Methods
// that are blocking by design — WaitFor, WaitStable, WaitAllFor — have no
// plain form and always take a context as their first argument.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package stabilizer

import (
	"flag"
	"net/http"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
	"stabilizer/internal/transport"
)

// Re-exported core types: the root package is a thin facade over
// internal/core so downstream users never import internal paths.
type (
	// Node is one Stabilizer WAN node. See core.Node for method docs.
	Node = core.Node
	// Config parameterizes Open and OpenCluster.
	Config = core.Config
	// Cluster is a set of WAN nodes booted together in one process,
	// sharing one metrics registry. See core.Cluster for method docs.
	Cluster = core.Cluster
	// ClusterConfig is Config, under the name OpenCluster's callers know.
	ClusterConfig = core.ClusterConfig
	// Flags is the command-line binding of a Config (see BindFlags).
	Flags = core.Flags
	// Checkpoint captures restartable control-plane state (§III-E).
	Checkpoint = core.Checkpoint
	// Message is a delivered data-plane message.
	Message = core.Message
	// AppMessage is an out-of-band application message.
	AppMessage = core.AppMessage
	// DeliverFunc consumes delivered messages.
	DeliverFunc = core.DeliverFunc
	// Persister persists delivered messages for the "persisted" level.
	Persister = core.Persister
	// Snapshot is the one read of a node's state (Node.Snapshot,
	// Cluster.Snapshot, /debug/stabilizer): topology, send log, traffic
	// totals, the local recorder and the verdict on every predicate.
	Snapshot = core.Snapshot
	// PredicateState is the verdict on one predicate (Node.Explain, a
	// Snapshot entry, the OnStall argument): frontier against head, how
	// long it has been stuck, and the peers holding it.
	PredicateState = core.PredicateState
	// PeerLag is one peer holding a PredicateState's frontier back.
	PeerLag = core.PeerLag
	// LogStats is one reading of the send log (Snapshot.Log).
	LogStats = transport.LogStats

	// MetricsRegistry collects instrumentation; share one across every
	// node of a deployment (Config.Metrics) and
	// expose it with ServeMetrics. Registries form label groups: each
	// node instruments through a node="<id>" view of the shared root, so
	// one scrape distinguishes every in-process node.
	MetricsRegistry = metrics.Registry
	// MetricsHistogram is a log2-bucketed latency histogram, such as a
	// node's per-predicate stability-latency child of
	// stabilizer_stability_latency_seconds.
	MetricsHistogram = metrics.Histogram
	// ServeOption tweaks the ServeMetrics endpoint (see WithPprof).
	ServeOption = metrics.ServeOption

	// SLOConfig parameterizes an in-process multiwindow burn-rate
	// monitor over a predicate's stability latency (see NewSLOMonitor).
	// The Prometheus-rule equivalent lives in examples/alerts.
	SLOConfig = metrics.SLOConfig
	// SLOMonitor samples a stability-latency histogram on the node tick
	// and fires BurnAlert transitions.
	SLOMonitor = metrics.SLOMonitor
	// BurnAlert is one SLO alert state change.
	BurnAlert = metrics.BurnAlert

	// Ladder is an ordered, validated sequence of predicate rungs from
	// strongest to weakest for the adaptive controller; build one with
	// NewLadder, ParseLadder, or a preset (LadderWNodes, LadderRegions,
	// LadderAllMajorityK).
	Ladder = adaptive.Ladder
	// Rung is one ladder step: a display name plus the predicate DSL
	// source installed while the rung is active.
	Rung = adaptive.Rung
	// AdaptiveConfig tunes one closed-loop consistency controller: the
	// stability-latency SLO (Target, Objective, burn windows) and the
	// hysteresis that keeps it from flapping (MinDwell, Cooldown).
	AdaptiveConfig = adaptive.Config
	// AdaptiveController is the handle for a running controller: current
	// rung, transition history, OnTransition hook. Obtain one from
	// Node.StartAdaptive.
	AdaptiveController = adaptive.Controller
	// AdaptiveTransition is one recorded controller rung change.
	AdaptiveTransition = adaptive.Transition
	// AdaptiveDirection labels a transition AdaptiveDown or AdaptiveUp.
	AdaptiveDirection = adaptive.Direction

	// Topology describes the WAN deployment.
	Topology = config.Topology
	// TopologyNode is one WAN node entry.
	TopologyNode = config.Node

	// FlowConfig bounds the send log with admission control: a byte cap
	// with a hysteretic low watermark at half of it, and an optional spill
	// directory that moves the cold backlog to disk instead of holding
	// senders. At the cap Send waits for reclaimed space; SendCtx waits as
	// long as its context allows. Set via Config.Flow.
	FlowConfig = transport.FlowConfig
	// StallConfig sets when a verdict reads stalled and Node.OnStall fires;
	// set via Config.Stall.
	StallConfig = core.StallConfig

	// TraceConfig arms the per-operation flight recorder (sampling rate
	// and per-node ring size); set via Config.Trace.
	// The zero value keeps tracing off with zero hot-path cost.
	TraceConfig = optrace.Config
	// TraceEvent is one recorded lifecycle point of a traced operation.
	TraceEvent = optrace.Event
	// TraceTimeline is the merged cross-node view of one operation
	// (see Cluster.TraceOp and Cluster.SlowestOp).
	TraceTimeline = optrace.Timeline

	// Network is the fabric abstraction nodes dial through.
	Network = emunet.Network
	// Link is one directed link's latency/bandwidth profile.
	Link = emunet.Link
	// Matrix holds a deployment's link profiles.
	Matrix = emunet.Matrix
)

// Directions an adaptive controller transition can move.
const (
	// AdaptiveDown is a step to a weaker rung (higher ladder index).
	AdaptiveDown = adaptive.DirectionDown
	// AdaptiveUp is a step back to a stronger rung (lower ladder index).
	AdaptiveUp = adaptive.DirectionUp
)

// ErrBackpressure marks a SendCtx whose context ended while the bounded send
// log was full (the error also wraps the context's): the caller sheds load
// instead of queueing unbounded.
var ErrBackpressure = transport.ErrBackpressure

// Open starts a Stabilizer node and connects it to its peers. It is the
// single-node form of OpenCluster: the node's metrics land in a
// node-labeled group of the registry exactly as a cluster member's would.
func Open(cfg Config) (*Node, error) { return core.Open(cfg) }

// OpenCluster boots every node of a topology in this process from one
// Config, wiring every node into one shared metrics registry. See Config for
// the knobs and Cluster for the cluster-wide helpers (Node, Snapshot,
// WaitAllFor, ordered Close). A Checkpoint, or anything else that differs
// per node, takes one Open per node with one shared Config.Metrics.
func OpenCluster(cfg Config) (*Cluster, error) { return core.OpenCluster(cfg) }

// BindFlags registers the node options both commands have (the metrics
// endpoint and tracing) on fs; defaults seeds the Config template the
// returned Flags fills in when fs is parsed.
// Flags.BindFlowFlags adds flow control and stall detection.
func BindFlags(fs *flag.FlagSet, defaults Config) *Flags { return core.BindFlags(fs, defaults) }

// NewMetricsRegistry returns an empty metrics registry for Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewSLOMonitor attaches an in-process multiwindow burn-rate monitor over
// the stability latency of node's registered predicate key — the code-level
// twin of the Prometheus alert rules in
// examples/alerts/stability-slo.rules.yml. It rides the node tick: one
// sample every HeartbeatEvery, OnAlert called on the tick. An unregistered
// key is an error; Close detaches the monitor.
func NewSLOMonitor(node *Node, key string, cfg SLOConfig) (*SLOMonitor, error) {
	return core.NewSLOMonitor(node, key, cfg)
}

// NewLadder validates and builds an adaptation ladder, strongest rung
// first. It needs at least two rungs with unique names and sources.
func NewLadder(rungs ...Rung) (Ladder, error) { return adaptive.NewLadder(rungs...) }

// ParseLadder builds a ladder from the CLI form "name=SOURCE;name=SOURCE",
// strongest rung first — the syntax the -adaptive-ladder flags take.
func ParseLadder(s string) (Ladder, error) { return adaptive.ParseLadder(s) }

// ServeMetrics binds addr and serves reg at /metrics (Prometheus text
// format; JSON with ?format=json) in the background, plus any extra
// handlers keyed by path. Options add optional endpoints (WithPprof).
// Close the returned server on shutdown.
func ServeMetrics(addr string, reg *MetricsRegistry, extra map[string]http.Handler, opts ...ServeOption) (*http.Server, error) {
	return metrics.Serve(addr, reg, extra, opts...)
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the ServeMetrics
// mux, so profiles come from the same port as the scrape endpoint instead
// of requiring the DefaultServeMux on a second listener.
func WithPprof() ServeOption { return metrics.WithPprof() }

// NewTraceHandler serves a cluster's per-operation flight recorder over
// HTTP: ?origin=N&seq=M returns the merged cross-node timeline of one
// sampled operation, ?op=latest-slow picks the slowest sampled op, and
// &format=chrome renders Chrome trace_event JSON for about://tracing.
// Mount it (conventionally at /debug/trace) via ServeMetrics' extra map;
// it requires Config.Trace to be enabled.
func NewTraceHandler(cluster *Cluster) http.Handler { return optrace.NewHTTPHandler(cluster) }

// LoadTopology reads and validates a topology JSON file.
func LoadTopology(path string) (*Topology, error) { return config.Load(path) }

// ParseTopology decodes and validates topology JSON.
func ParseTopology(raw []byte) (*Topology, error) { return config.Parse(raw) }

// NewMatrix returns an empty link-profile matrix.
func NewMatrix() *Matrix { return emunet.NewMatrix() }

// NewMemNetwork builds an in-process fabric shaped by matrix (nil for
// unshaped links) — ideal for tests and single-machine experiments.
func NewMemNetwork(matrix *Matrix) Network { return emunet.NewMemNetwork(matrix) }

// NewTCPNetwork builds a loopback-TCP fabric shaped by matrix.
func NewTCPNetwork(matrix *Matrix) Network { return emunet.NewTCPNetwork(matrix) }

// Mbps converts megabits per second to the bits-per-second unit Link uses.
func Mbps(v float64) float64 { return emunet.Mbps(v) }

// EC2Topology returns the paper's Fig. 2 8-node/4-region AWS topology.
func EC2Topology(self int) *Topology { return config.EC2Topology(self) }

// EC2Matrix returns the paper's Table I link profiles for EC2Topology.
func EC2Matrix() *Matrix { return emunet.EC2Matrix() }

// CloudLabTopology returns the paper's Table II 5-node CloudLab topology.
func CloudLabTopology(self int) *Topology { return config.CloudLabTopology(self) }

// CloudLabMatrix returns the paper's Table II link profiles.
func CloudLabMatrix() *Matrix { return emunet.CloudLabMatrix() }
