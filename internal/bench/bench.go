// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VI) on the emulated WAN. Each
// experiment is a plain function returning structured results and printing
// the same rows/series the paper reports; cmd/stabilizer-bench and the
// repository's bench_test.go are thin wrappers around these functions.
//
// Absolute numbers differ from the paper (the substrate is an emulator,
// not EC2/CloudLab hardware), but the comparisons — who wins, by what
// factor, where the crossovers are — are the reproduction targets;
// EXPERIMENTS.md records paper-vs-measured for each.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/optrace"
	"stabilizer/internal/testbed"
)

// Options configure an experiment run.
type Options struct {
	// Out receives the experiment's report (defaults to io.Discard).
	Out io.Writer
	// TimeScale divides all emulated latencies (and multiplies
	// bandwidth) so experiments finish quickly; reported latencies are
	// rescaled back to paper units. 1 = faithful wall-clock.
	TimeScale float64
	// Fabric picks the network: "mem" (default) or "tcp".
	Fabric string
	// Short shrinks workloads for use under `go test -short` and
	// testing.B iteration.
	Short bool
	// Cluster is the template every cluster an experiment starts boots from
	// (startCluster fills in the topology, the fabric and the tick
	// period). Metrics, when set, is shared by every node of every
	// cluster: families are get-or-create, so successive clusters accumulate
	// into the same counters and a live /metrics endpoint watches the whole
	// run. The zero value is the faithful-measurement default: tracing
	// perturbs what an experiment measures.
	Cluster core.Config
	// TraceTarget, when set, is pointed at each cluster an experiment
	// boots, so a long-lived /debug/trace endpoint built over it follows
	// the live run across successive short-lived clusters.
	TraceTarget *TraceTarget
}

// TraceTarget adapts the most recently started experiment cluster to
// optrace.Source. Experiments open and close clusters as they go; the
// target atomically tracks the newest one (and keeps serving the last
// cluster's recorders after it closes, for post-run inspection).
type TraceTarget struct {
	cur atomic.Pointer[core.Cluster]
}

// errNoCluster is returned before the first experiment cluster boots.
var errNoCluster = errors.New("bench: no experiment cluster has started yet")

// TraceOp implements optrace.Source against the current cluster.
func (t *TraceTarget) TraceOp(origin int, seq uint64) (*optrace.Timeline, error) {
	if cl := t.cur.Load(); cl != nil {
		return cl.TraceOp(origin, seq)
	}
	return nil, errNoCluster
}

// SlowestOp implements optrace.Source against the current cluster.
func (t *TraceTarget) SlowestOp() (*optrace.Timeline, error) {
	if cl := t.cur.Load(); cl != nil {
		return cl.SlowestOp()
	}
	return nil, errNoCluster
}

func (o Options) normalized() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 10
	}
	return o
}

// fabric is the chosen network over a time-scaled matrix.
func (o Options) fabric(m *emunet.Matrix) testbed.Fabric {
	return testbed.Fabric{Matrix: m, Kind: o.Fabric, TimeScale: o.TimeScale}
}

// rescale converts a measured duration back to paper time units.
func (o Options) rescale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * o.TimeScale)
}

// rescaled converts a measured series back to paper time units.
func (o Options) rescaled(s testbed.Series) testbed.Series {
	for i, d := range s {
		s[i] = o.rescale(d)
	}
	return s
}

// startCluster boots the whole topology in-process on the chosen fabric and
// points the trace target at it.
func startCluster(topo *config.Topology, matrix *emunet.Matrix, opts Options) (*testbed.Bed, error) {
	cfg := opts.Cluster
	cfg.Topology = topo
	cfg.HeartbeatEvery = 100 * time.Millisecond
	bed, err := testbed.Boot(cfg, opts.fabric(matrix))
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if opts.TraceTarget != nil {
		opts.TraceTarget.cur.Store(bed.Cluster)
	}
	return bed, nil
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// mbps renders bits-per-second as Mbit/s.
func mbps(bps float64) string {
	return fmt.Sprintf("%.1f", bps/1e6)
}

// randomBytes returns a deterministic pseudo-random payload.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
