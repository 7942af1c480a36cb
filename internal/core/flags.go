package core

import (
	"errors"
	"flag"
	"net/http"

	"stabilizer/internal/metrics"
)

// Flags is what BindFlags registers: the Config template a command boots its
// cluster from, and where (if anywhere) it serves that cluster's metrics.
type Flags struct {
	// Config is the template; take it through Cluster after parsing.
	Config Config
	// MetricsAddr is the -metrics-addr listen address; empty means off.
	MetricsAddr string
	// Pprof is -pprof: mount /debug/pprof beside /metrics.
	Pprof bool
}

// BindFlags registers on fs the node options both commands have — the
// metrics endpoint and the flight recorder — and returns the Flags that
// parsing fs fills in. defaults seeds the template, and so the flags' default
// values.
func BindFlags(fs *flag.FlagSet, defaults Config) *Flags {
	f := &Flags{Config: defaults}
	c := &f.Config
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve every node's /metrics on this address (e.g. :9090)")
	fs.BoolVar(&f.Pprof, "pprof", false, "also mount /debug/pprof on the metrics address")
	fs.IntVar(&c.Trace.SampleEvery, "trace-sample", c.Trace.SampleEvery, "flight-record 1 in N operations end to end and mount /debug/trace on the metrics address (1 = every op, 0 = off)")
	return f
}

// BindFlowFlags adds the send-log flow-control and stall-detection flags.
func (f *Flags) BindFlowFlags(fs *flag.FlagSet) {
	c := &f.Config
	fs.Int64Var(&c.Flow.MaxBytes, "flow-max-bytes", c.Flow.MaxBytes, "cap each node's send log at this many buffered bytes (0 = unbounded)")
	fs.StringVar(&c.Flow.SpillDir, "spill-dir", c.Flow.SpillDir, "migrate the cold send-log backlog to segment files under this directory instead of holding senders at the cap (needs -flow-max-bytes; each node uses its own subdirectory)")
	fs.DurationVar(&c.Stall.Deadline, "stall-deadline", c.Stall.Deadline, "declare a predicate stalled after its frontier sits still this long (0 = off)")
}

// Cluster returns the parsed template to boot from. -metrics-addr gives it a
// registry for Serve to expose if defaults brought none; without the flag
// Metrics stays as given, so nil keeps each cluster's registry private.
func (f *Flags) Cluster() Config {
	if f.Config.Metrics == nil && f.MetricsAddr != "" {
		f.Config.Metrics = metrics.NewRegistry()
	}
	return f.Config
}

// Serve exposes the Cluster template's registry at -metrics-addr with the
// extra handlers mounted beside /metrics (and /debug/pprof with -pprof).
// Without -metrics-addr it serves nothing and returns a nil server.
func (f *Flags) Serve(extra map[string]http.Handler) (*http.Server, error) {
	if f.MetricsAddr == "" {
		if f.Pprof {
			return nil, errors.New("-pprof requires -metrics-addr")
		}
		return nil, nil
	}
	var opts []metrics.ServeOption
	if f.Pprof {
		opts = append(opts, metrics.WithPprof())
	}
	return metrics.Serve(f.MetricsAddr, f.Cluster().Metrics, extra, opts...)
}
