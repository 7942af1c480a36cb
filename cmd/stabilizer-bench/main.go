// Command stabilizer-bench regenerates the paper's evaluation tables and
// figures (§VI) on the emulated WAN.
//
// Usage:
//
//	stabilizer-bench -experiment all
//	stabilizer-bench -experiment fig6 -timescale 10
//	stabilizer-bench -experiment fig7 -short
//	stabilizer-bench -metrics-addr :9090 -trace-sample 64
//	                       # /metrics plus /debug/trace (per-op flight
//	                       # recorder: ?origin=N&seq=M, ?op=latest-slow)
//
// Experiments: table1 table2 table3 micro fig3 fig4 fig5 fig6 fig7 fig8
// ablation all.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"stabilizer/internal/bench"
	"stabilizer/internal/core"
	"stabilizer/internal/optrace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stabilizer-bench:", err)
		os.Exit(1)
	}
}

// options is everything the command line sets.
type options struct {
	experiment string
	bench      bench.Options
	// node holds the flags shared with wankv: the cluster template every
	// experiment boots from and the metrics endpoint.
	node *core.Flags
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.experiment, "experiment", "all", "which experiment to run (table1 table2 table3 micro fig3 fig4 fig5 fig6 fig7 fig8 ablation all)")
	fs.Float64Var(&o.bench.TimeScale, "timescale", 1, "divide emulated latencies by this factor (1 = faithful wall-clock)")
	fs.StringVar(&o.bench.Fabric, "fabric", "mem", "network fabric: mem or tcp")
	fs.BoolVar(&o.bench.Short, "short", false, "shrink workloads for a quick pass")
	// Tracing stays off unless asked for: always-on tracing perturbs the
	// numbers an experiment measures.
	o.node = core.BindFlags(fs, core.Config{})
	return o
}

func run() error {
	o := bindFlags(flag.CommandLine)
	flag.Parse()

	opts := o.bench
	opts.Out = os.Stdout
	opts.Cluster = o.node.Cluster()
	extra := map[string]http.Handler{}
	served := "/metrics"
	if opts.Cluster.Trace.Enabled() {
		opts.TraceTarget = &bench.TraceTarget{}
		extra["/debug/trace"] = optrace.NewHTTPHandler(opts.TraceTarget)
		served += " and /debug/trace"
	}
	srv, err := o.node.Serve(extra)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		fmt.Printf("serving %s on %s\n", served, srv.Addr)
	}

	type exp struct {
		name string
		run  func() error
	}
	experiments := []exp{
		{"table1", func() error { _, err := bench.Table1(opts); return err }},
		{"table2", func() error { _, err := bench.Table2(opts); return err }},
		{"table3", func() error { _, err := bench.Table3(opts); return err }},
		{"micro", func() error { _, err := bench.MicroDSL(opts); return err }},
		{"fig3", func() error { _, err := bench.Fig3(opts); return err }},
		{"fig4", func() error { _, err := bench.Fig4(opts); return err }},
		{"fig5", func() error { _, err := bench.Fig5(opts); return err }},
		{"fig6", func() error { _, err := bench.Fig6(opts); return err }},
		{"fig7", func() error { _, err := bench.Fig7(opts); return err }},
		{"fig8", func() error { _, err := bench.Fig8(opts); return err }},
		{"ablation", func() error {
			if _, err := bench.AblationDSL(opts); err != nil {
				return err
			}
			if _, err := bench.AblationControlPlane(opts); err != nil {
				return err
			}
			_, err := bench.AblationBatching(opts)
			return err
		}},
	}

	ran := false
	for _, e := range experiments {
		if o.experiment != "all" && o.experiment != e.name {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("=== %s ===\n", e.name)
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("=== %s done in %v ===\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", o.experiment)
	}
	return nil
}
