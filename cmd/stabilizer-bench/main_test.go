package main

import (
	"flag"
	"io"
	"testing"
)

func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("stabilizer-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	return o, fs.Parse(args)
}

// TestFlagsReachTheClusterTemplate: the command's own flags land in
// bench.Options, the shared node flags in the core.Config every experiment
// cluster is booted from.
func TestFlagsReachTheClusterTemplate(t *testing.T) {
	o, err := parse(t,
		"-experiment", "fig6", "-timescale", "10", "-fabric", "tcp", "-short",
		"-metrics-addr", "127.0.0.1:0", "-trace-sample", "64",
	)
	if err != nil {
		t.Fatal(err)
	}
	if o.experiment != "fig6" || o.bench.TimeScale != 10 || o.bench.Fabric != "tcp" || !o.bench.Short {
		t.Fatalf("command flags lost: %+v", o)
	}
	c := o.node.Cluster()
	if o.node.MetricsAddr != "127.0.0.1:0" || c.Metrics == nil || c.Trace.SampleEvery != 64 {
		t.Fatalf("node flags lost: %+v / %+v", o.node, c)
	}
}

// TestDefaultsMeasureFaithfully: with no flags an experiment runs untraced,
// and each cluster keeps a registry of its own.
func TestDefaultsMeasureFaithfully(t *testing.T) {
	o, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	c := o.node.Cluster()
	if o.experiment != "all" || o.bench.TimeScale != 1 || c.Trace.Enabled() || c.Metrics != nil {
		t.Fatalf("defaults: %+v / %+v", o, c)
	}
	o.node.Pprof = true
	if _, err := o.node.Serve(nil); err == nil {
		t.Fatal("-pprof without -metrics-addr was accepted")
	}
}

// TestFlagSetDidNotGrow: the three mode knobs are gone, wankv's flow and
// adaptive flags did not arrive with the shared helper, and the adaptive
// controller is not a flag here (no experiment waits on its key).
func TestFlagSetDidNotGrow(t *testing.T) {
	fs := flag.NewFlagSet("stabilizer-bench", flag.ContinueOnError)
	bindFlags(fs)
	for _, name := range []string{
		"stabilize-interval", "log-stripes", "writev-min-bytes", "flow-max-bytes", "stall-deadline",
		"adaptive-ladder", "adaptive-key", "adaptive-target", "adaptive-objective",
	} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s is still a flag", name)
		}
	}
}
