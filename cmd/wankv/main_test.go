package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"stabilizer"
)

func parse(t *testing.T, args ...string) (*options, *flag.FlagSet, error) {
	t.Helper()
	fs := flag.NewFlagSet("wankv", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	return o, fs, fs.Parse(args)
}

// TestEveryFlagReachesTheConfig sets every registered flag and checks each
// lands in the options the command boots from — in particular that the
// shared node flags fill the stabilizer.Config handed to OpenCluster.
func TestEveryFlagReachesTheConfig(t *testing.T) {
	const ladder = "all=MIN($ALLWNODES);one=KTH_MAX(1, $ALLWNODES)"
	o, fs, err := parse(t,
		"-topology", "topo.json", "-timescale", "5",
		"-metrics-addr", "127.0.0.1:0", "-pprof",
		"-flow-max-bytes", "65536", "-flow-max-entries", "128", "-flow-mode", "spill",
		"-spill-dir", "/tmp/spill", "-spill-segment-bytes", "4096",
		"-stall-deadline", "2s", "-trace-sample", "8",
		"-adaptive-ladder", ladder, "-adaptive-key", "k", "-adaptive-target", "500ms",
	)
	if err != nil {
		t.Fatal(err)
	}
	registered, set := 0, 0
	fs.VisitAll(func(*flag.Flag) { registered++ })
	fs.Visit(func(*flag.Flag) { set++ })
	if set != registered {
		t.Fatalf("this test sets %d of the %d registered flags; cover the new one", set, registered)
	}

	if o.topoPath != "topo.json" || o.timescale != 5 || o.node.MetricsAddr != "127.0.0.1:0" || !o.node.Pprof {
		t.Fatalf("command flags lost: %+v / %+v", o, o.node)
	}
	got := o.node.Cluster()
	if got.Metrics == nil {
		t.Fatal("-metrics-addr gave the template no registry to serve")
	}
	got.Metrics = nil
	wantLadder, err := stabilizer.ParseLadder(ladder)
	if err != nil {
		t.Fatal(err)
	}
	want := stabilizer.Config{
		Flow: stabilizer.FlowConfig{
			MaxBytes: 65536, MaxEntries: 128, Mode: stabilizer.FlowSpill,
			SpillDir: "/tmp/spill", SpillSegmentBytes: 4096,
		},
		Stall: stabilizer.StallConfig{Deadline: 2 * time.Second},
		Trace: stabilizer.TraceConfig{SampleEvery: 8},
		Adaptive: &stabilizer.AdaptiveSpec{
			Key: "k", Ladder: wantLadder,
			Config: stabilizer.AdaptiveConfig{Target: 500 * time.Millisecond},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("config from flags:\n got %+v\nwant %+v", got, want)
	}
}

func TestDefaults(t *testing.T) {
	o, _, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	c := o.node.Cluster()
	if c.Trace.SampleEvery != 64 || c.Adaptive != nil || c.Flow.Enabled() || c.Flow.Mode != stabilizer.FlowBlock || c.Stall.Deadline != 0 {
		t.Fatalf("default config: %+v", c)
	}
	if srv, err := o.node.Serve(nil); srv != nil || err != nil {
		t.Fatalf("Serve without -metrics-addr = (%v, %v), want nothing served", srv, err)
	}
}

func TestBadAndRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-stabilize-interval", "1ms"},
		{"-log-stripes", "4"},
		{"-writev-min-bytes", "-1"},
		{"-adaptive-objective", "0.9"},
		{"-flow-mode", "sometimes"},
		{"-adaptive-ladder", "only=MIN($ALLWNODES)"},
	} {
		if _, _, err := parse(t, args...); err == nil {
			t.Errorf("%v was accepted", args)
		}
	}
}
