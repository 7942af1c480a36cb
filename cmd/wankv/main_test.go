package main

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"stabilizer"
	"stabilizer/apps/wankv"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
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
		"-flow-max-bytes", "65536",
		"-spill-dir", "/tmp/spill",
		"-trace-sample", "8",
		"-adaptive-ladder", ladder, "-adaptive-key", "k", "-adaptive-target", "500ms",
	)
	if err != nil {
		t.Fatal(err)
	}
	wantLadder, err := stabilizer.ParseLadder(ladder)
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
	if o.adaptiveKey != "k" || !reflect.DeepEqual(o.adaptiveLadder, wantLadder) ||
		!reflect.DeepEqual(o.adaptive, stabilizer.AdaptiveConfig{Target: 500 * time.Millisecond}) {
		t.Fatalf("adaptive flags lost: key %q ladder %s config %+v", o.adaptiveKey, o.adaptiveLadder, o.adaptive)
	}
	got := o.node.Cluster()
	if got.Metrics == nil {
		t.Fatal("-metrics-addr gave the template no registry to serve")
	}
	got.Metrics = nil
	want := stabilizer.Config{
		Flow: stabilizer.FlowConfig{
			MaxBytes: 65536, SpillDir: "/tmp/spill",
		},
		Trace: stabilizer.TraceConfig{SampleEvery: 8},
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
	if c.Trace.SampleEvery != 64 || c.Flow != (stabilizer.FlowConfig{}) {
		t.Fatalf("default config: %+v", c)
	}
	if o.adaptiveLadder.Len() != 0 {
		t.Fatalf("a controller is on by default: %s", o.adaptiveLadder)
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
		{"-flow-mode", "spill"},
		{"-flow-max-entries", "128"},
		{"-stall-deadline", "2s"},
		{"-adaptive-ladder", "only=MIN($ALLWNODES)"},
	} {
		if _, _, err := parse(t, args...); err == nil {
			t.Errorf("%v was accepted", args)
		}
	}
}

// TestAdaptiveLadderStartsEveryNode: -adaptive-ladder starts a controller on
// every node, each with rung 0 installed under -adaptive-key, and the handle
// the 'adaptive' command reports is node 1's.
func TestAdaptiveLadderStartsEveryNode(t *testing.T) {
	o, _, err := parse(t, "-adaptive-ladder", "all=MIN($ALLWNODES);one=KTH_MAX(1, $ALLWNODES)", "-adaptive-key", "k")
	if err != nil {
		t.Fatal(err)
	}
	network := emunet.NewMemNetwork(nil)
	cfg := o.node.Cluster()
	cfg.Topology, cfg.Network = stabilizer.EC2Topology(1), network
	cluster, err := stabilizer.OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cluster.Close()
		network.Close()
	})
	ctrl, err := o.startAdaptive(cluster)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl == nil || ctrl.Key() != "k" || ctrl.RungIndex() != 0 {
		t.Fatalf("node 1's controller = %v", ctrl)
	}
	for _, n := range cluster.Nodes() {
		if v, err := n.Explain("k"); err != nil || v.Source != "MIN($ALLWNODES)" {
			t.Fatalf("node %d: rung 0 not installed under k: %q, %v", n.Self(), v.Source, err)
		}
		if _, err := n.StartAdaptive("k", o.adaptiveLadder, o.adaptive); err == nil {
			t.Fatalf("node %d ran no controller for k: a second one started", n.Self())
		}
	}
}

// bootCutOff boots the cluster the given flags describe, as run does, with
// node 1's link to node 2 cut from the start: nothing node 1 sends is ever
// acknowledged everywhere, so its send log only grows. It returns a function
// that types one 200-byte 'put' at the prompt.
func bootCutOff(t *testing.T, args ...string) (primary *stabilizer.Node, put func() error) {
	t.Helper()
	o, _, err := parse(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(nil)
	network := emunet.NewMemNetwork(nil)
	network.SetConnHook(inj.Hook())
	inj.Blackhole(1, 2)
	topo := stabilizer.EC2Topology(1)
	cfg := o.node.Cluster()
	cfg.Topology, cfg.Network = topo, network
	cluster, err := stabilizer.OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cluster.Close()
		inj.Close()
		network.Close()
	})
	stores := make([]*wankv.Store, topo.N())
	for i := range stores {
		stores[i] = wankv.New(cluster.Node(i + 1))
	}
	value := strings.Repeat("v", 200)
	return cluster.Node(1), func() error {
		return dispatch([]string{"put", "k", value}, topo, cluster.Node(1), stores[0], stores, nil)
	}
}

// TestPutAtFullSendLogReturnsThePrompt: against a 1 KiB cap and a cut link,
// 'put' gives up when the REPL's timeout does and reports backpressure; it
// used to go through Put and hang the prompt for good.
func TestPutAtFullSendLogReturnsThePrompt(t *testing.T) {
	defer func(d time.Duration) { replTimeout = d }(replTimeout)
	replTimeout = 100 * time.Millisecond
	primary, put := bootCutOff(t, "-flow-max-bytes", "1024")
	for i := 0; ; i++ {
		err := put()
		if err == nil {
			if i > 16 {
				t.Fatal("a 1 KiB send log took 16 200-byte puts")
			}
			continue
		}
		if !errors.Is(err, stabilizer.ErrBackpressure) {
			t.Fatalf("put %d: err=%v, want backpressure", i, err)
		}
		break
	}
	if log := primary.Snapshot().Log; log.ShedAppends != 1 || !log.Full {
		t.Fatalf("send log after the refused put: %+v", log)
	}
}

// TestSpillDirAndCapBootASpillingNode: -spill-dir with -flow-max-bytes is
// the whole configuration of the disk tier — the same puts that fill the
// capped log above go through, and the backlog shows up on disk.
func TestSpillDirAndCapBootASpillingNode(t *testing.T) {
	primary, put := bootCutOff(t, "-flow-max-bytes", "1024", "-spill-dir", t.TempDir())
	for i := 0; i < 32; i++ {
		if err := put(); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if log := primary.Snapshot().Log; log.SpilledBytes == 0 {
		t.Fatalf("32 puts past a 1 KiB cap left nothing on disk (memory %d bytes)", log.MemoryBytes)
	}
}

// TestExplainPrintsTheVerdict: with node 1's link to node 2 cut, 'explain'
// prints the all-nodes predicate stuck and held by node 2 — whose received
// cell never left 0 — and the bare form prints the send log and every
// verdict, reclaim included.
func TestExplainPrintsTheVerdict(t *testing.T) {
	primary, put := bootCutOff(t)
	topo := stabilizer.EC2Topology(1)
	if err := primary.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	if err := put(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	deadline := time.Now().Add(5 * time.Second)
	heldByTwoAlone := func(got string) bool {
		return strings.Count(got, "held by node ") == 1 && strings.Contains(got, "held by node 2 (") &&
			!strings.Contains(got, "stuck=0s")
	}
	for !heldByTwoAlone(out.String()) {
		if time.Now().After(deadline) {
			t.Fatalf("'explain all' never read stuck>0 held by node 2 alone:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
		out.Reset()
		if err := explain(&out, topo, primary, []string{"all"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := out.String(); !strings.Contains(got, "frontier=0/1") || !strings.Contains(got, "ack=0") {
		t.Fatalf("'explain all' = %q, want frontier 0/1 held by node 2 at ack 0", got)
	}
	out.Reset()
	if err := explain(&out, topo, primary, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"send-log: ", "\nall ", "\n__stabilizer_reclaim "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("bare 'explain' lacks %q:\n%s", want, out.String())
		}
	}
	if err := explain(&out, topo, primary, []string{"nope"}); err == nil {
		t.Fatal("'explain nope' named no error")
	}
}
