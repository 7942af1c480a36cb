// Public-API tests: everything here uses only the root stabilizer package
// and the apps/ facades, exactly as a downstream user would.
package stabilizer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"stabilizer"
	"stabilizer/apps/backup"
	"stabilizer/apps/pubsub"
	"stabilizer/apps/quorum"
	"stabilizer/apps/wankv"
)

func threeNodeTopo() *stabilizer.Topology {
	return &stabilizer.Topology{
		Self: 1,
		Nodes: []stabilizer.TopologyNode{
			{Name: "A", AZ: "az1", Region: "west"},
			{Name: "B", AZ: "az2", Region: "west"},
			{Name: "C", AZ: "az3", Region: "east"},
		},
	}
}

func openCluster(t *testing.T, topo *stabilizer.Topology, network stabilizer.Network) []*stabilizer.Node {
	t.Helper()
	var nodes []*stabilizer.Node
	for i := 1; i <= topo.N(); i++ {
		n, err := stabilizer.Open(stabilizer.Config{Topology: topo.WithSelf(i), Network: network})
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
		_ = network.Close()
	})
	return nodes
}

func TestPublicAPISendWaitMonitor(t *testing.T) {
	nodes := openCluster(t, threeNodeTopo(), stabilizer.NewMemNetwork(nil))
	sender := nodes[0]

	if err := sender.RegisterPredicate("maj", "KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var fired sync.WaitGroup
	fired.Add(1)
	var once sync.Once
	cancel, err := sender.MonitorStabilityFrontier("maj", func(uint64) {
		once.Do(fired.Done)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	seq, err := sender.Send([]byte("public api"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := sender.WaitFor(ctx, seq, "maj"); err != nil {
		t.Fatal(err)
	}
	fired.Wait()
}

func TestPublicAPIPredicateBuilders(t *testing.T) {
	topo := stabilizer.EC2Topology(1)
	all := stabilizer.TableIII(topo)
	if len(all) != 6 || len(stabilizer.TableIIIOrder()) != 6 {
		t.Fatalf("TableIII = %v", all)
	}
	nodes := openCluster(t, topo, stabilizer.NewMemNetwork(stabilizer.EC2Matrix().Scaled(100)))
	for name, src := range all {
		if err := nodes[0].RegisterPredicate(name, src); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	for i, src := range []string{
		stabilizer.QuorumWrite([]int{1, 2, 3}, 2),
		stabilizer.QuorumRead([]int{1, 2, 3}, 2),
		stabilizer.ExcludeNodes([]int{8}),
		stabilizer.KOfRemote(2),
	} {
		if err := nodes[0].RegisterPredicate(fmt.Sprintf("x%d", i), src); err != nil {
			t.Fatalf("register %q: %v", src, err)
		}
	}
}

func TestPublicAPIBackupQuickPath(t *testing.T) {
	topo := threeNodeTopo()
	nodes := openCluster(t, topo, stabilizer.NewMemNetwork(nil))
	stores := make([]*wankv.Store, len(nodes))
	for i, n := range nodes {
		stores[i] = wankv.New(n)
	}
	svc := backup.New(stores[0])
	if err := nodes[0].RegisterPredicate("alldel", "MIN(($ALLWNODES-$MYWNODE).delivered)"); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("stabilizer"), 5000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := svc.BackupWait(ctx, "f", data, "alldel")
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != len(data) {
		t.Fatalf("result = %+v", res)
	}
	got, err := backup.New(stores[2]).Restore(1, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restore: %v", err)
	}
}

func TestPublicAPIPubSub(t *testing.T) {
	nodes := openCluster(t, threeNodeTopo(), stabilizer.NewMemNetwork(nil))
	var brokers []*pubsub.Broker
	for _, n := range nodes {
		b, err := pubsub.New(n)
		if err != nil {
			t.Fatal(err)
		}
		brokers = append(brokers, b)
	}
	got := make(chan pubsub.Message, 1)
	brokers[1].Subscribe(func(m pubsub.Message) {
		m.Payload = bytes.Clone(m.Payload) // lent only until we return
		select {
		case got <- m:
		default:
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for len(brokers[0].ActiveBrokers()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := brokers[0].PublishWait(ctx, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Payload) != "hello" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestPublicAPIQuorum(t *testing.T) {
	nodes := openCluster(t, threeNodeTopo(), stabilizer.NewMemNetwork(nil))
	kvs := make([]*quorum.KV, len(nodes))
	for i, n := range nodes {
		kv, err := quorum.New(quorum.Config{Node: n, Members: []int{1, 2, 3}, Nw: 2, Nr: 2})
		if err != nil {
			t.Fatal(err)
		}
		kvs[i] = kv
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := kvs[0].Write(ctx, "k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	got, _, err := kvs[2].Read(ctx, "k")
	if err != nil || string(got) != "value" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestPublicAPIStats(t *testing.T) {
	nodes := openCluster(t, threeNodeTopo(), stabilizer.NewMemNetwork(nil))
	sender := nodes[0]
	if err := sender.RegisterPredicate("maj", stabilizer.MajorityWNodes()); err != nil {
		t.Fatal(err)
	}
	seq, err := sender.Send([]byte("tracked"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.WaitFor(ctx, seq, "maj"); err != nil {
		t.Fatal(err)
	}
	var s stabilizer.Snapshot = sender.Snapshot()
	if s.Self != 1 || len(s.Nodes) != 3 {
		t.Fatalf("identity = %d/%d", s.Self, len(s.Nodes))
	}
	if s.Log.Head != seq {
		t.Fatalf("Log.Head = %d, want %d", s.Log.Head, seq)
	}
	if s.BytesSent == 0 || s.DataFramesSent < 2 {
		t.Fatalf("traffic counters empty: %+v", s)
	}
	var maj *stabilizer.PredicateState
	for i := range s.Predicates {
		if s.Predicates[i].Key == "maj" {
			maj = &s.Predicates[i]
		}
	}
	if maj == nil || maj.Frontier < seq {
		t.Fatalf("predicate maj = %+v, want a frontier of at least %d", maj, seq)
	}
}

func TestPublicAPIWaitApplied(t *testing.T) {
	nodes := openCluster(t, threeNodeTopo(), stabilizer.NewMemNetwork(nil))
	owner := wankv.New(nodes[0])
	mirror := wankv.New(nodes[1])
	res, err := owner.Put("rw", []byte("mine"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mirror.WaitApplied(ctx, 1, res.Seq); err != nil {
		t.Fatal(err)
	}
	v, err := mirror.GetFrom(1, "rw")
	if err != nil || string(v.Value) != "mine" {
		t.Fatalf("read-your-writes failed: %q, %v", v.Value, err)
	}
}

func TestPublicAPITopologyRoundTrip(t *testing.T) {
	topo := stabilizer.CloudLabTopology(2)
	raw := fmt.Sprintf(`{"self":%d,"nodes":[{"name":"X","az":"z1"},{"name":"Y","az":"z2"}]}`, 1)
	parsed, err := stabilizer.ParseTopology([]byte(raw))
	if err != nil || parsed.N() != 2 {
		t.Fatalf("parse: %v", err)
	}
	if topo.SelfNode().Name != "Utah2" {
		t.Fatalf("CloudLab self = %s", topo.SelfNode().Name)
	}
}

func TestPublicAPIAdaptive(t *testing.T) {
	net := stabilizer.NewMemNetwork(nil)
	cluster, err := stabilizer.OpenCluster(stabilizer.ClusterConfig{
		Topology: threeNodeTopo(),
		Network:  net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cluster.Close()
		_ = net.Close()
	})
	n1 := cluster.Node(1)
	ctrl, err := n1.StartAdaptive("stable", stabilizer.LadderWNodes(), stabilizer.AdaptiveConfig{Target: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Key() != "stable" || ctrl.RungIndex() != 0 || ctrl.Rung().Name != "all" {
		t.Fatalf("controller for %q starts on rung %d (%s)", ctrl.Key(), ctrl.RungIndex(), ctrl.Rung().Name)
	}
	var _ stabilizer.AdaptiveDirection = stabilizer.AdaptiveDown
	var hooked []stabilizer.AdaptiveTransition
	cancel := ctrl.OnTransition(func(tr stabilizer.AdaptiveTransition) { hooked = append(hooked, tr) })
	defer cancel()

	// The adaptive predicate waits like any other.
	seq, err := n1.Send([]byte("adaptive public api"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := n1.WaitFor(ctx, seq, "stable"); err != nil {
		t.Fatal(err)
	}

	// A second controller over a CLI-form ladder on the same node.
	ladder, err := stabilizer.ParseLadder("all=MIN($ALLWNODES);one=KTH_MAX(1, $ALLWNODES)")
	if err != nil {
		t.Fatal(err)
	}
	ctrl2, err := n1.StartAdaptive("fast", ladder, stabilizer.AdaptiveConfig{Target: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrl2.History()) != 0 || len(hooked) != 0 {
		t.Fatalf("transitions on a healthy cluster: %v / %v", ctrl2.History(), hooked)
	}
}

// TestNewTraceHandler drives the flight-recorder endpoint over a traced
// cluster: the slowest op as its timeline and as a Chrome trace array, 400
// for an op name it does not know, 404 for an op nobody traced.
func TestNewTraceHandler(t *testing.T) {
	network := stabilizer.NewMemNetwork(nil)
	cl, err := stabilizer.OpenCluster(stabilizer.Config{
		Topology: threeNodeTopo(),
		Network:  network,
		Trace:    stabilizer.TraceConfig{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = network.Close()
	})
	n1 := cl.Node(1)
	if err := n1.RegisterPredicate("all", stabilizer.AllWNodes()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		seq, err := n1.Send([]byte("traced"))
		if err != nil {
			t.Fatal(err)
		}
		if err := n1.WaitFor(ctx, seq, "all"); err != nil {
			t.Fatal(err)
		}
	}
	slowest, err := cl.SlowestOp()
	if err != nil {
		t.Fatal(err)
	}

	h := stabilizer.NewTraceHandler(cl)
	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?"+query, nil))
		return rec
	}
	rec := get("op=latest-slow")
	var tl stabilizer.TraceTimeline
	if rec.Code != http.StatusOK {
		t.Fatalf("?op=latest-slow: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.Origin != slowest.Origin || tl.Seq != slowest.Seq || len(tl.Events) == 0 {
		t.Fatalf("?op=latest-slow served op %d/%d with %d events, want %d/%d", tl.Origin, tl.Seq, len(tl.Events), slowest.Origin, slowest.Seq)
	}
	rec = get("op=latest-slow&format=chrome")
	var chrome []map[string]any
	if rec.Code != http.StatusOK {
		t.Fatalf("&format=chrome: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil || len(chrome) == 0 {
		t.Fatalf("&format=chrome is not a non-empty JSON array (%v): %s", err, rec.Body)
	}
	if rec = get("op=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("?op=bogus: %d, want 400", rec.Code)
	}
	if rec = get("origin=1&seq=999"); rec.Code != http.StatusNotFound {
		t.Fatalf("untraced origin/seq: %d, want 404", rec.Code)
	}
}

// TestReadmeListsEveryMetricFamily keeps README.md's metric-family table
// equal to what a booted cluster registers (tracing and an adaptive
// controller on, so the conditional families register too): a family with
// no row fails, and so does a row no family backs.
func TestReadmeListsEveryMetricFamily(t *testing.T) {
	network := stabilizer.NewMemNetwork(nil)
	defer network.Close()
	reg := stabilizer.NewMetricsRegistry()
	cl, err := stabilizer.OpenCluster(stabilizer.Config{
		Topology: threeNodeTopo(),
		Network:  network,
		Metrics:  reg,
		Trace:    stabilizer.TraceConfig{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Node(1).StartAdaptive("stable", stabilizer.LadderWNodes(), stabilizer.AdaptiveConfig{Target: time.Second}); err != nil {
		t.Fatal(err)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	row := regexp.MustCompile("(?m)^\\| `(stabilizer_[a-z0-9_]+)` \\|")
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = true
	}
	for _, fam := range reg.Snapshot() {
		if !documented[fam.Name] {
			t.Errorf("README.md's metric table has no row for %s (%s)", fam.Name, fam.Help)
		}
		delete(documented, fam.Name)
	}
	for name := range documented {
		t.Errorf("README.md's metric table lists %s, which no node registers", name)
	}
}

// TestReadmeListsEveryConfigField keeps README.md § Configuration the only
// list of options: every exported field of stabilizer.Config, and of the
// Flow and Trace structs inside it, must be named there. It logs the
// number of independently settable values, the baseline `make loc` prints.
func TestReadmeListsEveryConfigField(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := regexp.MustCompile(`(?s)\n## Configuration\n.*?\n## `).Find(readme)
	if section == nil {
		t.Fatal("README.md has no Configuration section")
	}
	settable := 0
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if !bytes.Contains(section, []byte("`"+f.Name+"`")) {
				t.Errorf("README.md § Configuration does not name %s%s", path, f.Name)
			}
			switch f.Name {
			case "Flow", "Trace":
				check(f.Type, path+f.Name+".")
			default:
				settable++
			}
		}
	}
	check(reflect.TypeOf(stabilizer.Config{}), "Config.")
	t.Logf("config fields: %d settable values reachable from stabilizer.Config", settable)
	// A value added here has to raise the ceiling in the same change, next to
	// what it replaces.
	const ceiling = 11
	if settable > ceiling {
		t.Errorf("stabilizer.Config reaches %d settable values, ceiling %d", settable, ceiling)
	}
}

// TestNodeSurfaceDoesNotGrowUnnoticed counts the exported methods of Node,
// the third baseline `make loc` prints. The paper's node has five interfaces
// (§III-D); a method added here has to raise the ceiling in the same change,
// next to what it replaces.
func TestNodeSurfaceDoesNotGrowUnnoticed(t *testing.T) {
	const ceiling = 26
	n := reflect.TypeOf((*stabilizer.Node)(nil)).NumMethod()
	t.Logf("node methods: %d exported", n)
	if n > ceiling {
		t.Errorf("*stabilizer.Node exports %d methods, ceiling %d", n, ceiling)
	}
}
