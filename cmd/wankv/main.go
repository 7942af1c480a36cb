// Command wankv runs an interactive geo-replicated K/V demo: it boots one
// Stabilizer node per topology entry on an in-process emulated WAN and
// accepts commands on stdin, so you can watch writes propagate, frontiers
// advance, and predicates change — all from one terminal.
//
// Usage:
//
//	wankv                       # Fig. 2 EC2 topology, Table I links
//	wankv -topology topo.json   # custom deployment
//	wankv -timescale 5          # compress WAN latencies 5x
//	wankv -metrics-addr :9090   # every node's /metrics + /debug/stabilizer
//	                            # + /debug/trace (per-op flight recorder:
//	                            # ?origin=N&seq=M, ?op=latest-slow,
//	                            # &format=chrome for about://tracing)
//	wankv -metrics-addr :9090 -pprof
//	                            # plus /debug/pprof on the same port
//	wankv -trace-sample 1       # trace every op instead of 1 in 64
//	wankv -flow-max-bytes 65536 # bounded send logs; 'explain' shows
//	                            # what holds each frontier, for how long
//	wankv -flow-max-bytes 65536 -spill-dir /tmp/spill
//	                            # ... with the cold backlog spilled to disk
//	wankv -adaptive-ladder 'all=MIN($ALLWNODES);one=KTH_MAX(1, $ALLWNODES)'
//	                            # closed-loop consistency controller on
//	                            # every node; inspect with 'adaptive'
//
// Commands:
//
//	put <key> <value>                write into node 1's pool
//	get <key>                        read node 1's pool
//	mirror <node> <key>              read node 1's pool from another node
//	wait <seq> <predicate-key>       block until the frontier covers seq
//	register <key> <predicate...>    register a new consistency model
//	change <key> <predicate...>      swap a consistency model at runtime
//	frontier [key]                   show stability frontiers
//	predicates                       list registered predicates
//	adaptive                         adaptive controller rungs + history
//	acks                             dump the ACK recorder for node 1
//	explain [key]                    why node 1's frontiers are not moving:
//	                                 frontier/head, stuck, holders
//	help, quit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"stabilizer"
	"stabilizer/apps/wankv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wankv:", err)
		os.Exit(1)
	}
}

// options is everything the command line sets.
type options struct {
	topoPath  string
	timescale float64
	// node holds the flags shared with stabilizer-bench: the cluster
	// template and the metrics endpoint.
	node *stabilizer.Flags
	// The controller -adaptive-ladder starts on every node: the predicate
	// key it drives, its ladder (empty = off) and its tuning.
	adaptiveKey    string
	adaptiveLadder stabilizer.Ladder
	adaptive       stabilizer.AdaptiveConfig
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.topoPath, "topology", "", "topology JSON file (default: built-in EC2 Fig. 2)")
	fs.Float64Var(&o.timescale, "timescale", 10, "divide emulated WAN latencies by this factor")
	o.node = stabilizer.BindFlags(fs, stabilizer.Config{Trace: stabilizer.TraceConfig{SampleEvery: 64}})
	o.node.BindFlowFlags(fs)
	fs.Func("adaptive-ladder", "run the closed-loop consistency controller on every node: 'name=SOURCE;name=SOURCE' strongest rung first (unset = off)", func(s string) (err error) {
		o.adaptiveLadder, err = stabilizer.ParseLadder(s)
		return err
	})
	fs.StringVar(&o.adaptiveKey, "adaptive-key", "adaptive", "predicate key the adaptive controller drives")
	fs.DurationVar(&o.adaptive.Target, "adaptive-target", 2*time.Second, "adaptive SLO: stabilize within this latency or step the ladder down")
	return o
}

// startAdaptive starts the -adaptive-ladder controller on every node of cl
// and returns node 1's, which the 'adaptive' command reports (nil without the
// flag). Each node closes its own controller when it closes.
func (o *options) startAdaptive(cl *stabilizer.Cluster) (*stabilizer.AdaptiveController, error) {
	if o.adaptiveLadder.Len() == 0 {
		return nil, nil
	}
	var primary *stabilizer.AdaptiveController
	for _, n := range cl.Nodes() {
		ctrl, err := n.StartAdaptive(o.adaptiveKey, o.adaptiveLadder, o.adaptive)
		if err != nil {
			return nil, fmt.Errorf("node %d: start adaptive controller: %w", n.Self(), err)
		}
		if n.Self() == 1 {
			primary = ctrl
		}
	}
	return primary, nil
}

func run() error {
	o := bindFlags(flag.CommandLine)
	flag.Parse()

	topo := stabilizer.EC2Topology(1)
	matrix := stabilizer.EC2Matrix()
	if o.topoPath != "" {
		var err error
		topo, err = stabilizer.LoadTopology(o.topoPath)
		if err != nil {
			return err
		}
		matrix = stabilizer.NewMatrix()
	}
	network := stabilizer.NewMemNetwork(matrix.Scaled(o.timescale))
	defer network.Close()

	// One cluster boots every topology entry in-process; every node
	// shares the registry, instrumenting under its own node label, so a
	// single scrape covers the whole emulated deployment.
	cfg := o.node.Cluster()
	cfg.Topology, cfg.Network = topo, network
	cluster, err := stabilizer.OpenCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	ctrl, err := o.startAdaptive(cluster)
	if err != nil {
		return err
	}
	stores := make([]*wankv.Store, topo.N())
	for i := 1; i <= topo.N(); i++ {
		stores[i-1] = wankv.New(cluster.Node(i))
	}
	primary := cluster.Node(1)
	kv := stores[0]
	for name, src := range stabilizer.TableIII(topo) {
		if err := primary.RegisterPredicate(name, src); err != nil {
			return err
		}
	}
	extra := map[string]http.Handler{"/debug/stabilizer": debugHandler(cluster)}
	extras := "/metrics and /debug/stabilizer"
	if cfg.Trace.Enabled() {
		extra["/debug/trace"] = stabilizer.NewTraceHandler(cluster)
		extras += " and /debug/trace"
	}
	if o.node.Pprof {
		extras += " and /debug/pprof"
	}
	srv, err := o.node.Serve(extra)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		fmt.Printf("wankv: serving %s on %s\n", extras, srv.Addr)
	}

	fmt.Printf("wankv: %d WAN nodes up; node 1 (%s) is yours. Type 'help'.\n",
		topo.N(), topo.SelfNode().Name)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if err := dispatch(fields, topo, primary, kv, stores, ctrl); err != nil {
			if err == errQuit {
				return nil
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// replTimeout bounds every command that can wait on the cluster — a 'wait'
// on a frontier, a 'put' against a full send log — so the prompt always
// comes back.
var replTimeout = 30 * time.Second

// debugHandler serves Node.Snapshot as indented JSON — every live node
// keyed by id, or a single node with ?node=<id>.
func debugHandler(cluster *stabilizer.Cluster) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if q := r.URL.Query().Get("node"); q != "" {
			id, err := strconv.Atoi(q)
			if err != nil || cluster.Node(id) == nil {
				http.Error(w, fmt.Sprintf("unknown node %q", q), http.StatusNotFound)
				return
			}
			_ = enc.Encode(cluster.Node(id).Snapshot())
			return
		}
		snaps := make(map[string]stabilizer.Snapshot)
		for _, s := range cluster.Snapshot() {
			snaps[strconv.Itoa(s.Self)] = s
		}
		_ = enc.Encode(snaps)
	})
}

func dispatch(fields []string, topo *stabilizer.Topology, primary *stabilizer.Node, kv *wankv.Store, stores []*wankv.Store, ctrl *stabilizer.AdaptiveController) error {
	switch fields[0] {
	case "quit", "exit":
		return errQuit

	case "help":
		fmt.Println("put get mirror wait register change frontier predicates adaptive acks explain quit")
		return nil

	case "put":
		if len(fields) < 3 {
			return fmt.Errorf("put <key> <value>")
		}
		ctx, cancel := context.WithTimeout(context.Background(), replTimeout)
		defer cancel()
		res, err := kv.PutCtx(ctx, fields[1], []byte(strings.Join(fields[2:], " ")))
		if err != nil {
			return err
		}
		fmt.Printf("seq=%d version=%d (locally stable; use 'wait %d <predicate>' for more)\n",
			res.Seq, res.Version, res.Seq)
		return nil

	case "get":
		if len(fields) != 2 {
			return fmt.Errorf("get <key>")
		}
		v, err := kv.Get(fields[1])
		if err != nil {
			return err
		}
		fmt.Printf("%q (version %d, %s)\n", v.Value, v.Num, v.Time.Format(time.RFC3339Nano))
		return nil

	case "mirror":
		if len(fields) != 3 {
			return fmt.Errorf("mirror <node> <key>")
		}
		idx, err := strconv.Atoi(fields[1])
		if err != nil || idx < 1 || idx > len(stores) {
			return fmt.Errorf("bad node index %q", fields[1])
		}
		v, err := stores[idx-1].GetFrom(1, fields[2])
		if err != nil {
			return err
		}
		name, _ := topo.NodeAt(idx)
		fmt.Printf("[%s] %q (version %d)\n", name.Name, v.Value, v.Num)
		return nil

	case "wait":
		if len(fields) != 3 {
			return fmt.Errorf("wait <seq> <predicate-key>")
		}
		seq, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seq %q", fields[1])
		}
		ctx, cancel := context.WithTimeout(context.Background(), replTimeout)
		defer cancel()
		start := time.Now()
		if err := primary.WaitFor(ctx, seq, fields[2]); err != nil {
			return err
		}
		fmt.Printf("satisfied in %v\n", time.Since(start).Round(time.Millisecond))
		return nil

	case "register", "change":
		if len(fields) < 3 {
			return fmt.Errorf("%s <key> <predicate>", fields[0])
		}
		src := strings.Join(fields[2:], " ")
		if fields[0] == "register" {
			return primary.RegisterPredicate(fields[1], src)
		}
		return primary.ChangePredicate(fields[1], src)

	case "frontier":
		if len(fields) == 2 {
			f, err := primary.StabilityFrontier(fields[1])
			if err != nil {
				return err
			}
			fmt.Printf("%-20s %d\n", fields[1], f)
			return nil
		}
		for _, v := range primary.Snapshot().Predicates {
			fmt.Printf("%-20s %d\n", v.Key, v.Frontier)
		}
		return nil

	case "predicates":
		for _, v := range primary.Snapshot().Predicates {
			fmt.Printf("%-20s %s\n", v.Key, v.Source)
		}
		return nil

	case "adaptive":
		if ctrl == nil {
			fmt.Println("no adaptive controllers (start wankv with -adaptive-ladder)")
			return nil
		}
		rung := ctrl.Rung()
		fmt.Printf("%-20s rung %d (%s) installed=%d firing=%v ladder=%s\n",
			ctrl.Key(), ctrl.RungIndex(), rung.Name, ctrl.InstalledIndex(), ctrl.Firing(), ctrl.Ladder())
		for _, tr := range ctrl.History() {
			fmt.Printf("    %s %s %s->%s (%s)\n",
				tr.At.Format("15:04:05.000"), tr.Direction,
				tr.FromRung.Name, tr.ToRung.Name, tr.Reason)
		}
		return nil

	case "acks":
		acks := primary.Snapshot().Acks
		fmt.Printf("%-12s %10s %10s %10s\n", "node", "received", "delivered", "persisted")
		for i := 1; i <= topo.N(); i++ {
			name, _ := topo.NodeAt(i)
			fmt.Printf("%-12s %10d %10d %10d\n", name.Name,
				acks["received"][i-1], acks["delivered"][i-1], acks["persisted"][i-1])
		}
		return nil

	case "explain":
		if len(fields) > 2 {
			return fmt.Errorf("explain [predicate-key]")
		}
		return explain(os.Stdout, topo, primary, fields[1:])

	default:
		return fmt.Errorf("unknown command %q (try 'help')", fields[0])
	}
}

// explain prints the verdict on the predicate under keys[0] or, with no key,
// the send log and the verdict on every predicate (reclaim included): each
// line is one PredicateState, as Node.Explain and Node.Snapshot hand it out.
func explain(w io.Writer, topo *stabilizer.Topology, n *stabilizer.Node, keys []string) error {
	var verdicts []stabilizer.PredicateState
	if len(keys) == 1 {
		v, err := n.Explain(keys[0])
		if err != nil {
			return err
		}
		verdicts = append(verdicts, v)
	} else {
		s := n.Snapshot()
		log := s.Log
		cap := "unbounded"
		if log.CapBytes > 0 {
			cap = fmt.Sprintf("%d", log.CapBytes)
		}
		fmt.Fprintf(w, "send-log: %d bytes / %d entries (cap %s) backpressured=%v blocked=%d shed=%d\n",
			log.Bytes, log.Entries, cap, log.Full, log.BlockedAppends, log.ShedAppends)
		verdicts = s.Predicates
	}
	for _, v := range verdicts {
		fmt.Fprintf(w, "%-22s frontier=%d/%d stuck=%v\n",
			v.Key, v.Frontier, v.Head, v.Stuck.Round(time.Millisecond))
		for _, h := range v.Holding {
			name, _ := topo.NodeAt(h.Peer)
			fmt.Fprintf(w, "    held by node %d (%s, %s/%s) up=%v ack=%d\n",
				h.Peer, name.Name, h.AZ, h.Region, h.Up, h.Ack)
		}
	}
	return nil
}
