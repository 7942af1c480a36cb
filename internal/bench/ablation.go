package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/dsl"
	"stabilizer/internal/emunet"
	"stabilizer/internal/frontier"
	"stabilizer/internal/predlib"
)

// AblationDSLResult compares three predicate evaluation strategies
// (DESIGN.md ablation 1 — the paper's JIT claim): the compiled bytecode
// program, the pre-resolved tree-walking interpreter, and the naive
// re-parse-per-evaluation strategy a system without compile-once support
// would be stuck with.
type AblationDSLResult struct {
	CompiledEval    time.Duration
	InterpretedEval time.Duration
	ReparseEval     time.Duration
	// Speedup is interpreted/compiled; SpeedupVsReparse is
	// reparse/compiled — the one that justifies compile-once.
	Speedup          float64
	SpeedupVsReparse float64
}

// AblationDSL measures per-evaluation cost of the DSL backends on the
// MajorityWNodes predicate over the Fig. 2 topology.
func AblationDSL(opts Options) (*AblationDSLResult, error) {
	opts = opts.normalized()
	topo := config.EC2Topology(1)
	env := core.NewDSLEnv(topo, frontier.NewTypes())
	table := frontier.NewTable(topo.N())
	for i := 1; i <= topo.N(); i++ {
		table.Update(i, frontier.TypeReceived, uint64(i*13%29))
	}
	src := predlib.MajorityWNodes()
	ast, err := dsl.Parse(src)
	if err != nil {
		return nil, err
	}
	resolved, err := dsl.Resolve(ast, env)
	if err != nil {
		return nil, err
	}
	prog := dsl.CompileResolved(src, resolved)

	const evals = 2_000_000
	start := time.Now()
	for i := 0; i < evals; i++ {
		prog.Eval(table)
	}
	compiled := time.Since(start) / evals

	start = time.Now()
	for i := 0; i < evals; i++ {
		resolved.Eval(table)
	}
	interp := time.Since(start) / evals

	const reparses = 20000
	start = time.Now()
	for i := 0; i < reparses; i++ {
		p, err := dsl.Compile(src, env)
		if err != nil {
			return nil, err
		}
		p.Eval(table)
	}
	reparse := time.Since(start) / reparses

	res := &AblationDSLResult{
		CompiledEval:     compiled,
		InterpretedEval:  interp,
		ReparseEval:      reparse,
		Speedup:          float64(interp) / float64(compiled),
		SpeedupVsReparse: float64(reparse) / float64(compiled),
	}
	fmt.Fprintf(opts.Out,
		"Ablation (DSL backend): compiled %v/eval, interpreted %v/eval (%.2fx), reparse-per-eval %v (%.0fx)\n",
		res.CompiledEval, res.InterpretedEval, res.Speedup, res.ReparseEval, res.SpeedupVsReparse)
	return res, nil
}

// AblationControlPlaneResult compares asynchronous control/data separation
// against a Paxos-style blocking round per message (DESIGN.md ablation 2,
// the paper's §III-B claim).
type AblationControlPlaneResult struct {
	Messages      int
	PipelinedTime time.Duration
	BlockingTime  time.Duration
	Speedup       float64
}

// AblationControlPlane streams N messages to majority stability twice: once
// pipelined (send everything, wait once) and once blocking (wait for
// majority stability before each next send).
func AblationControlPlane(opts Options) (*AblationControlPlaneResult, error) {
	opts = opts.normalized()
	msgs := 400
	if opts.Short {
		msgs = 80
	}
	payload := make([]byte, 1<<10)

	run := func(blocking bool) (time.Duration, error) {
		topo := config.EC2Topology(1)
		c, err := startCluster(topo, emunet.EC2Matrix(), opts)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		sender := c.Node(1)
		if err := sender.RegisterPredicate("maj", predlib.MajorityWNodes()); err != nil {
			return 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()

		start := time.Now()
		var last uint64
		for i := 0; i < msgs; i++ {
			seq, err := sender.Send(payload)
			if err != nil {
				return 0, err
			}
			last = seq
			if blocking {
				if err := sender.WaitFor(ctx, seq, "maj"); err != nil {
					return 0, err
				}
			}
		}
		if !blocking {
			if err := sender.WaitFor(ctx, last, "maj"); err != nil {
				return 0, err
			}
		}
		return opts.rescale(time.Since(start)), nil
	}

	pipelined, err := run(false)
	if err != nil {
		return nil, err
	}
	blocking, err := run(true)
	if err != nil {
		return nil, err
	}
	res := &AblationControlPlaneResult{
		Messages:      msgs,
		PipelinedTime: pipelined,
		BlockingTime:  blocking,
		Speedup:       float64(blocking) / float64(pipelined),
	}
	fmt.Fprintf(opts.Out, "Ablation (control plane): %d msgs to majority stability — pipelined %v, per-message blocking %v (%.1fx)\n",
		res.Messages, res.PipelinedTime, res.BlockingTime, res.Speedup)
	return res, nil
}

// AblationBatchingResult shows monotonic upcall batching (DESIGN.md
// ablation 4): under load, frontier monitors fire far fewer times than the
// number of messages, because a report for message Y implies stability of
// everything before Y.
type AblationBatchingResult struct {
	Messages int
	Upcalls  int64
	Ratio    float64
}

// AblationBatching streams messages at full speed and counts monitor
// upcalls on the AllWNodes predicate.
func AblationBatching(opts Options) (*AblationBatchingResult, error) {
	opts = opts.normalized()
	msgs := 2000
	if opts.Short {
		msgs = 400
	}
	topo := config.EC2Topology(1)
	c, err := startCluster(topo, emunet.EC2Matrix(), opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	sender := c.Node(1)
	if err := sender.RegisterPredicate("all", predlib.AllWNodes()); err != nil {
		return nil, err
	}
	var upcalls atomic.Int64
	cancel, err := sender.MonitorStabilityFrontier("all", func(uint64) {
		upcalls.Add(1)
	})
	if err != nil {
		return nil, err
	}
	defer cancel()

	payload := make([]byte, 4<<10)
	var last uint64
	for i := 0; i < msgs; i++ {
		last, err = sender.Send(payload)
		if err != nil {
			return nil, err
		}
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancelCtx()
	if err := sender.WaitFor(ctx, last, "all"); err != nil {
		return nil, err
	}
	res := &AblationBatchingResult{
		Messages: msgs,
		Upcalls:  upcalls.Load(),
		Ratio:    float64(msgs) / float64(upcalls.Load()),
	}
	fmt.Fprintf(opts.Out, "Ablation (upcall batching): %d messages produced %d frontier upcalls (%.1f msgs/upcall)\n",
		res.Messages, res.Upcalls, res.Ratio)
	return res, nil
}
