package bench

import (
	"fmt"
	"math/rand"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/dsl"
	"stabilizer/internal/emunet"
	"stabilizer/internal/frontier"
	"stabilizer/internal/predlib"
	"stabilizer/internal/testbed"
	"stabilizer/internal/wire"
)

// LinkReport is one measured link row for Tables I/II.
type LinkReport struct {
	Name         string
	ExpectRTT    time.Duration
	MeasuredRTT  time.Duration
	ExpectMbps   float64
	MeasuredMbps float64
}

// Table1 validates the emulated EC2 WAN of Table I: for each North
// California link it measures ping RTT and bulk throughput on the shaped
// fabric and prints them against the table's values.
func Table1(opts Options) ([]LinkReport, error) {
	opts = opts.normalized()
	fmt.Fprintln(opts.Out, "Table I — network status between North California and other regions (emulated)")
	targets := []struct {
		name string
		peer int
	}{
		{"North California (intra-region)", 2},
		{"Ohio", 8},
		{"Oregon", 7},
		{"North Virginia", 3},
	}
	return probeMatrix(opts, emunet.EC2Matrix(), 1, targets)
}

// Table2 validates the emulated CloudLab WAN of Table II from Utah1.
func Table2(opts Options) ([]LinkReport, error) {
	opts = opts.normalized()
	fmt.Fprintln(opts.Out, "Table II — network performance between Utah1 and other servers (emulated)")
	targets := []struct {
		name string
		peer int
	}{
		{"Utah2", 2},
		{"Wisconsin", 3},
		{"Clemson", 4},
		{"Massachusetts", 5},
	}
	return probeMatrix(opts, emunet.CloudLabMatrix(), 1, targets)
}

func probeMatrix(opts Options, matrix *emunet.Matrix, from int, targets []struct {
	name string
	peer int
}) ([]LinkReport, error) {
	// Probes validate the emulation itself, so they always run at
	// faithful wall-clock: time compression would fold the shaper's
	// fixed scheduling overhead (tens of microseconds per hop) into the
	// rescaled numbers.
	opts.TimeScale = 1
	bulk := int64(4 << 20)
	if opts.Short {
		bulk = 1 << 20
	}
	var out []LinkReport
	fmt.Fprintf(opts.Out, "%-34s %10s %10s %12s %12s\n", "link", "lat(ms)", "meas(ms)", "thp(Mbit/s)", "meas(Mbit/s)")
	for _, t := range targets {
		link := matrix.Get(from, t.peer)
		rtt, bps, err := probeLink(opts, matrix, from, t.peer, bulk)
		if err != nil {
			return nil, fmt.Errorf("bench: probe %s: %w", t.name, err)
		}
		r := LinkReport{
			Name:         t.name,
			ExpectRTT:    2 * link.OneWayLatency,
			MeasuredRTT:  rtt,
			ExpectMbps:   link.BandwidthBps / 1e6,
			MeasuredMbps: bps / 1e6,
		}
		out = append(out, r)
		fmt.Fprintf(opts.Out, "%-34s %10s %10s %12s %12s\n",
			r.Name, ms(r.ExpectRTT), ms(r.MeasuredRTT), mbps(r.ExpectMbps*1e6), mbps(r.MeasuredMbps*1e6))
	}
	return out, nil
}

// probeLink measures RTT (median of 8 pings) and one-way bulk throughput
// over a fresh shaped connection. Results are rescaled to paper units.
func probeLink(opts Options, matrix *emunet.Matrix, from, to int, bulk int64) (time.Duration, float64, error) {
	network := testbed.Network(opts.fabric(matrix))
	defer network.Close()
	l, err := network.Listen(to)
	if err != nil {
		return 0, 0, err
	}

	type recvResult struct {
		first, last time.Time
		bytes       int64
		err         error
	}
	done := make(chan recvResult, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- recvResult{err: err}
			return
		}
		defer conn.Close()
		r := wire.NewReader(conn)
		var res recvResult
		for {
			msg, err := r.Next()
			if err != nil {
				res.err = err
				done <- res
				return
			}
			d, ok := msg.(*wire.Data)
			if !ok {
				continue
			}
			switch d.Seq {
			case 0: // ping: echo back
				if err := wire.WriteFrame(conn, d); err != nil {
					res.err = err
					done <- res
					return
				}
			case 1: // bulk payload
				now := time.Now()
				if res.first.IsZero() {
					res.first = now
				}
				res.last = now
				res.bytes += int64(len(d.Payload))
				if res.bytes >= bulk {
					done <- res
					return
				}
			}
		}
	}()

	conn, err := network.Dial(from, to)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	r := wire.NewReader(conn)

	// RTT: median of 8 pings after one warmup.
	var rtts testbed.Series
	for i := 0; i < 9; i++ {
		start := time.Now()
		if err := wire.WriteFrame(conn, &wire.Data{Seq: 0, Payload: []byte{1}}); err != nil {
			return 0, 0, err
		}
		if _, err := r.Next(); err != nil {
			return 0, 0, err
		}
		if i > 0 {
			rtts = append(rtts, time.Since(start))
		}
	}
	rtt := opts.rescale(rtts.Percentile(0.5))

	// Bulk: stream 32 KB frames one way.
	payload := make([]byte, 32<<10)
	var sent int64
	for sent < bulk {
		if err := wire.WriteFrame(conn, &wire.Data{Seq: 1, Payload: payload}); err != nil {
			return 0, 0, err
		}
		sent += int64(len(payload))
	}
	res := <-done
	if res.err != nil {
		return 0, 0, res.err
	}
	elapsed := res.last.Sub(res.first)
	if elapsed <= 0 {
		elapsed = time.Microsecond
	}
	bps := float64(res.bytes) * 8 / opts.rescale(elapsed).Seconds()
	return rtt, bps, nil
}

// PredicateReport is one Table III row with compile/eval cost.
type PredicateReport struct {
	Name        string
	Source      string
	Instrs      int
	CompileTime time.Duration
	EvalTime    time.Duration
	Frontier    uint64
}

// Table3 compiles the six experiment predicates of Table III against the
// Fig. 2 topology and measures their compile and evaluate cost.
func Table3(opts Options) ([]PredicateReport, error) {
	opts = opts.normalized()
	topo := config.EC2Topology(1)
	env := core.NewDSLEnv(topo, frontier.NewTypes())
	table := frontier.NewTable(topo.N())
	rng := rand.New(rand.NewSource(42))
	for n := 1; n <= topo.N(); n++ {
		table.Update(n, frontier.TypeReceived, uint64(rng.Intn(1000)))
	}

	fmt.Fprintln(opts.Out, "Table III — predicates used in the experiments")
	fmt.Fprintf(opts.Out, "%-16s %7s %12s %12s  %s\n", "name", "instrs", "compile", "eval", "predicate")
	var out []PredicateReport
	for _, name := range predlib.TableIIIOrder() {
		src := predlib.TableIII(topo)[name]
		start := time.Now()
		prog, err := dsl.Compile(src, env)
		if err != nil {
			return nil, fmt.Errorf("bench: compile %s: %w", name, err)
		}
		compile := time.Since(start)

		const evals = 10000
		start = time.Now()
		var f uint64
		for i := 0; i < evals; i++ {
			f = table.EvalLocked(prog)
		}
		eval := time.Since(start) / evals

		r := PredicateReport{
			Name:        name,
			Source:      src,
			Instrs:      prog.Len(),
			CompileTime: compile,
			EvalTime:    eval,
			Frontier:    f,
		}
		out = append(out, r)
		fmt.Fprintf(opts.Out, "%-16s %7d %12v %12v  %s\n", r.Name, r.Instrs, r.CompileTime, r.EvalTime, r.Source)
	}
	return out, nil
}

// MicroDSLPoint is one cell of the §VI-A DSL-overhead microbenchmark.
type MicroDSLPoint struct {
	Operators   int
	Operands    int
	CompileTime time.Duration
	EvalTime    time.Duration
}

// MicroDSL reproduces the §VI-A microbenchmark: compile and evaluate cost
// for predicates with 1-5 operators and 5-20 operands. The paper's maxima
// (libgccjit backend) are ~30 ms compile and ~0.2 ms evaluate; the shape to
// reproduce is compile ≫ evaluate, both growing with size.
func MicroDSL(opts Options) ([]MicroDSLPoint, error) {
	opts = opts.normalized()
	const maxNodes = 20
	env := core.NewDSLEnv(testbed.Flat(maxNodes), frontier.NewTypes())
	table := frontier.NewTable(maxNodes)
	for i := 1; i <= maxNodes; i++ {
		table.Update(i, frontier.TypeReceived, uint64(i*37%101))
	}

	fmt.Fprintln(opts.Out, "§VI-A microbenchmark — DSL compile / evaluate cost")
	fmt.Fprintf(opts.Out, "%9s %9s %12s %12s\n", "operators", "operands", "compile", "eval")
	var out []MicroDSLPoint
	for ops := 1; ops <= 5; ops++ {
		for operands := 5; operands <= 20; operands += 5 {
			src := buildMicroPredicate(ops, operands)
			const reps = 200
			start := time.Now()
			var prog *dsl.Program
			for i := 0; i < reps; i++ {
				var err error
				prog, err = dsl.Compile(src, env)
				if err != nil {
					return nil, fmt.Errorf("bench: micro compile (%d ops, %d operands): %w", ops, operands, err)
				}
			}
			compile := time.Since(start) / reps

			const evals = 20000
			start = time.Now()
			for i := 0; i < evals; i++ {
				table.EvalLocked(prog)
			}
			eval := time.Since(start) / evals

			p := MicroDSLPoint{Operators: ops, Operands: operands, CompileTime: compile, EvalTime: eval}
			out = append(out, p)
			fmt.Fprintf(opts.Out, "%9d %9d %12v %12v\n", p.Operators, p.Operands, p.CompileTime, p.EvalTime)
		}
	}
	return out, nil
}

// buildMicroPredicate nests `ops` KTH_MIN operators, spreading `operands`
// node references across the nesting levels.
func buildMicroPredicate(ops, operands int) string {
	per := operands / ops
	if per < 1 {
		per = 1
	}
	used := 0
	operandList := func(n int) string {
		s := ""
		for i := 0; i < n; i++ {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("$%d", used%20+1)
			used++
		}
		return s
	}
	// Innermost level.
	inner := operands - per*(ops-1)
	src := fmt.Sprintf("KTH_MIN(1, %s)", operandList(inner))
	for level := 1; level < ops; level++ {
		src = fmt.Sprintf("KTH_MIN(1, %s, %s)", src, operandList(per))
	}
	return src
}
