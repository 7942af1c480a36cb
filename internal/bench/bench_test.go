package bench

import (
	"io"
	"testing"
	"time"

	"stabilizer/internal/predlib"
)

// These tests run the Short experiment configurations and assert the
// qualitative reproduction targets — who wins, which curves order how —
// rather than absolute numbers (see EXPERIMENTS.md for those).

func shortOpts() Options {
	return Options{Out: io.Discard, TimeScale: 10, Short: true}
}

// skipUnderRace skips timing-shape assertions in -race builds.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timing-shape assertions are unreliable under the race detector")
	}
}

func TestTable1EmulationAccuracy(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("emulation probe runs at wall-clock speed")
	}
	rows, err := Table1(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Latency within +3ms of target (shaper overhead only adds).
		if r.MeasuredRTT < r.ExpectRTT || r.MeasuredRTT > r.ExpectRTT+3*time.Millisecond {
			t.Errorf("%s: RTT %v, want %v..+3ms", r.Name, r.MeasuredRTT, r.ExpectRTT)
		}
		// Throughput within 15% of target.
		if ratio := r.MeasuredMbps / r.ExpectMbps; ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: throughput %.1f, want ≈%.1f", r.Name, r.MeasuredMbps, r.ExpectMbps)
		}
	}
}

func TestTable3AllPredicatesCompileAndEvalFast(t *testing.T) {
	rows, err := Table3(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper's property: one-time compilation, then negligible
		// evaluation cost on the critical path.
		if r.EvalTime > 50*time.Microsecond {
			t.Errorf("%s evaluates in %v; far above critical-path budget", r.Name, r.EvalTime)
		}
		if r.Instrs == 0 {
			t.Errorf("%s compiled to an empty program", r.Name)
		}
	}
}

func TestMicroDSLCompileDominatesEval(t *testing.T) {
	skipUnderRace(t)
	points, err := MicroDSL(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 20 { // 5 operators × 4 operand counts
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.CompileTime < p.EvalTime {
			t.Errorf("%d ops/%d operands: compile %v < eval %v (paper shape: compile ≫ eval)",
				p.Operators, p.Operands, p.CompileTime, p.EvalTime)
		}
	}
}

func TestFig3ReadTracksSecondFastestMember(t *testing.T) {
	skipUnderRace(t)
	opts := shortOpts()
	opts.TimeScale = 2
	res, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	wi := res.RTTs["Wisconsin"]
	clem := res.RTTs["Clemson"]
	for _, p := range res.Points {
		// The quorum read is satisfied by self + Wisconsin; it must sit
		// near the Wisconsin RTT, clearly below Clemson's for small
		// messages. Judged on the median read: see Fig3Point.
		if p.MedianLatency < wi {
			t.Errorf("%dKB read %v faster than the Wisconsin RTT %v — impossible", p.MessageKB, p.MedianLatency, wi)
		}
		if p.MessageKB <= 8 && p.MedianLatency > clem {
			t.Errorf("%dKB read %v above the Clemson RTT %v — wrong quorum member dominating", p.MessageKB, p.MedianLatency, clem)
		}
	}
	// Latency grows (weakly) with message size.
	if last, first := res.Points[len(res.Points)-1].MedianLatency, res.Points[0].MedianLatency; last < first {
		t.Errorf("read latency shrank with size: %v -> %v", first, last)
	}
	if t.Failed() {
		for _, p := range res.Points {
			t.Logf("%dKB reads: %v (mean %v, p99 %v)", p.MessageKB, p.Reads, p.AvgLatency, p.P99Latency)
		}
	}
}

func TestFig4TraceHasSpikes(t *testing.T) {
	buckets, err := Fig4(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	var spikes int
	for _, b := range buckets {
		if b.MaxFile > 64<<20 {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("no huge-file spikes in the trace histogram")
	}
}

func TestFig5PredicateOrdering(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig5(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	avg := res.Avg
	// Weaker models must not be slower than stronger ones (paper Fig. 5
	// vertical ordering).
	pairs := [][2]string{
		{predlib.OneWNodeKey, predlib.MajorityWNodesKey},
		{predlib.MajorityWNodesKey, predlib.AllWNodesKey},
		{predlib.OneRegionKey, predlib.MajorityRegionsKey},
		{predlib.MajorityRegionsKey, predlib.AllRegionsKey},
		// The paper's headline ordering: MajorityRegions beats
		// MajorityWNodes.
		{predlib.MajorityRegionsKey, predlib.MajorityWNodesKey},
	}
	for _, p := range pairs {
		weak, strong := avg[p[0]], avg[p[1]]
		if weak > strong {
			t.Errorf("avg(%s)=%v > avg(%s)=%v; ordering inverted", p[0], weak, p[1], strong)
		}
	}
	if res.Messages == 0 {
		t.Fatal("no messages measured")
	}
}

func TestFig6PaxosMatchesMajorityWNodesAndLosesToMajorityRegions(t *testing.T) {
	skipUnderRace(t)
	opts := shortOpts()
	// Latency fidelity matters: at TimeScale 10 the ~10ms MR-vs-Paxos
	// gap compresses to ~1ms and drowns in scheduler noise.
	opts.TimeScale = 2
	res, err := Fig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovementOverPaxos <= 0 {
		t.Errorf("MajorityRegions does not beat Paxos: %.2f%%", res.ImprovementOverPaxos*100)
	}
	// Paxos ≈ MajorityWNodes: within ±15% on average (paper: overlap).
	if gap := res.PaxosVsMajorityWNodes; gap < -0.15 || gap > 0.15 {
		t.Errorf("Paxos vs MajorityWNodes gap %.2f%%; paper curves overlap", gap*100)
	}
	for _, p := range res.Points {
		if p.Times[predlib.OneWNodeKey] > p.Times[predlib.MajorityRegionsKey] {
			t.Errorf("%dB: OneWNode slower than MajorityRegions", p.FileBytes)
		}
	}
}

func TestFig8ThreeSitesBeatsAllSites(t *testing.T) {
	skipUnderRace(t)
	res, err := Fig8(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	all := res.Overall["all sites"]
	three := res.Overall["three sites"]
	changing := res.Overall["changing predicate"]
	if three > all {
		t.Errorf("three sites (%v) slower than all sites (%v)", three, all)
	}
	// The changing run sits between the two fixed regimes (inclusive,
	// with slack for timing noise).
	if changing > all+all/5 {
		t.Errorf("changing run (%v) far above the all-sites ceiling (%v)", changing, all)
	}
}

func TestAblationsHoldDesignClaims(t *testing.T) {
	skipUnderRace(t)
	dsl, err := AblationDSL(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Compiled and interpreted are equivalent at Fig.-2 predicate sizes;
	// the claim that must hold is compile-once vs reparse-per-eval.
	if dsl.SpeedupVsReparse < 2 {
		t.Errorf("compile-once only %.2fx faster than reparse-per-eval", dsl.SpeedupVsReparse)
	}
	if dsl.Speedup < 0.5 {
		t.Errorf("compiled evaluator anomalously slow vs interpreter: %.2fx", dsl.Speedup)
	}
	cp, err := AblationControlPlane(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cp.Speedup < 2 {
		t.Errorf("control/data separation speedup only %.2fx; pipelining broken?", cp.Speedup)
	}
	ba, err := AblationBatching(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ba.Ratio < 1 {
		t.Errorf("upcall batching ratio %.2f; more upcalls than messages", ba.Ratio)
	}
}
