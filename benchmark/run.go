package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer"
)

// options is how long and how often one invocation runs things.
type options struct {
	seed int64
	// untraced and traced are the lengths of the two measured phases; a
	// phase of zero length is skipped.
	untraced, traced time.Duration
	// settle and warmup are the two fixed parts of set-up after boot: an
	// idle wait, then the workload's own client loop run unmeasured.
	settle, warmup time.Duration
	probeScale     int
	outDir         string
}

// figure is one number reported under a name of its own but not listed in
// BENCHMARK.json, because it exists on one workload only. One with a bound
// is an end-to-end figure that -aa holds two sets of runs to.
type figure struct {
	metricSpec
	value float64
	n     int // samples behind it, 0 when not a timing
}

// kindStats summarises one kind of operation's client-side latency.
type kindStats struct {
	kind     opKind
	n        int
	p50, p90 float64 // ms
	p95      float64
	// top is the highest percentile with at least ten samples beyond it.
	topLabel string
	top      float64
	floor    time.Duration
}

// result is everything one workload produced.
type result struct {
	workload          string
	attempted, failed int
	// problems are output checks that failed; any makes the run incorrect.
	// findings are observations worth a line that fail nothing.
	problems, findings []string
	e2e, layer         map[string]float64
	figures            []figure
	kinds              []kindStats
	trace              *traceSummary
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// figure returns the value of the named figure, NaN when r has none.
func (r *result) figure(name string) float64 {
	for _, f := range r.figures {
		if f.Name == name {
			return f.value
		}
	}
	return math.NaN()
}

// setUp boots a cluster and warms it up: an idle settle, then the
// workload's own client loop for a fixed time.
func setUp(w *workload, in inputs, trace stabilizer.TraceConfig, opt options) (*cluster, time.Duration, error) {
	start := time.Now()
	c, err := boot(w, in, trace)
	if err != nil {
		return nil, 0, err
	}
	time.Sleep(opt.settle)
	warm := c.runClients(in, time.Now().Add(opt.warmup), false)
	if warm.failed > 0 || len(warm.problems) > 0 {
		_ = c.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d operations failed (%v) %v", warm.failed, warm.attempted, warm.firstErr, warm.problems)
	}
	return c, time.Since(start), nil
}

// runClients runs the workload's client goroutines until the deadline and
// returns what they recorded, merged. This is all the load there is: one
// goroutine per sender, at most two.
func (c *cluster) runClients(in inputs, until time.Time, keepSpans bool) *recorder {
	switch c.w.name {
	case wlWANSync:
		r := newRecorder(keepSpans)
		c.runWANSync(r, in, until)
		return r
	case wlKVSync:
		recs := make([]*recorder, len(c.w.senders))
		var done atomic.Uint64
		var wg sync.WaitGroup
		begin := time.Now()
		for i := range recs {
			recs[i] = newRecorder(keepSpans)
			recs[i].begin = begin
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c.runKV(recs[i], in, i, &done, until)
			}(i)
		}
		wg.Wait()
		return mergeRecorders(recs)
	default:
		r := newRecorder(keepSpans)
		c.runStream(r, in, until)
		return r
	}
}

func mergeRecorders(recs []*recorder) *recorder {
	m := recs[0]
	for _, r := range recs[1:] {
		m.attempted += r.attempted
		m.failed += r.failed
		if m.firstErr == nil {
			m.firstErr = r.firstErr
		}
		for k := range m.latMS {
			m.latMS[k] = append(m.latMS[k], r.latMS[k]...)
		}
		m.submitUS = append(m.submitUS, r.submitUS...)
		m.applyUS = append(m.applyUS, r.applyUS...)
		m.points = append(m.points, r.points...)
		m.spans = append(m.spans, r.spans...)
		m.problems = append(m.problems, r.problems...)
	}
	// Both clients read one shared completion count, so ordering by it is
	// ordering by time.
	sort.Slice(m.points, func(i, j int) bool { return m.points[i].n < m.points[j].n })
	sort.Slice(m.spans, func(i, j int) bool { return m.spans[i].end < m.spans[j].end })
	return m
}

// measurement is one measured phase: what the clients saw, and what the
// cluster's counters and the process's resource readings did across it.
type measurement struct {
	rec *recorder
	// rates are the completion rates of the phase's one-second windows.
	rates      []float64
	delta      counters
	heapPeakMB float64
	problems   []string
}

func (c *cluster) measure(in inputs, dur time.Duration, keepSpans bool) *measurement {
	before := readCounters(c.cl.Metrics())
	heap := startHeapSampler()
	rec := c.runClients(in, time.Now().Add(dur), keepSpans)
	m := &measurement{rec: rec, heapPeakMB: heap.peakMB()}
	// Every client loop ends with all it sent stable everywhere, so the
	// counters are quiescent here.
	m.delta = readCounters(c.cl.Metrics()).sub(before)
	m.rates = phaseRates(rec.points)
	m.problems = append(m.problems, rec.problems...)
	if rec.failed == 0 {
		if want := m.delta.sends * float64(c.cl.Topology().N()-1); m.delta.deliveries != want {
			m.problems = append(m.problems, fmt.Sprintf("deliveries %.0f, want sends × 7 = %.0f", m.delta.deliveries, want))
		}
		m.problems = append(m.problems, c.checkFinalFrontiers()...)
	}
	if m.delta.resent != 0 || m.delta.reconnects != 0 {
		m.problems = append(m.problems, fmt.Sprintf("resent frames %.0f, reconnects %.0f: both must be 0 on a fault-free fabric", m.delta.resent, m.delta.reconnects))
	}
	return m
}

// opsPerSecond is the median completion rate over one-second windows.
func (m *measurement) opsPerSecond() float64 { return median(m.rates) }

// runWorkload runs one workload as opt says and reduces it to named numbers.
func runWorkload(w *workload, opt options) (*result, error) {
	in := generate(w, opt.seed)
	res := &result{workload: w.name, e2e: map[string]float64{}, layer: map[string]float64{}}

	var untraced *measurement
	if opt.untraced > 0 {
		// Set-up runs setUps times and setup_s is the median; the clusters
		// before the last are closed unused.
		var setups []float64
		var c *cluster
		for i := 0; i < setUps; i++ {
			if c != nil {
				if err := c.close(); err != nil {
					return nil, fmt.Errorf("%s: close after set-up: %w", w.name, err)
				}
			}
			var took time.Duration
			var err error
			if c, took, err = setUp(w, in, stabilizer.TraceConfig{}, opt); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			setups = append(setups, took.Seconds())
		}
		untraced = c.measure(in, opt.untraced, false)
		if err := c.close(); err != nil {
			untraced.problems = append(untraced.problems, err.Error())
		}
		res.absorb(untraced)
		res.e2e["setup_s"] = median(setups)
		res.summarizeClients(w, untraced)
		res.summarizeCounters(untraced)
	}

	if opt.traced > 0 {
		c, _, err := setUp(w, in, stabilizer.TraceConfig{SampleEvery: w.sampleEvery, RingSize: w.traceRing}, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
		}
		traced := c.measure(in, opt.traced, true)
		sum, rbErr := readBack(c.cl, w, traced.rec.spans, opt.outDir)
		if err := errors.Join(rbErr, c.close()); err != nil {
			traced.problems = append(traced.problems, err.Error())
		}
		res.absorb(traced)
		res.summarizeTrace(sum, w.floors())
		if untraced != nil {
			base := untraced.opsPerSecond()
			res.layer["trace.overhead_share"] = (base - traced.opsPerSecond()) / base
		}
	}
	return res, nil
}

// absorb folds a phase's operation counts and check failures into res.
func (r *result) absorb(m *measurement) {
	r.attempted += m.rec.attempted
	r.failed += m.rec.failed
	r.problems = append(r.problems, m.problems...)
	if m.rec.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d operations failed: %v", m.rec.failed, m.rec.attempted, m.rec.firstErr))
	}
}

func (r *result) summarizeClients(w *workload, m *measurement) {
	rec, floors := m.rec, w.floors()
	byKind := map[opKind]kindStats{}
	for k := opKind(0); k < numKinds; k++ {
		if len(rec.latMS[k]) == 0 {
			continue
		}
		s := sortedCopy(rec.latMS[k])
		ks := kindStats{kind: k, n: len(s), p50: quantile(s, 0.5), p90: quantile(s, 0.9), p95: quantile(s, 0.95), floor: floors[k]}
		if q, label, ok := topPercentile(len(s)); ok {
			ks.topLabel, ks.top = label, quantile(s, q)
		}
		byKind[k] = ks
		r.kinds = append(r.kinds, ks)
	}

	ops, all := m.opsPerSecond(), byKind[kindAll]
	r.e2e["ops_per_s"] = ops
	r.e2e["wait_all_p50_ms"] = all.p50
	r.layer["client.wait_all_p90_ms"] = all.p90
	r.layer["client.wait_all_excess_ms"] = excess(all.p50, all.floor)
	r.layer["core.send_call_us_p50"] = median(rec.submitUS)

	// The figures of this workload alone. wan-sync's carry bounds of their
	// own, the original design's where that is at least three times the
	// spread measured between runs on the reference box and three times the
	// spread where it is not (README, "Steadiness and bounds"): the bound
	// BENCHMARK.json puts on wait_all_p50_ms is set by the streams and is
	// ten times too wide for them.
	add := func(name, unit, better string, v float64, n int, bound float64) {
		r.figures = append(r.figures, figure{metricSpec{name, unit, better, bound}, v, n})
	}
	timing := func(name string, k opKind, v, bound float64) { add(name, "ms", "lower", v, byKind[k].n, bound) }
	switch w.name {
	case wlWANSync:
		one, maj, qr := byKind[kindOne], byKind[kindMajReg], byKind[kindQRead]
		timing("stab_one_p50_ms", kindOne, one.p50, 0.03)
		timing("stab_majreg_p50_ms", kindMajReg, maj.p50, 0.02)
		timing("stab_all_p50_ms", kindAll, all.p50, 0.02)
		timing("stab_one_p95_ms", kindOne, one.p95, 0.10)
		timing("stab_all_p95_ms", kindAll, all.p95, 0.03)
		timing("stab_one_excess_ms", kindOne, excess(one.p50, one.floor), 0.15)
		timing("stab_majreg_excess_ms", kindMajReg, excess(maj.p50, maj.floor), 0)
		timing("stab_all_excess_ms", kindAll, excess(all.p50, all.floor), 0.25)
		timing("qread_p50_ms", kindQRead, qr.p50, 0.02)
		timing("quorum.read_excess_ms", kindQRead, excess(qr.p50, qr.floor), 0)
	case wlStreamSmall:
		add("stream_small_msgs_per_s", "msgs/s", "higher", ops, 0, 0)
	case wlStreamLarge:
		add("stream_large_mb_per_s", "MB/s", "higher", ops*float64(w.payloadBytes)/1e6, 0, 0)
	case wlKVSync:
		add("kv_sync_ops_per_s", "ops/s", "higher", ops, 0, 0)
		add("kv_sync_put_p50_us", "us", "lower", all.p50*1e3, all.n, 0)
		add("wankv.put_call_us_p50", "us", "lower", median(rec.submitUS), len(rec.submitUS), 0)
		add("wankv.apply_lag_p50_us", "us", "lower", median(rec.applyUS), len(rec.applyUS), 0)
	}
}

func (r *result) summarizeCounters(m *measurement) {
	d := m.delta
	msgs := d.sends
	per := func(v float64) float64 { return v / msgs }
	l := r.layer
	l["core.delivery_lag_p50_ms"] = bucketQuantile(d.deliveryLagBuckets(), 0.5) * 1e3
	l["core.deliveries_per_msg"] = per(d.deliveries)
	l["transport.data_frames_per_msg"] = per(d.dataFrames)
	l["transport.ack_frames_per_msg"] = per(d.ackFrames)
	l["transport.wire_bytes_per_payload_byte"] = d.wireBytes / d.sendBytes
	l["transport.resent_frames"] = d.resent
	l["transport.reconnects"] = d.reconnects
	l["frontier.pred_evals_per_msg"] = per(d.predEvals)
	l["frontier.recomputes_per_msg"] = per(d.recomputes)
	l["frontier.monitor_fires_per_msg"] = per(d.monitorFire)
	l["proc.cpu_us_per_msg"] = per(d.cpuUS)
	l["proc.alloc_bytes_per_msg"] = per(d.allocBytes)
	l["proc.allocs_per_msg"] = per(d.mallocs)
	l["proc.gc_pause_ms"] = d.gcPauseMS
	l["proc.heap_peak_mb"] = m.heapPeakMB
	l["proc.rss_peak_mb"] = rssPeakMB()
}

// residualFinding is the share of client-side latency the stages may leave
// unexplained before it is called out.
const residualFinding = 0.10

func (r *result) summarizeTrace(sum *traceSummary, floors [numKinds]time.Duration) {
	r.trace = sum
	if sum.incomplete > 0 {
		r.findings = append(r.findings, fmt.Sprintf("trace: %d of %d operations read back had stage events missing from the rings and were left out",
			sum.incomplete, sum.incomplete+sum.analyzed))
	}
	all := sum.kinds[kindAll]
	if all == nil {
		r.problems = append(r.problems, "trace: no AllWNodes operation could be read back from the flight recorder")
		return
	}
	for s, name := range stageMetrics {
		r.layer[name] = all.stageP50[s]
	}
	r.layer["trace.residual_us"] = all.residualUS
	r.layer["trace.residual_share"] = all.residualShare
	for kind, kt := range sum.kinds {
		name := kindNames[kind]
		if kt.residualShare > residualFinding {
			r.findings = append(r.findings, fmt.Sprintf("trace %s: %.1f%% of the client-side latency is outside the recorded stages", name, 100*kt.residualShare))
		}
		if floor := floors[kind]; floor > 0 {
			// The two flights are the outbound stage and the return leg
			// inside deliver→ack; together they should be the matrix
			// round trip plus what the emulator adds (emunet.rtt_excess_us).
			flights := kt.stageP50[stageFlight] + kt.stageP50[stageDeliverToAck]
			r.figures = append(r.figures, figure{metricSpec{Name: "trace." + name + "_flights_over_rtt_us", Unit: "us", Better: "lower"}, flights - us(floor), kt.ops})
		}
	}
}
