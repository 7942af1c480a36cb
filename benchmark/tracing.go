package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"stabilizer"
	"stabilizer/internal/optrace"
)

// The blocking chain of one synchronous write, as the flight recorder's
// stage events and the benchmark's own span cut it. Each stage runs from
// the previous stamp to the one it is named after; together they run from
// the append stamp inside Send to the moment the client's wait returns.
var stageMetrics = [...]string{
	"core.append_to_enqueue_us",
	"transport.enqueue_to_wire_us",
	"emunet.flight_us",
	"core.recv_to_deliver_us",
	"transport.deliver_to_ack_us",
	"frontier.ack_to_stabilize_us",
	"frontier.stabilize_to_return_us",
}

const (
	stageFlight       = 2
	stageDeliverToAck = 4
)

// ackType is the stability type every Table III predicate reads.
const ackType = "received"

// breakdown is one traced operation cut into stages, in microseconds.
type breakdown struct {
	// peer is the node whose acknowledgment decided the predicate: the
	// last first-covering ACK the origin ingested before it stabilized.
	peer      int
	stages    [len(stageMetrics)]float64
	latencyUS float64 // client side: wait returns − Send called
	// residualUS is the client-side latency the stages do not cover, so
	// stage sum + residual = latency for every operation by construction.
	residualUS float64
}

func (b breakdown) stageSum() float64 {
	var sum float64
	for _, s := range b.stages {
		sum += s
	}
	return sum
}

var errIncomplete = errors.New("stage events missing from the flight recorder")

// analyze cuts one client span into stages using the merged timeline of its
// operation. It follows the peer whose ACK immediately precedes the
// stabilize event at the origin. An operation whose events were evicted
// from a ring, or never sampled, yields errIncomplete.
func analyze(sp span, events []optrace.Event, predicate string) (breakdown, error) {
	const unset = int64(-1)
	earliest := func(cur, ts int64) int64 {
		if cur == unset || ts < cur {
			return ts
		}
		return cur
	}
	// Stabilize and Ack are cumulative watermarks: the first one at or past
	// seq is the one that covered this operation.
	stabilized := unset
	firstAck := map[int]int64{}
	for _, ev := range events {
		if ev.Node != sp.origin || ev.Origin != sp.origin || ev.Seq < sp.seq {
			continue
		}
		switch {
		case ev.Stage == optrace.StageStabilize && ev.Label == predicate:
			stabilized = earliest(stabilized, ev.TS)
		case ev.Stage == optrace.StageAck && ev.Label == ackType && ev.Peer != sp.origin:
			if cur, ok := firstAck[ev.Peer]; !ok || ev.TS < cur {
				firstAck[ev.Peer] = ev.TS
			}
		}
	}
	// A stabilize stamp after the client's wait returned is a later advance:
	// the one that released this wait has left the ring.
	if stabilized == unset || stabilized > sp.end {
		return breakdown{}, errIncomplete
	}
	b := breakdown{}
	acked := unset
	for peer, ts := range firstAck {
		if ts <= stabilized && ts > acked {
			b.peer, acked = peer, ts
		}
	}
	if acked == unset {
		return breakdown{}, errIncomplete
	}
	appended, enqueued, written, received, delivered := unset, unset, unset, unset, unset
	for _, ev := range events {
		if ev.Origin != sp.origin || ev.Seq != sp.seq {
			continue
		}
		switch {
		case ev.Stage == optrace.StageAppend && ev.Node == sp.origin:
			appended = earliest(appended, ev.TS)
		case ev.Stage == optrace.StageBatchEnqueue && ev.Node == sp.origin && ev.Peer == b.peer:
			enqueued = earliest(enqueued, ev.TS)
		case ev.Stage == optrace.StageWireSend && ev.Node == sp.origin && ev.Peer == b.peer:
			written = earliest(written, ev.TS)
		case ev.Stage == optrace.StageWireRecv && ev.Node == b.peer:
			received = earliest(received, ev.TS)
		case ev.Stage == optrace.StageDeliver && ev.Node == b.peer:
			delivered = earliest(delivered, ev.TS)
		}
	}
	stamps := [...]int64{appended, enqueued, written, received, delivered, acked, stabilized, sp.end}
	for i, ts := range stamps {
		if ts == unset {
			return breakdown{}, errIncomplete
		}
		if i > 0 {
			b.stages[i-1] = float64(ts-stamps[i-1]) / 1e3
		}
	}
	b.latencyUS = float64(sp.end-sp.start) / 1e3
	b.residualUS = b.latencyUS - b.stageSum()
	return b, nil
}

// kindTrace aggregates the breakdowns of one kind of operation.
type kindTrace struct {
	ops        int
	stageP50   [len(stageMetrics)]float64
	residualUS float64 // p50
	// residualShare is the p50 of residual ÷ client-side latency per op.
	residualShare float64
	latencyUS     float64 // p50
}

// traceSummary is what the traced phase yields for one workload.
type traceSummary struct {
	analyzed, incomplete int
	kinds                map[opKind]*kindTrace
	chromePath           string
}

// pickSpans chooses the spans to read back through Cluster.TraceOp: at most
// w.traceOps of them (each read scans every node's ring), spread evenly
// over the final w.traceTail of the phase, which is as far back as the
// rings still hold every event of an operation. A zero traceTail means the
// rings hold the whole phase.
func pickSpans(w *workload, spans []span) []span {
	recent := spans
	if w.traceTail > 0 {
		var phaseEnd int64
		for _, sp := range spans {
			if sp.end > phaseEnd {
				phaseEnd = sp.end
			}
		}
		recent = nil
		for _, sp := range spans {
			if phaseEnd-sp.end <= int64(w.traceTail) {
				recent = append(recent, sp)
			}
		}
	}
	if len(recent) <= w.traceOps {
		return recent
	}
	picked := make([]span, 0, w.traceOps)
	for i := 0; i < w.traceOps; i++ {
		picked = append(picked, recent[i*len(recent)/w.traceOps])
	}
	return picked
}

// readBack cuts the chosen spans into stages through Cluster.TraceOp and
// writes them, with the recorder's events, as Chrome trace JSON.
func readBack(cl *stabilizer.Cluster, w *workload, spans []span, outDir string) (*traceSummary, error) {
	sum := &traceSummary{kinds: map[opKind]*kindTrace{}}
	perKind := map[opKind][]breakdown{}
	var chrome []chromeEvent
	for _, sp := range pickSpans(w, spans) {
		tl, err := cl.TraceOp(sp.origin, sp.seq)
		if err != nil {
			sum.incomplete++
			continue
		}
		b, err := analyze(sp, tl.Events, kindPredicate[sp.kind])
		if err != nil {
			sum.incomplete++
			continue
		}
		sum.analyzed++
		perKind[sp.kind] = append(perKind[sp.kind], b)
		chrome = append(chrome, chromeOp(sp, b.peer, tl.Events)...)
	}
	for kind, bs := range perKind {
		kt := &kindTrace{ops: len(bs)}
		col := make([]float64, len(bs))
		p50 := func(get func(breakdown) float64) float64 {
			for i, b := range bs {
				col[i] = get(b)
			}
			return median(col)
		}
		for s := range stageMetrics {
			kt.stageP50[s] = p50(func(b breakdown) float64 { return b.stages[s] })
		}
		kt.residualUS = p50(func(b breakdown) float64 { return b.residualUS })
		kt.residualShare = p50(func(b breakdown) float64 { return b.residualUS / b.latencyUS })
		kt.latencyUS = p50(func(b breakdown) float64 { return b.latencyUS })
		sum.kinds[kind] = kt
	}
	if len(chrome) > 0 {
		sum.chromePath = filepath.Join(outDir, "trace-"+w.name+".json")
		if err := writeChrome(sum.chromePath, chrome); err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// chromeEvent is one Chrome trace_event record: "X" for the benchmark's
// spans, "i" for the recorder's stage stamps.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"` // node
	TID   int            `json:"tid"` // 0: the client, 1: the library
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args"`
}

// chromeOp renders one operation: the client's two calls as spans on the
// origin, and the stage events of its chain as instants on the node that
// stamped them. A merged timeline carries every later ACK and stabilize
// watermark too (they all cover this sequence); only the first of each,
// the one that actually covered it, is drawn.
func chromeOp(sp span, decidingPeer int, events []optrace.Event) []chromeEvent {
	args := map[string]any{"origin": sp.origin, "seq": sp.seq, "kind": kindNames[sp.kind], "deciding_peer": decidingPeer}
	usec := func(ns int64) float64 { return float64(ns) / 1e3 }
	out := []chromeEvent{
		{Name: "submit", Phase: "X", TS: usec(sp.start), Dur: usec(sp.submitted - sp.start), PID: sp.origin, Args: args},
		{Name: "wait:" + kindPredicate[sp.kind], Phase: "X", TS: usec(sp.submitted), Dur: usec(sp.end - sp.submitted), PID: sp.origin, Args: args},
	}
	type watermark struct {
		stage      optrace.Stage
		node, peer int
		label      string
	}
	seen := map[watermark]bool{}
	for _, ev := range events { // timelines are ordered by time
		if ev.Stage.Cumulative() {
			k := watermark{ev.Stage, ev.Node, ev.Peer, ev.Label}
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		name := ev.Stage.String()
		if ev.Label != "" {
			name += ":" + ev.Label
		}
		out = append(out, chromeEvent{
			Name: name, Phase: "i", TS: usec(ev.TS), PID: ev.Node, TID: 1, Scope: "t",
			Args: map[string]any{"origin": ev.Origin, "seq": ev.Seq, "peer": ev.Peer, "op_seq": sp.seq},
		})
	}
	return out
}

// writeChrome writes events with timestamps rebased to the earliest one.
func writeChrome(path string, events []chromeEvent) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	base := events[0].TS
	for _, ev := range events {
		if ev.TS < base {
			base = ev.TS
		}
	}
	for i := range events {
		events[i].TS -= base
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
