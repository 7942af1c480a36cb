package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"stabilizer"
	"stabilizer/internal/core"
	"stabilizer/internal/dsl"
	"stabilizer/internal/emunet"
	"stabilizer/internal/frontier"
	"stabilizer/internal/kvstore"
	"stabilizer/internal/predlib"
	"stabilizer/internal/transport"
	"stabilizer/internal/wire"
)

// Layer probes: each times calls into one layer's exported functions, alone,
// on one goroutine, for a fixed number of iterations. They say what a layer
// costs when nothing else is running, which is the floor an end-to-end
// figure is read against. scale divides every iteration count (smoke mode).

// sink keeps results alive so the compiler cannot drop a probed call.
var sink uint64

func perOpNS(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func runProbes(scale int) (map[string]float64, error) {
	out := map[string]float64{}
	n := func(iters int) int {
		if iters /= scale; iters < 10 {
			return 10
		}
		return iters
	}
	probeWire(out, n)
	probeSendLog(out, n)
	if err := probePair(out, n(1_000_000)); err != nil {
		return nil, fmt.Errorf("transport pair probe: %w", err)
	}
	if err := probeFrontier(out, n); err != nil {
		return nil, fmt.Errorf("frontier probe: %w", err)
	}
	if err := probeKVStore(out, n); err != nil {
		return nil, fmt.Errorf("kvstore probe: %w", err)
	}
	if err := probeEmunet(out, n(100), (4<<20)/scale); err != nil {
		return nil, fmt.Errorf("emunet probe: %w", err)
	}
	return out, nil
}

// loopReader replays buf forever, so a wire.Reader can decode as many frames
// as a probe asks for from a small encoded sample.
type loopReader struct {
	buf []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.buf[l.off:])
	if l.off += n; l.off == len(l.buf) {
		l.off = 0
	}
	return n, nil
}

func probeWire(out map[string]float64, n func(int) int) {
	for _, size := range []struct {
		suffix string
		bytes  int
		iters  int
	}{{"64", 64, n(2_000_000)}, {"8k", 8 << 10, n(200_000)}} {
		d := &wire.Data{SentUnixNano: 1, Payload: make([]byte, size.bytes)}
		var buf []byte
		start := time.Now()
		for i := 0; i < size.iters; i++ {
			d.Seq = uint64(i)
			buf = wire.AppendFrame(buf[:0], d)
		}
		out["wire.encode_ns_"+size.suffix] = perOpNS(time.Since(start), size.iters)
		if size.bytes == 64 {
			out["wire.overhead_bytes_per_frame"] = float64(len(buf) - size.bytes)
		}

		var sample []byte
		for i := 0; i < 64; i++ {
			d.Seq = uint64(i)
			sample = wire.AppendFrame(sample, d)
		}
		r := wire.NewReader(&loopReader{buf: sample})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		for i := 0; i < size.iters; i++ {
			m, err := r.Next()
			if err != nil {
				panic(err) // the sample was encoded three lines up
			}
			sink += m.(*wire.Data).Seq
		}
		out["wire.decode_ns_"+size.suffix] = perOpNS(time.Since(start), size.iters)
		runtime.ReadMemStats(&after)
		if size.bytes == 64 {
			out["wire.decode_allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / float64(size.iters)
		}
	}
}

func probeSendLog(out map[string]float64, n func(int) int) {
	const run = 4096
	rounds := n(1_000_000) / run
	if rounds < 1 {
		rounds = 1
	}
	l := transport.NewSendLog(1)
	defer l.Close()
	payload := make([]byte, 64)
	batch := make([]transport.LogEntry, 0, 256)
	cursor := uint64(1)
	var appendT, drainT, truncT time.Duration
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < run; i++ {
			if _, err := l.Append(payload, 0); err != nil {
				panic(err) // an unbounded, open log does not refuse appends
			}
		}
		t1 := time.Now()
		for end := cursor + run; cursor < end; {
			batch = l.TryNextBatch(cursor, batch[:0], 256, 1<<20)
			cursor = batch[len(batch)-1].Seq + 1
		}
		t2 := time.Now()
		l.TruncateThrough(cursor - 1)
		appendT, drainT, truncT = appendT+t1.Sub(t0), drainT+t2.Sub(t1), truncT+time.Since(t2)
	}
	entries := rounds * run
	out["transport.sendlog_append_ns"] = perOpNS(appendT, entries)
	out["transport.sendlog_drain_ns"] = perOpNS(drainT, entries)
	out["transport.sendlog_truncate_ns"] = perOpNS(truncT, entries)
}

// countingHandler counts delivered data frames and ignores everything else.
type countingHandler struct{ data atomic.Int64 }

func (h *countingHandler) HandleData(int, *wire.Data) { h.data.Add(1) }
func (h *countingHandler) HandleAck(*wire.Ack)        {}
func (h *countingHandler) HandleApp(int, *wire.App)   {}
func (h *countingHandler) PeerUp(int)                 {}
func (h *countingHandler) PeerDown(int)               {}

// probePair streams msgs 64-byte messages between two bare transports on
// the unshaped fabric: the data plane with no core, frontier or ACKs on
// top. It has the shape of internal/transport's StreamThroughputLocal.
func probePair(out map[string]float64, msgs int) error {
	fabric := emunet.NewMemNetwork(nil)
	defer fabric.Close()
	log, rx := transport.NewSendLog(1), &countingHandler{}
	mk := func(self int, h transport.Handler, l *transport.SendLog) (*transport.Transport, error) {
		tr, err := transport.New(transport.Config{Self: self, N: 2, Network: fabric, Handler: h, Log: l,
			HeartbeatEvery: 20 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		return tr, tr.Start()
	}
	tx, err := mk(1, &countingHandler{}, log)
	if err != nil {
		return err
	}
	defer tx.Close()
	peer, err := mk(2, rx, transport.NewSendLog(1))
	if err != nil {
		return err
	}
	defer peer.Close()

	const window = 8192 // in-flight bound, as in StreamThroughputLocal
	payload := make([]byte, 64)
	deadline := time.Now().Add(60 * time.Second)
	start := time.Now()
	for sent := 0; sent < msgs; {
		recvd := int(rx.data.Load())
		if sent-recvd >= window {
			log.TruncateThrough(uint64(recvd))
			if time.Now().After(deadline) {
				return fmt.Errorf("stalled at %d of %d delivered", recvd, msgs)
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if _, err := log.Append(payload, 0); err != nil {
			return err
		}
		tx.NotifyData()
		sent++
	}
	for int(rx.data.Load()) < msgs {
		if time.Now().After(deadline) {
			return fmt.Errorf("stalled at %d of %d delivered", rx.data.Load(), msgs)
		}
		time.Sleep(50 * time.Microsecond)
	}
	out["transport.pair_msgs_per_s_64"] = float64(msgs) / time.Since(start).Seconds()
	return nil
}

func probeFrontier(out map[string]float64, n func(int) int) error {
	topo := stabilizer.EC2Topology(1)
	peers := topo.N()

	table := frontier.NewTable(peers)
	iters := n(2_000_000)
	start := time.Now()
	for i := 0; i < iters; i++ {
		table.Update(1+i%peers, frontier.TypeReceived, uint64(i/peers+1))
	}
	out["frontier.table_update_ns"] = perOpNS(time.Since(start), iters)

	// The control plane of one sending node: an 8-node table, the six
	// Table III predicates, inline stabilization.
	env := core.NewDSLEnv(topo, frontier.NewTypes())
	sources := predlib.TableIII(topo)
	iters = n(2000)
	start = time.Now()
	var progs []*dsl.Program
	for i := 0; i < iters; i++ {
		progs = progs[:0]
		for _, key := range predlib.TableIIIOrder() {
			p, err := dsl.Compile(sources[key], env)
			if err != nil {
				return err
			}
			progs = append(progs, p)
		}
	}
	out["dsl.compile_us"] = float64(time.Since(start).Microseconds()) / float64(iters)

	iters = n(2_000_000)
	start = time.Now()
	for i := 0; i < iters; i++ {
		sink += progs[i%len(progs)].Eval(table)
	}
	out["dsl.eval_ns"] = perOpNS(time.Since(start), iters)

	table = frontier.NewTable(peers)
	table.EnsureType(frontier.TypeReceived, 1, 0)
	reg := frontier.NewRegistry(env, table)
	defer reg.Close()
	mreg := stabilizer.NewMetricsRegistry()
	reg.EnableMetrics(mreg)
	if err := reg.RegisterBatch(sources); err != nil {
		return err
	}
	evals := mreg.Counter("stabilizer_frontier_pred_evals_total", "")
	iters = n(2000)
	lat := make([]float64, 0, iters)
	released := make(chan time.Time)
	updates := 0
	evalsBefore := evals.Value()
	for i := 0; i < iters; i++ {
		seq := uint64(i + 1)
		// The origin's own row advances at Send (completeness rule).
		table.UpdateAll(1, seq)
		reg.NoteNodeUpdate(1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
			defer cancel()
			if err := reg.WaitFor(ctx, seq, predlib.AllWNodesKey); err != nil {
				released <- time.Time{}
				return
			}
			released <- time.Now()
		}()
		for reg.WaiterCount() == 0 {
			runtime.Gosched()
		}
		t0 := time.Now()
		for peer := 2; peer <= peers; peer++ {
			if table.Update(peer, frontier.TypeReceived, seq) {
				reg.NoteCellUpdate(peer, frontier.TypeReceived)
				updates++
			}
		}
		t1 := <-released
		if t1.IsZero() {
			return fmt.Errorf("parked WaitFor for %d was not released", seq)
		}
		lat = append(lat, us(t1.Sub(t0)))
	}
	out["frontier.ack_to_release_us"] = median(lat)
	out["frontier.evals_per_update"] = float64(evals.Value()-evalsBefore) / float64(updates)
	return nil
}

func probeKVStore(out map[string]float64, n func(int) int) error {
	iters := n(200_000)
	keys := 10000
	if iters < keys {
		keys = iters // every key read below must have been written
	}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%05d", i)
	}
	value := make([]byte, 128)
	owner, mirror := kvstore.New(), kvstore.New()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := owner.Put(names[i%keys], value); err != nil {
			return err
		}
	}
	out["kvstore.put_ns"] = perOpNS(time.Since(start), iters)
	now := time.Now()
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := mirror.Apply(names[i%keys], value, uint64(i+1), now); err != nil {
			return err
		}
	}
	out["kvstore.apply_ns"] = perOpNS(time.Since(start), iters)
	gets := n(1_000_000)
	start = time.Now()
	for i := 0; i < gets; i++ {
		v, err := mirror.Get(names[i%keys])
		if err != nil {
			return err
		}
		sink += v.Num
	}
	out["kvstore.get_ns"] = perOpNS(time.Since(start), gets)
	return nil
}

// probeEmunet measures what the emulator adds to the configured links, so
// the WAN figures can be split into the emulator's share and the library's.
func probeEmunet(out map[string]float64, pings, bulkBytes int) error {
	m := emunet.EC2Matrix()
	excess, err := pingPong(m, pings)
	if err != nil {
		return fmt.Errorf("ping-pong: %w", err)
	}
	out["emunet.rtt_excess_us"] = excess
	share, err := bulkGoodput(m, bulkBytes)
	if err != nil {
		return fmt.Errorf("bulk transfer: %w", err)
	}
	out["emunet.goodput_share"] = share
	return nil
}

// pingPong sends 64 bytes back and forth over a pipe shaped as the
// N. California link (node 1 ↔ node 2) and returns the median of measured
// minus configured round trip, in microseconds.
func pingPong(m *emunet.Matrix, pings int) (float64, error) {
	near, far := net.Pipe()
	shaped := emunet.Shape(near, m.Get(1, 2), m.Get(2, 1))
	echoed := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(far, buf); err != nil {
				echoed <- nil // the probe closed the pipe
				return
			}
			if _, err := far.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	// Closing both ends stops the echo goroutine on every path; its error is
	// read after that.
	stop := func() error {
		shaped.Close()
		far.Close()
		return <-echoed
	}
	configured := rtt(m, 1, 2)
	buf := make([]byte, 64)
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		_, err := shaped.Write(buf)
		if err == nil {
			_, err = io.ReadFull(shaped, buf)
		}
		if err != nil {
			return 0, errors.Join(err, stop())
		}
		rtts = append(rtts, us(time.Since(t0)-configured))
	}
	if err := stop(); err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// bulkGoodput writes bulkBytes over a pipe shaped as the N. Virginia link
// (node 1 → node 3) and returns achieved ÷ configured bandwidth. The last
// byte arrives one one-way latency after the shaper released it; that
// latency is the link's, not lost bandwidth, and is taken off the time.
func bulkGoodput(m *emunet.Matrix, bulkBytes int) (float64, error) {
	near, far := net.Pipe()
	link := m.Get(1, 3)
	shaped := emunet.Shape(near, link, m.Get(3, 1))
	defer shaped.Close()
	defer far.Close()
	arrived := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, far, int64(bulkBytes))
		arrived <- err
	}()
	start := time.Now()
	if _, err := shaped.Write(make([]byte, bulkBytes)); err != nil {
		far.Close() // ends the reader, whose own error adds nothing
		<-arrived
		return 0, err
	}
	if err := <-arrived; err != nil {
		return 0, err
	}
	transfer := time.Since(start) - link.OneWayLatency
	return float64(bulkBytes) * 8 / transfer.Seconds() / link.BandwidthBps, nil
}
