package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
)

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := GenConfig{N: 4, Crashable: []int{3, 4}, Horizon: 10 * time.Second}
	const seed = 42
	a, b := Generate(seed, cfg), Generate(seed, cfg)
	if a.String() != b.String() {
		t.Fatalf("seed %d: schedules differ:\n%s\n--- vs ---\n%s", seed, a, b)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("seed %d: fingerprints differ: %s vs %s", seed, a.Fingerprint(), b.Fingerprint())
	}
	if c := Generate(seed+1, cfg); c.String() == a.String() {
		t.Fatalf("seeds %d and %d produced identical schedules", seed, seed+1)
	}
}

func TestGenerateCoversEveryKind(t *testing.T) {
	const seed = 7
	s := Generate(seed, GenConfig{N: 4, Crashable: []int{4}, Horizon: 10 * time.Second})
	if got, want := len(s.Kinds()), len(AllKinds()); got != want {
		t.Fatalf("seed %d: schedule covers %d kinds (%v), want all %d:\n%s", seed, got, s.Kinds(), want, s)
	}
}

func TestGenerateRespectsKindSubset(t *testing.T) {
	const seed = 7
	s := Generate(seed, GenConfig{N: 3, Horizon: 10 * time.Second, Kinds: []Kind{KindFlap, KindBlackhole}})
	for _, e := range s.Events {
		if e.Kind != KindFlap && e.Kind != KindBlackhole {
			t.Fatalf("seed %d: unexpected kind %s in restricted schedule", seed, e.Kind)
		}
	}
	if len(s.Events) == 0 {
		t.Fatalf("seed %d: empty schedule", seed)
	}
}

// pipePair returns an injected conn in front of one side of a net.Pipe.
func pipePair(t *testing.T, in *Injector, from, to int) (*Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	wrapped, err := in.Hook()(from, to, a)
	if err != nil {
		t.Fatalf("hook: %v", err)
	}
	return wrapped.(*Conn), b
}

func TestCutStallsWriteUntilHeal(t *testing.T) {
	in := New(nil)
	defer in.Close()
	c, peer := pipePair(t, in, 1, 2)

	in.CutLink(1, 2)
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("hello"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write completed through a cut link: err=%v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Heal: the stalled bytes must now flow, unmodified.
	go in.HealLink(1, 2)
	buf := make([]byte, 16)
	n, err := peer.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read after heal: %q, %v", buf[:n], err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

func TestSeverFailsStalledWriteMidFrame(t *testing.T) {
	in := New(nil)
	defer in.Close()
	c, peer := pipePair(t, in, 1, 2)

	// A frame bigger than one write chunk: the first chunk lands, then the
	// cut engages and the sever kills the rest — a mid-frame break.
	frame := make([]byte, writeChunk*3)
	go func() {
		buf := make([]byte, writeChunk)
		_, _ = io.ReadFull(peer, buf) // accept the first chunk
		in.CutLink(1, 2)              // stall the remainder
		time.Sleep(20 * time.Millisecond)
		in.Sever(1, 2)
	}()
	n, err := c.Write(frame)
	if err == nil {
		t.Fatalf("write survived a sever (n=%d)", n)
	}
	// The kill may surface at the fault gate (net.ErrClosed) or inside the
	// underlying pipe write (io.ErrClosedPipe); either way it must land
	// mid-frame.
	if n == 0 || n >= len(frame) {
		t.Fatalf("sever did not land mid-frame: wrote %d of %d (err=%v)", n, len(frame), err)
	}
}

func TestCutStallsReadsOfReverseTraffic(t *testing.T) {
	in := New(nil)
	defer in.Close()
	// Conn dialed 2→1: its reads carry 1→2 traffic.
	c, peer := pipePair(t, in, 2, 1)

	in.CutLink(1, 2)
	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 4)
		_, err := c.Read(buf)
		readDone <- err
	}()
	go func() { _, _ = peer.Write([]byte("ping")) }()
	select {
	case err := <-readDone:
		t.Fatalf("read completed through a cut reverse link: err=%v", err)
	case <-time.After(50 * time.Millisecond):
	}
	in.HealLink(1, 2)
	if err := <-readDone; err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestDialFailsWhileCut(t *testing.T) {
	net1 := emunet.NewMemNetwork(nil)
	defer net1.Close()
	reg := metrics.NewRegistry()
	in := New(reg)
	defer in.Close()
	net1.SetConnHook(in.Hook())

	l, err := net1.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c) }()
		}
	}()

	in.Blackhole(1, 2)
	if _, err := net1.Dial(1, 2); !errors.Is(err, ErrLinkCut) {
		t.Fatalf("dial through cut link: err=%v, want ErrLinkCut", err)
	}
	in.HealBlackhole(1, 2)
	c, err := net1.Dial(1, 2)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	_ = c.Close()
	if v := reg.CounterVec("stabilizer_faults_injected_total", "Fault events injected, by fault kind.", "kind").With(KindBlackhole.String()).Value(); v != 1 {
		t.Fatalf("injected counter = %d, want 1", v)
	}
}

func TestSpikeDelaysWrites(t *testing.T) {
	in := New(nil)
	defer in.Close()
	c, peer := pipePair(t, in, 1, 2)
	go func() { _, _ = io.Copy(io.Discard, peer) }()

	const spike = 60 * time.Millisecond
	in.Spike(1, 2, spike)
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < spike {
		t.Fatalf("spiked write took %v, want ≥ %v", el, spike)
	}
	in.ClearSpike(1, 2, spike)
	start = time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > spike {
		t.Fatalf("write after ClearSpike took %v, want < %v", el, spike)
	}
}

func TestSlowReceiverThrottlesReads(t *testing.T) {
	in := New(nil)
	defer in.Close()
	// Conn dialed 2→1: its reads carry 1→2 traffic, the throttled direction.
	c, peer := pipePair(t, in, 2, 1)

	payload := make([]byte, 3*readChunk)
	go func() {
		_, _ = peer.Write(payload)
	}()

	const slow = 20 * time.Millisecond
	in.SlowReceiver(1, 2, slow)
	start := time.Now()
	buf := make([]byte, len(payload))
	total := 0
	for total < len(payload) {
		n, err := c.Read(buf[total:])
		if err != nil {
			t.Fatalf("throttled read: %v", err)
		}
		if n > readChunk {
			t.Fatalf("throttled read returned %d bytes, want ≤ %d per chunk", n, readChunk)
		}
		total += n
	}
	// Three chunks at ≥ slow each; allow scheduler slop on the floor.
	if el := time.Since(start); el < 3*slow-slow/2 {
		t.Fatalf("throttled drain of %d bytes took %v, want ≥ ~%v", total, el, 3*slow)
	}
	in.ClearSlowReceiver(1, 2, slow)

	go func() { _, _ = peer.Write(payload[:4]) }()
	start = time.Now()
	if _, err := c.Read(buf[:4]); err != nil {
		t.Fatalf("read after clear: %v", err)
	}
	if el := time.Since(start); el > slow {
		t.Fatalf("read after ClearSlowReceiver took %v, want < %v", el, slow)
	}
}

func TestRunnerAppliesAndHealsInOrder(t *testing.T) {
	in := New(nil)
	defer in.Close()
	sched := &Schedule{Seed: 1, Events: []Event{
		{At: 10 * time.Millisecond, Dur: 30 * time.Millisecond, Kind: KindBlackhole, Nodes: []int{1, 2}},
		{At: 20 * time.Millisecond, Kind: KindFlap, Nodes: []int{1, 3}},
	}}
	crashed := make(chan int, 1)
	r := &Runner{Inj: in, Sched: sched, N: 3, Scale: 1,
		Crash: func(n int) { crashed <- n }, Restart: func(int) {}}
	done := make(chan struct{})
	go func() { r.Run(nil); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("runner did not finish")
	}
	// After Run, every engaged fault has healed: dials must succeed.
	if _, err := in.Hook()(1, 2, nopConn{}); err != nil {
		t.Fatalf("link still cut after runner finished: %v", err)
	}
}

// nopConn is a do-nothing net.Conn for hook-only tests.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// recordingConn records the writes it is handed: one entry per call, the
// sizes of the pieces it carried.
type recordingConn struct {
	nopConn
	calls *[][]int
	bytes *[]byte
}

func (c recordingConn) Write(p []byte) (int, error) {
	*c.calls = append(*c.calls, []int{len(p)})
	*c.bytes = append(*c.bytes, p...)
	return len(p), nil
}

// recordingBuffersConn is a recordingConn that takes buffers.
type recordingBuffersConn struct{ recordingConn }

func (c recordingBuffersConn) WriteBuffers(bufs [][]byte) (int, error) {
	var sizes []int
	n := 0
	for _, p := range bufs {
		sizes = append(sizes, len(p))
		*c.bytes = append(*c.bytes, p...)
		n += len(p)
	}
	*c.calls = append(*c.calls, sizes)
	return n, nil
}

// TestWriteBuffersIsAWriteOfTheConcatenation pins what the connection below
// sees of a vectored write: the concatenation in chunks of writeChunk bytes
// of it, wherever the buffers are cut, as the buffers' pieces if it takes
// buffers and as one Write per chunk if not, exactly what a Write of the
// concatenation gives it.
func TestWriteBuffersIsAWriteOfTheConcatenation(t *testing.T) {
	var want []byte
	var bufs [][]byte
	for i, n := range []int{3000, 0, 3000, 5000} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*7 + j)
		}
		bufs = append(bufs, p)
		want = append(want, p...)
	}
	chunks := [][]int{{writeChunk}, {writeChunk}, {len(want) - 2*writeChunk}}
	for _, tc := range []struct {
		name      string
		takesBufs bool
		vectored  bool
		want      [][]int
	}{
		{"buffers-to-buffers", true, true, [][]int{{3000, writeChunk - 3000}, {6000 - writeChunk, 2*writeChunk - 6000}, {len(want) - 2*writeChunk}}},
		{"buffers-to-write", false, true, chunks},
		{"write-to-write", false, false, chunks},
		{"write-to-buffers", true, false, chunks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := New(nil)
			defer in.Close()
			var calls [][]int
			var got []byte
			var base net.Conn = recordingConn{calls: &calls, bytes: &got}
			if tc.takesBufs {
				base = recordingBuffersConn{recordingConn{calls: &calls, bytes: &got}}
			}
			wrapped, err := in.Hook()(1, 2, base)
			if err != nil {
				t.Fatal(err)
			}
			c := wrapped.(*Conn)
			var n int
			if tc.vectored {
				n, err = c.WriteBuffers(bufs)
			} else {
				n, err = c.Write(want)
			}
			if n != len(want) || err != nil {
				t.Fatalf("wrote (%d, %v), want (%d, nil)", n, err, len(want))
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the connection below got other bytes than the concatenation")
			}
			if fmt.Sprint(calls) != fmt.Sprint(tc.want) {
				t.Fatalf("the connection below got writes %v, want %v", calls, tc.want)
			}
		})
	}
}

// TestWriteBuffersKeepsWriteFaults: the spike delays a vectored write once,
// not once per chunk, and a sever engaged after the first chunk lands
// mid-vector, on a connection that takes buffers and on one that does not.
func TestWriteBuffersKeepsWriteFaults(t *testing.T) {
	vector := [][]byte{make([]byte, writeChunk), make([]byte, writeChunk), make([]byte, writeChunk)}
	pairs := []struct {
		name string
		pair func(t *testing.T) (net.Conn, net.Conn)
	}{
		{"pipe", func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }},
		{"mem", func(t *testing.T) (net.Conn, net.Conn) {
			fabric := emunet.NewMemNetwork(nil)
			t.Cleanup(func() { _ = fabric.Close() })
			l, err := fabric.Listen(2)
			if err != nil {
				t.Fatal(err)
			}
			accepted := make(chan net.Conn, 1)
			go func() {
				c, _ := l.Accept()
				accepted <- c
			}()
			a, err := fabric.Dial(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			return a, <-accepted
		}},
	}
	for _, p := range pairs {
		t.Run(p.name+"/spike-once", func(t *testing.T) {
			in := New(nil)
			defer in.Close()
			a, peer := p.pair(t)
			defer peer.Close()
			go func() { _, _ = io.Copy(io.Discard, peer) }()
			wrapped, err := in.Hook()(1, 2, a)
			if err != nil {
				t.Fatal(err)
			}
			c := wrapped.(*Conn)
			const spike = 60 * time.Millisecond
			in.Spike(1, 2, spike)
			start := time.Now()
			if _, err := c.WriteBuffers(vector); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el < spike || el >= time.Duration(len(vector))*spike {
				t.Fatalf("spiked vectored write of %d chunks took %v, want one spike of %v", len(vector), el, spike)
			}
		})
		t.Run(p.name+"/sever-mid-vector", func(t *testing.T) {
			in := New(nil)
			defer in.Close()
			a, peer := p.pair(t)
			defer peer.Close()
			go func() { _, _ = io.Copy(io.Discard, peer) }()
			// The first chunk lands, then the cut stalls the remainder and
			// the sever kills it.
			var base net.Conn = firstWriteConn{Conn: a, once: new(sync.Once), f: func() {
				in.CutLink(1, 2)
				time.AfterFunc(20*time.Millisecond, func() { in.Sever(1, 2) })
			}}
			if bw, ok := a.(buffersWriter); ok {
				base = firstWriteBuffersConn{base.(firstWriteConn), bw}
			}
			wrapped, err := in.Hook()(1, 2, base)
			if err != nil {
				t.Fatal(err)
			}
			n, err := wrapped.(*Conn).WriteBuffers(vector)
			if n != writeChunk || err == nil {
				t.Fatalf("vectored write = (%d, %v), want the first chunk's %d bytes and an error", n, err, writeChunk)
			}
		})
	}
}

// firstWriteConn runs f once, after the first write to the connection it
// wraps returns.
type firstWriteConn struct {
	net.Conn
	once *sync.Once
	f    func()
}

func (c firstWriteConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.once.Do(c.f)
	return n, err
}

// firstWriteBuffersConn is a firstWriteConn that takes buffers.
type firstWriteBuffersConn struct {
	firstWriteConn
	bw buffersWriter
}

func (c firstWriteBuffersConn) WriteBuffers(bufs [][]byte) (int, error) {
	n, err := c.bw.WriteBuffers(bufs)
	c.once.Do(c.f)
	return n, err
}

// dialPair listens on node 2 of fabric, dials it from node 1 and returns the
// dialed and the accepted end.
func dialPair(t *testing.T, fabric emunet.Network) (dialed, accepted net.Conn) {
	t.Helper()
	l, err := fabric.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		ch <- c
	}()
	if dialed, err = fabric.Dial(1, 2); err != nil {
		t.Fatal(err)
	}
	accepted = <-ch
	t.Cleanup(func() {
		_ = dialed.Close()
		_ = accepted.Close()
		_ = fabric.Close()
	})
	return dialed, accepted
}

// TestWriteLendsNothing: a Write keeps socket semantics on every connection
// the fabrics hand out, whichever lends its WriteBuffers: the caller may
// write over p as soon as Write returns, before the peer has read, and the
// peer still reads what was written. On a shaped TCP dial the relay that
// feeds the shaped queue from the socket must not lend a buffer it reads
// into again either.
func TestWriteLendsNothing(t *testing.T) {
	shaped := func() *emunet.Matrix {
		m := emunet.NewMatrix()
		m.SetSymmetric(1, 2, emunet.Link{OneWayLatency: 30 * time.Millisecond})
		return m
	}
	cases := []struct {
		name string
		pair func(t *testing.T) (net.Conn, net.Conn)
	}{
		{"mem", func(t *testing.T) (net.Conn, net.Conn) { return dialPair(t, emunet.NewMemNetwork(nil)) }},
		{"mem-shaped", func(t *testing.T) (net.Conn, net.Conn) { return dialPair(t, emunet.NewMemNetwork(shaped())) }},
		{"faultinject-over-mem", func(t *testing.T) (net.Conn, net.Conn) {
			in := New(nil)
			t.Cleanup(func() { in.Close() })
			fabric := emunet.NewMemNetwork(nil)
			fabric.SetConnHook(in.Hook())
			a, b := dialPair(t, fabric)
			if _, ok := a.(*Conn); !ok {
				t.Fatalf("the hook left a %T", a)
			}
			return a, b
		}},
		{"tcp-shaped", func(t *testing.T) (net.Conn, net.Conn) { return dialPair(t, emunet.NewTCPNetwork(shaped())) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			// Each end writes three writes from one buffer it overwrites
			// after each returns; the other end reads only once all three
			// have returned.
			for _, dir := range [][2]net.Conn{{a, b}, {b, a}} {
				w, r := dir[0], dir[1]
				p := make([]byte, 1000)
				var want []byte
				for i := 0; i < 3; i++ {
					for j := range p {
						p[j] = byte(i*101 + j)
					}
					if n, err := w.Write(p); n != len(p) || err != nil {
						t.Fatalf("Write %d = (%d, %v)", i, n, err)
					}
					want = append(want, p...)
					time.Sleep(5 * time.Millisecond) // separate reads at a relay
				}
				for j := range p {
					p[j] = 0xEE
				}
				got := make([]byte, len(want))
				if _, err := io.ReadFull(r, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("the peer read bytes the writer wrote over after Write returned")
				}
			}
		})
	}
}
