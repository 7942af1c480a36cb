package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
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

// dialPair listens on node to of fabric, dials it from node from and returns
// the dialed and the accepted end.
func dialPair(t *testing.T, fabric emunet.Network, from, to int) (dialed, accepted net.Conn) {
	t.Helper()
	l, err := fabric.Listen(to)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		ch <- c
	}()
	if dialed, err = fabric.Dial(from, to); err != nil {
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

// faulted returns an injector on a fresh memory fabric (shaped by matrix, if
// not nil) and a connection between nodes 1 and 2 that node dialer dialed:
// node 1's end and node 2's.
func faulted(t *testing.T, matrix *emunet.Matrix, dialer int) (in *Injector, one, two net.Conn) {
	t.Helper()
	fabric := emunet.NewMemNetwork(matrix)
	in = New(fabric, nil)
	if dialer == 1 {
		one, two = dialPair(t, fabric, 1, 2)
	} else {
		two, one = dialPair(t, fabric, 2, 1)
	}
	return in, one, two
}

// dialers names the two ways a connection between nodes 1 and 2 comes about:
// a fault on a direction applies to both.
var dialers = []struct {
	name string
	node int
}{{"dialed-by-1", 1}, {"dialed-by-2", 2}}

// quiet fails t if r delivers anything within d.
func quiet(t *testing.T, r net.Conn, d time.Duration, what string) {
	t.Helper()
	_ = r.SetReadDeadline(time.Now().Add(d))
	defer r.SetReadDeadline(time.Time{})
	if n, err := r.Read(make([]byte, 1)); n > 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: read (%d, %v), want nothing", what, n, err)
	}
}

// readAll reads len(want) bytes from r and fails t unless they are want.
func readAll(t *testing.T, r net.Conn, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %q (%v), want %q", got, err, want)
	}
}

// A cut 1→2 holds what node 1 writes, on a connection either node dialed:
// the write returns, as into a socket's buffer, node 2 reads nothing, and
// the bytes flow once the cut heals. What node 2 writes to node 1 goes on.
func TestCutStallsWriteUntilHeal(t *testing.T) {
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			in, one, two := faulted(t, nil, d.node)
			in.CutLink(1, 2)
			if _, err := one.Write([]byte("hello")); err != nil {
				t.Fatal(err)
			}
			if _, err := two.Write([]byte("back")); err != nil {
				t.Fatal(err)
			}
			readAll(t, one, []byte("back"))
			quiet(t, two, 50*time.Millisecond, "through the cut")
			in.HealLink(1, 2)
			readAll(t, two, []byte("hello"))
		})
	}
}

// A cut holds what was written before it engaged too, unless it had arrived:
// on a shaped direction the bytes in flight wait for the heal, and a writer
// that fills the direction's bound blocks until then.
func TestCutStallsReadsOfReverseTraffic(t *testing.T) {
	m := emunet.NewMatrix()
	m.SetSymmetric(1, 2, emunet.Link{OneWayLatency: 20 * time.Millisecond})
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			in, one, two := faulted(t, m, d.node)
			if _, err := one.Write([]byte("in flight")); err != nil {
				t.Fatal(err)
			}
			in.CutLink(1, 2)
			quiet(t, two, 60*time.Millisecond, "in flight through the cut")
			wrote := make(chan error, 1)
			go func() {
				_, err := one.Write(make([]byte, 8<<20))
				wrote <- err
			}()
			select {
			case err := <-wrote:
				t.Fatalf("a write past the bound returned through the cut: %v", err)
			case <-time.After(50 * time.Millisecond):
			}
			in.HealLink(1, 2)
			readAll(t, two, []byte("in flight"))
			go func() { _, _ = io.Copy(io.Discard, two) }()
			if err := <-wrote; err != nil {
				t.Fatalf("write after heal: %v", err)
			}
		})
	}
}

// A sever fails a write parked at the bound mid-frame, whichever end wrote
// and whichever dialed, and closes both ends.
func TestSeverFailsStalledWriteMidFrame(t *testing.T) {
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			in, one, two := faulted(t, nil, d.node)
			in.CutLink(1, 2)
			frame := make([]byte, 3<<20)
			type result struct {
				n   int
				err error
			}
			wrote := make(chan result, 1)
			go func() {
				n, err := one.Write(frame)
				wrote <- result{n, err}
			}()
			time.Sleep(20 * time.Millisecond)
			in.Sever(1, 2)
			select {
			case r := <-wrote:
				if r.err == nil || r.n == 0 || r.n >= len(frame) {
					t.Fatalf("sever did not land mid-frame: wrote %d of %d (err=%v)", r.n, len(frame), r.err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("a write parked under a cut outlived the sever")
			}
			if _, err := two.Read(make([]byte, 1)); err == nil {
				t.Fatal("the other end reads after the sever")
			}
		})
	}
}

func TestDialFailsWhileCut(t *testing.T) {
	fabric := emunet.NewMemNetwork(nil)
	defer fabric.Close()
	reg := metrics.NewRegistry()
	in := New(fabric, reg)

	l, err := fabric.Listen(2)
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
	if _, err := fabric.Dial(1, 2); !errors.Is(err, emunet.ErrLinkCut) {
		t.Fatalf("dial through cut link: err=%v, want ErrLinkCut", err)
	}
	in.HealBlackhole(1, 2)
	c, err := fabric.Dial(1, 2)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	_ = c.Close()
	if v := reg.CounterVec("stabilizer_faults_injected_total", "Fault events injected, by fault kind.", "kind").With(KindBlackhole.String()).Value(); v != 1 {
		t.Fatalf("injected counter = %d, want 1", v)
	}
}

// spikeRead writes p on w and reports how long r took to read it, and how
// long the write took.
func spikeRead(t *testing.T, w, r net.Conn, p []byte) (write, read time.Duration) {
	t.Helper()
	start := time.Now()
	if _, err := w.Write(p); err != nil {
		t.Fatal(err)
	}
	write = time.Since(start)
	readAll(t, r, p)
	return write, time.Since(start)
}

// A spike on 1→2 delays what node 1 writes by the spike, on a connection
// either node dialed, and is no sleep in the writer: the write returns at
// once. What is written after ClearSpike is not delayed, and still arrives
// after what the spike delayed.
func TestSpikeDelaysWrites(t *testing.T) {
	const spike = 60 * time.Millisecond
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			in, one, two := faulted(t, nil, d.node)
			in.Spike(1, 2, spike)
			if w, r := spikeRead(t, one, two, []byte("x")); w >= spike || r < spike {
				t.Fatalf("spiked write took %v and arrived after %v, want at once and ≥ %v", w, r, spike)
			}
			if _, err := one.Write([]byte("a")); err != nil {
				t.Fatal(err)
			}
			in.ClearSpike(1, 2, spike)
			start := time.Now()
			if _, err := one.Write([]byte("b")); err != nil {
				t.Fatal(err)
			}
			readAll(t, two, []byte("ab"))
			if el := time.Since(start); el < spike/2 {
				t.Fatalf("a write after ClearSpike overtook the spiked one: both read after %v", el)
			}
			if _, r := spikeRead(t, one, two, []byte("y")); r >= spike {
				t.Fatalf("write after ClearSpike arrived after %v, want < %v", r, spike)
			}
		})
	}
}

// A spike on 2→1 delays what node 2 writes back on a connection either node
// dialed, on top of the link's own latency on a shaped one.
func TestSpikeDelaysReverseReads(t *testing.T) {
	const spike, latency = 60 * time.Millisecond, 20 * time.Millisecond
	m := emunet.NewMatrix()
	m.SetSymmetric(1, 2, emunet.Link{OneWayLatency: latency})
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			in, one, two := faulted(t, m, d.node)
			in.Spike(2, 1, spike)
			if _, r := spikeRead(t, two, one, []byte("x")); r < spike+latency {
				t.Fatalf("spiked reply arrived after %v, want ≥ %v", r, spike+latency)
			}
			in.ClearSpike(2, 1, spike)
			if _, r := spikeRead(t, two, one, []byte("y")); r >= spike {
				t.Fatalf("reply after ClearSpike arrived after %v, want < %v", r, spike)
			}
		})
	}
}

// A slow receiver on 1→2 paces node 2's reads of what node 1 writes, on a
// connection either node dialed: at most one 4 KiB chunk per delay.
func TestSlowReceiverThrottlesReads(t *testing.T) {
	const chunk = 4 << 10
	const slow = 20 * time.Millisecond
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			in, one, two := faulted(t, nil, d.node)
			payload := make([]byte, 3*chunk)
			in.SlowReceiver(1, 2, slow)
			if _, err := one.Write(payload); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			buf := make([]byte, len(payload))
			for total := 0; total < len(payload); {
				n, err := two.Read(buf[total:])
				if err != nil {
					t.Fatalf("throttled read: %v", err)
				}
				if n > chunk {
					t.Fatalf("throttled read returned %d bytes, want ≤ %d per chunk", n, chunk)
				}
				total += n
			}
			// Three chunks at ≥ slow each; allow scheduler slop on the floor.
			if el := time.Since(start); el < 3*slow-slow/2 {
				t.Fatalf("throttled drain of %d bytes took %v, want ≥ ~%v", len(payload), el, 3*slow)
			}
			in.ClearSlowReceiver(1, 2, slow)
			if _, r := spikeRead(t, one, two, payload); r > slow {
				t.Fatalf("a %d-byte read after ClearSlowReceiver took %v, want < %v", len(payload), r, slow)
			}
		})
	}
}

func TestRunnerAppliesAndHealsInOrder(t *testing.T) {
	fabric := emunet.NewMemNetwork(nil)
	defer fabric.Close()
	in := New(fabric, nil)
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
	dialPair(t, fabric, 1, 2)
}

// TestWriteBuffersKeepsWriteFaults: the spike delays a vectored write once,
// not once per buffer, and a sever engaged while it is parked at the bound
// fails it mid-vector.
func TestWriteBuffersKeepsWriteFaults(t *testing.T) {
	vector := [][]byte{make([]byte, 4<<10), make([]byte, 4<<10), make([]byte, 4<<10)}
	t.Run("mem/spike-once", func(t *testing.T) {
		in, one, two := faulted(t, nil, 1)
		const spike = 60 * time.Millisecond
		in.Spike(1, 2, spike)
		start := time.Now()
		if _, err := one.(buffersWriter).WriteBuffers(vector); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(two, make([]byte, 3*len(vector[0]))); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < spike || el >= time.Duration(len(vector))*spike {
			t.Fatalf("spiked vectored write of %d buffers arrived after %v, want one spike of %v", len(vector), el, spike)
		}
	})
	t.Run("mem/sever-mid-vector", func(t *testing.T) {
		in, one, _ := faulted(t, nil, 1)
		in.CutLink(1, 2)
		big := [][]byte{make([]byte, 1<<20-1<<10), make([]byte, 4<<10), make([]byte, 4<<10)}
		time.AfterFunc(20*time.Millisecond, func() { in.Sever(1, 2) })
		n, err := one.(buffersWriter).WriteBuffers(big)
		if n != 1<<20 || err == nil {
			t.Fatalf("vectored write = (%d, %v), want the bound's %d bytes and an error", n, err, 1<<20)
		}
	})
}

// buffersWriter is the memory fabric's vectored write.
type buffersWriter interface {
	WriteBuffers(bufs [][]byte) (int, error)
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
		{"mem", func(t *testing.T) (net.Conn, net.Conn) { return dialPair(t, emunet.NewMemNetwork(nil), 1, 2) }},
		{"mem-shaped", func(t *testing.T) (net.Conn, net.Conn) { return dialPair(t, emunet.NewMemNetwork(shaped()), 1, 2) }},
		{"tcp-shaped", func(t *testing.T) (net.Conn, net.Conn) { return dialPair(t, emunet.NewTCPNetwork(shaped()), 1, 2) }},
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

// TestTryWriteBuffersOnlyWhileNoFaultIsEngaged: the memory fabric takes a
// try-write while no fault holds the direction, whatever holds the other
// one, and refuses it, writing nothing, under a cut, a spike or a pace,
// whichever end of the connection writes, and once severed.
func TestTryWriteBuffersOnlyWhileNoFaultIsEngaged(t *testing.T) {
	type tryWriter interface{ TryWriteBuffers(bufs [][]byte) bool }
	for _, d := range dialers {
		t.Run(d.name, func(t *testing.T) {
			in, one, two := faulted(t, nil, d.node)
			c := one.(tryWriter)
			var sent []byte
			try := func(want bool, when string) {
				t.Helper()
				p := []byte(when)
				if got := c.TryWriteBuffers([][]byte{p}); got != want {
					t.Fatalf("%s: try-write returned %v, want %v", when, got, want)
				}
				if want {
					sent = append(sent, p...)
				}
			}
			const spike = time.Second
			try(true, "no fault")
			in.CutLink(2, 1)
			try(true, "the other direction cut")
			in.HealLink(2, 1)
			in.CutLink(1, 2)
			try(false, "cut")
			in.HealLink(1, 2)
			try(true, "healed")
			in.Spike(1, 2, spike)
			try(false, "spiked")
			in.ClearSpike(1, 2, spike)
			try(true, "spike cleared")
			in.SlowReceiver(1, 2, time.Millisecond)
			try(false, "paced")
			in.ClearSlowReceiver(1, 2, time.Millisecond)
			try(true, "pace cleared")
			readAll(t, two, sent)
			in.Sever(1, 2)
			try(false, "severed")
		})
	}
}
