package emunet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

func testFabrics(t *testing.T, matrix *Matrix, fn func(t *testing.T, n Network)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		n := NewMemNetwork(matrix)
		defer n.Close()
		n.Seed(fabricTestSeed)
		fn(t, n)
	})
	t.Run("tcp", func(t *testing.T) {
		n := NewTCPNetwork(matrix)
		defer n.Close()
		n.Seed(fabricTestSeed)
		fn(t, n)
	})
}

func TestDialAndEcho(t *testing.T) {
	testFabrics(t, nil, func(t *testing.T, n Network) {
		l, err := n.Listen(2)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			conn, err := l.Accept()
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			buf := make([]byte, 5)
			if _, err := io.ReadFull(conn, buf); err != nil {
				done <- err
				return
			}
			_, err = conn.Write(bytes.ToUpper(buf))
			done <- err
		}()

		conn, err := n.Dial(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "HELLO" {
			t.Fatalf("echo = %q", buf)
		}
		if err := <-done; err != nil {
			t.Fatalf("server: %v", err)
		}
	})
}

func TestDialNoListener(t *testing.T) {
	testFabrics(t, nil, func(t *testing.T, n Network) {
		if _, err := n.Dial(1, 3); !errors.Is(err, ErrNoListener) {
			t.Fatalf("err = %v, want ErrNoListener", err)
		}
	})
}

func TestDuplicateListen(t *testing.T) {
	testFabrics(t, nil, func(t *testing.T, n Network) {
		if _, err := n.Listen(1); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Listen(1); !errors.Is(err, ErrDupListen) {
			t.Fatalf("err = %v, want ErrDupListen", err)
		}
	})
}

func TestClosedNetworkRejectsEverything(t *testing.T) {
	n := NewMemNetwork(nil)
	_ = n.Close()
	if _, err := n.Listen(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Listen err = %v", err)
	}
	if _, err := n.Dial(1, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Dial err = %v", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	matrix := NewMatrix()
	matrix.SetSymmetric(1, 2, Link{OneWayLatency: 30 * time.Millisecond})
	testFabrics(t, matrix, func(t *testing.T, n Network) {
		l, err := n.Listen(2)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 1)
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			_, _ = conn.Write(buf)
		}()
		conn, err := n.Dial(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := conn.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		rtt := time.Since(start)
		if rtt < 60*time.Millisecond {
			t.Fatalf("seed %d: RTT %v below the injected 60ms", fabricTestSeed, rtt)
		}
		if rtt > 120*time.Millisecond {
			t.Fatalf("seed %d: RTT %v wildly above the injected 60ms", fabricTestSeed, rtt)
		}
	})
}

func TestBandwidthThrottling(t *testing.T) {
	matrix := NewMatrix()
	// 8 Mbit/s: 1 MB should take ≈ 1 second one way.
	matrix.SetSymmetric(1, 2, Link{BandwidthBps: Mbps(8)})
	n := NewMemNetwork(matrix)
	defer n.Close()
	n.Seed(fabricTestSeed)

	l, err := n.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	const total = 1 << 20
	received := make(chan time.Duration, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		start := time.Now()
		if _, err := io.CopyN(io.Discard, conn, total); err != nil {
			return
		}
		received <- time.Since(start)
	}()

	conn, err := n.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 64<<10)
	for sent := 0; sent < total; sent += len(payload) {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-received:
		if d < 700*time.Millisecond || d > 1600*time.Millisecond {
			t.Fatalf("seed %d: 1MB at 8Mbit/s took %v, want ≈1s", fabricTestSeed, d)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("seed %d: transfer never completed", fabricTestSeed)
	}
}

func TestFIFOUnderConcurrencyAndShaping(t *testing.T) {
	matrix := NewMatrix()
	matrix.SetSymmetric(1, 2, Link{OneWayLatency: 2 * time.Millisecond, BandwidthBps: Mbps(200), Jitter: time.Millisecond})
	n := NewMemNetwork(matrix)
	defer n.Close()
	n.Seed(fabricTestSeed)
	l, err := n.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	const count = 2000
	errc := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 4)
		for i := 0; i < count; i++ {
			if _, err := io.ReadFull(conn, buf); err != nil {
				errc <- fmt.Errorf("read %d: %w", i, err)
				return
			}
			got := int(buf[0])<<24 | int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
			if got != i {
				errc <- fmt.Errorf("seed %d: out of order: got %d want %d", fabricTestSeed, got, i)
				return
			}
		}
		errc <- nil
	}()
	conn, err := n.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < count; i++ {
		b := []byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestShapedConnDeadlines: a shaped connection honours its deadlines on both
// fabrics, as link.dial's handshake deadline assumes. A Read with nobody
// writing and a Write on a full direction return os.ErrDeadlineExceeded.
func TestShapedConnDeadlines(t *testing.T) {
	matrix := NewMatrix()
	matrix.SetSymmetric(1, 2, Link{OneWayLatency: 5 * time.Millisecond, BandwidthBps: Mbps(100)})
	testFabrics(t, matrix, func(t *testing.T, n Network) {
		l, err := n.Listen(2)
		if err != nil {
			t.Fatal(err)
		}
		accepted := make(chan net.Conn, 1)
		go func() {
			if c, err := l.Accept(); err == nil {
				accepted <- c
			}
		}()
		conn, err := n.Dial(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		peer := <-accepted // neither reads nor writes
		defer peer.Close()

		if err := conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		r := async(func() (int, error) { return conn.Read(make([]byte, 1)) })
		if got := returns(t, r, "Read with nobody writing past its deadline"); !errors.Is(got.err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read = (%d, %v), want os.ErrDeadlineExceeded", got.n, got.err)
		}
		// More than the direction holds, in flight and unread, and more than
		// 100 Mbit/s drains into a socket before the deadline.
		if err := conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		w := async(func() (int, error) { return conn.Write(make([]byte, 4*shaperQueueBytes)) })
		if got := returns(t, w, "Write on a full direction past its deadline"); !errors.Is(got.err, os.ErrDeadlineExceeded) {
			t.Fatalf("Write = (%d, %v), want os.ErrDeadlineExceeded", got.n, got.err)
		}
	})
}

// TestShapedMemDialStartsNoGoroutine: a shaped direction of the memory
// fabric is one queue with its schedule, so dialing starts no relay.
func TestShapedMemDialStartsNoGoroutine(t *testing.T) {
	n := NewMemNetwork(EC2Matrix())
	defer n.Close()
	l, err := n.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	const dials = 16
	accepted := make(chan net.Conn, dials)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	before := runtime.NumGoroutine()
	for i := 0; i < dials; i++ {
		c, err := n.Dial(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		defer (<-accepted).Close()
	}
	// Goroutines of earlier tests may end, or a stray timer callback run,
	// while this one counts; a relay per dial would add at least dials.
	if after := runtime.NumGoroutine(); after-before >= dials {
		t.Fatalf("%d shaped dials took the goroutine count from %d to %d, want no goroutine per dial", dials, before, after)
	}
}

func TestCloseUnblocksReaders(t *testing.T) {
	n := NewMemNetwork(nil)
	defer n.Close()
	l, err := n.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := n.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	serverSide := <-accepted

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Error("read returned data after close")
		}
	}()
	time.Sleep(20 * time.Millisecond)
	_ = serverSide.Close()
	_ = conn.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by close")
	}
}

func TestMatrixScaled(t *testing.T) {
	m := NewMatrix()
	m.Default = Link{OneWayLatency: 100 * time.Millisecond, BandwidthBps: Mbps(10)}
	m.Set(1, 2, Link{OneWayLatency: 50 * time.Millisecond, BandwidthBps: Mbps(100)})
	s := m.Scaled(10)
	if got := s.Get(1, 2).OneWayLatency; got != 5*time.Millisecond {
		t.Fatalf("scaled latency = %v", got)
	}
	if got := s.Get(1, 2).BandwidthBps; got != Mbps(1000) {
		t.Fatalf("scaled bandwidth = %v", got)
	}
	if got := s.Get(3, 4).OneWayLatency; got != 10*time.Millisecond {
		t.Fatalf("scaled default latency = %v", got)
	}
	// Scale ≤ 0 is identity.
	if got := m.Scaled(0).Get(1, 2); got != m.Get(1, 2) {
		t.Fatalf("Scaled(0) altered links: %+v", got)
	}
}

func TestTransmissionMath(t *testing.T) {
	l := Link{BandwidthBps: Mbps(8)} // 1 byte per microsecond
	if got := l.Transmission(1000); got != time.Millisecond {
		t.Fatalf("Transmission(1000) = %v, want 1ms", got)
	}
	if got := (Link{}).Transmission(1 << 30); got != 0 {
		t.Fatalf("unlimited link transmission = %v", got)
	}
	if got := l.Transmission(0); got != 0 {
		t.Fatalf("zero bytes transmission = %v", got)
	}
}

func TestCanonicalMatricesCoverAllPairs(t *testing.T) {
	for name, tc := range map[string]struct {
		m *Matrix
		n int
	}{
		"ec2":      {EC2Matrix(), 8},
		"cloudlab": {CloudLabMatrix(), 5},
	} {
		for a := 1; a <= tc.n; a++ {
			for b := 1; b <= tc.n; b++ {
				if a == b {
					continue
				}
				l := tc.m.Get(a, b)
				if l.OneWayLatency <= 0 || l.BandwidthBps <= 0 {
					t.Errorf("%s: link %d->%d unshaped: %+v", name, a, b, l)
				}
				rev := tc.m.Get(b, a)
				if rev != l {
					t.Errorf("%s: link %d<->%d asymmetric", name, a, b)
				}
			}
		}
	}
	// Spot-check Table I values.
	ec2 := EC2Matrix()
	if got := ec2.Get(1, 8); got.OneWayLatency != halfMS(53.87) || got.BandwidthBps != Mbps(44.5) {
		t.Fatalf("NCal->Ohio = %+v", got)
	}
	// Spot-check Table II values.
	cl := CloudLabMatrix()
	if got := cl.Get(1, 3); got.OneWayLatency != halfMS(35.612) || got.BandwidthBps != Mbps(361.82) {
		t.Fatalf("Utah1->Wisconsin = %+v", got)
	}
}
