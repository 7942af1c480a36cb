package emunet

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// fabricTestSeed pins every seeded-fabric test in this package; failure
// messages carry it so a flake reproduces with the exact same randomness.
const fabricTestSeed int64 = 1

// TestJitterSequenceIsSeedPinned checks the shaper's randomness contract
// at the schedule level, where it is timing-free: the same seed must yield
// the identical jitter sequence, a different seed a different one, and
// every draw must stay inside [0, Jitter).
func TestJitterSequenceIsSeedPinned(t *testing.T) {
	link := Link{OneWayLatency: time.Millisecond, Jitter: 5 * time.Millisecond}
	draw := func(seed int64, n int) []time.Duration {
		s := newSchedule(link, rand.New(rand.NewSource(seed)))
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = s.jitter()
		}
		return out
	}
	const n = 256
	a, b := draw(fabricTestSeed, n), draw(fabricTestSeed, n)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d: jitter draw %d differs across replays: %v vs %v", fabricTestSeed, i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= link.Jitter {
			t.Fatalf("seed %d: jitter draw %d = %v outside [0, %v)", fabricTestSeed, i, a[i], link.Jitter)
		}
	}
	for i, v := range draw(fabricTestSeed+1, n) {
		if v != a[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatalf("seeds %d and %d produced identical %d-draw jitter sequences", fabricTestSeed, fabricTestSeed+1, n)
	}
}

// TestJitterZeroWithoutSource: bare Shape has no random source, so a
// jittered link profile must degrade to pure latency, not panic or hang.
func TestJitterZeroWithoutSource(t *testing.T) {
	link := Link{Jitter: 5 * time.Millisecond}
	s := newSchedule(link, nil)
	for i := 0; i < 16; i++ {
		if j := s.jitter(); j != 0 {
			t.Fatalf("sourceless schedule drew jitter %v, want 0", j)
		}
	}
}

// TestJitterSourcesFollowTheDialOrder pins where a seeded fabric's jitter
// comes from: every dial, shaped or not, takes one child of the fabric's
// source, and a shaped dial draws its forward source from that child, then
// its reverse one. A seed then replays each direction's draws.
func TestJitterSourcesFollowTheDialOrder(t *testing.T) {
	jittered := Link{OneWayLatency: time.Millisecond, Jitter: 5 * time.Millisecond}
	matrix := NewMatrix() // 1 ↔ 3 stays unshaped
	matrix.SetSymmetric(1, 2, jittered)
	matrix.SetSymmetric(1, 4, jittered)
	n := NewMemNetwork(matrix)
	defer n.Close()
	n.Seed(fabricTestSeed)
	for _, node := range []int{2, 3, 4} {
		l, err := n.Listen(node)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				_ = c.Close()
			}
		}()
	}
	master := rand.New(rand.NewSource(fabricTestSeed))
	for _, to := range []int{2, 3, 4} {
		conn, err := n.Dial(1, to)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		child := rand.New(rand.NewSource(master.Int63()))
		c := conn.(*memConn)
		if to == 3 {
			if c.out.s != nil || c.in.s != nil {
				t.Fatalf("the unshaped dial 1 -> 3 got a schedule")
			}
			continue
		}
		for _, dir := range []struct {
			name string
			s    *schedule
		}{{"forward", c.out.s}, {"reverse", c.in.s}} {
			want := rand.New(rand.NewSource(child.Int63()))
			for i := 0; i < 8; i++ {
				if got, w := dir.s.jitter(), time.Duration(want.Int63n(int64(jittered.Jitter))); got != w {
					t.Fatalf("seed %d, dial 1 -> %d: %s draw %d = %v, want %v", fabricTestSeed, to, dir.name, i, got, w)
				}
			}
		}
	}
}

// TestJitteredLinkPreservesFIFOAndBounds runs real traffic over a seeded
// jittered link: order must hold and the observed one-way time must stay
// within the profile (plus scheduling slack).
func TestJitteredLinkPreservesFIFOAndBounds(t *testing.T) {
	const (
		latency = 10 * time.Millisecond
		jitter  = 10 * time.Millisecond
	)
	matrix := NewMatrix()
	matrix.SetSymmetric(1, 2, Link{OneWayLatency: latency, Jitter: jitter})
	n := NewMemNetwork(matrix)
	defer n.Close()
	n.Seed(fabricTestSeed)

	l, err := n.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	type arrival struct {
		b  byte
		at time.Duration
	}
	const count = 32
	got := make(chan arrival, count)
	var start time.Time
	var startMu sync.Mutex
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1)
		for i := 0; i < count; i++ {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			startMu.Lock()
			at := time.Since(start)
			startMu.Unlock()
			got <- arrival{buf[0], at}
		}
	}()

	conn, err := n.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	startMu.Lock()
	start = time.Now()
	startMu.Unlock()
	for i := 0; i < count; i++ {
		if _, err := conn.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		// Space the writes out so each is its own shaped chunk with an
		// independent jitter draw.
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < count; i++ {
		select {
		case a := <-got:
			if a.b != byte(i) {
				t.Fatalf("seed %d: FIFO violated under jitter: got byte %d at position %d", fabricTestSeed, a.b, i)
			}
			// Writes are ~1ms apart; byte i left no earlier than i·1ms.
			minAt := time.Duration(i)*time.Millisecond + latency
			maxAt := time.Duration(i+8)*time.Millisecond + latency + jitter + 100*time.Millisecond
			if a.at < minAt {
				t.Fatalf("seed %d: byte %d arrived at %v, before minimum latency %v", fabricTestSeed, i, a.at, minAt)
			}
			if a.at > maxAt {
				t.Fatalf("seed %d: byte %d arrived at %v, far beyond latency+jitter bound %v", fabricTestSeed, i, a.at, maxAt)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("seed %d: byte %d never arrived", fabricTestSeed, i)
		}
	}
}

// TestConnHook covers the dial-path hook on both fabrics: a wrapping hook
// sees the right endpoints and its wrapper carries the traffic; a
// rejecting hook fails the dial with the hook's error.
func TestConnHook(t *testing.T) {
	errVetoed := errors.New("vetoed")
	testFabrics(t, nil, func(t *testing.T, n Network) {
		type hooked interface {
			SetConnHook(ConnHook)
		}
		var (
			mu    sync.Mutex
			calls [][2]int
		)
		n.(hooked).SetConnHook(func(from, to int, conn net.Conn) (net.Conn, error) {
			mu.Lock()
			calls = append(calls, [2]int{from, to})
			mu.Unlock()
			if to == 3 {
				return nil, errVetoed
			}
			return conn, nil
		})

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
			_, _ = io.Copy(conn, conn)
		}()
		// Node 3 listens too: the veto must come from the hook, not from a
		// missing listener.
		l3, err := n.Listen(3)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				conn, err := l3.Accept()
				if err != nil {
					return
				}
				_ = conn.Close()
			}
		}()
		conn, err := n.Dial(1, 2)
		if err != nil {
			t.Fatalf("hooked dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "ping" {
			t.Fatalf("echo through hooked conn: %q, %v", buf, err)
		}

		if _, err := n.Dial(1, 3); !errors.Is(err, errVetoed) {
			t.Fatalf("vetoed dial err = %v, want %v", err, errVetoed)
		}

		mu.Lock()
		defer mu.Unlock()
		want := [][2]int{{1, 2}, {1, 3}}
		if len(calls) != len(want) || calls[0] != want[0] || calls[1] != want[1] {
			t.Fatalf("hook calls = %v, want %v", calls, want)
		}
	})
}
