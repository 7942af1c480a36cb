package emunet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

// parked is how long a call must stay blocked before a test believes it is
// parked; a too-short value can only let a broken implementation pass, never
// fail a working one.
const parked = 20 * time.Millisecond

// result is what one Read or Write returned.
type result struct {
	n   int
	err error
}

// async runs one call on its own goroutine and hands back its result.
func async(call func() (int, error)) <-chan result {
	ch := make(chan result, 1)
	go func() {
		n, err := call()
		ch <- result{n, err}
	}()
	return ch
}

// stillParked fails the test if the call behind ch has already returned.
func stillParked(t *testing.T, ch <-chan result, what string) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("%s returned (%d, %v), want it parked", what, r.n, r.err)
	case <-time.After(parked):
	}
}

// returns waits for the call behind ch.
func returns(t *testing.T, ch <-chan result, what string) result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still parked", what)
		return result{}
	}
}

// pattern fills a buffer with bytes that make a reordering or a repeat show.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// pairKind is one kind of connection memConn's contract holds for, with the
// bytes one direction of it holds before Write blocks.
type pairKind struct {
	name  string
	link  Link
	bound int
}

// pairKinds are an unshaped pair and one shaped both ways by a link long
// enough that bytes are still in flight when a test looks.
var pairKinds = []pairKind{
	{"unshaped", Link{}, memConnBytes},
	{"shaped", Link{OneWayLatency: 30 * time.Millisecond, BandwidthBps: Mbps(1000), Jitter: 5 * time.Millisecond}, shaperQueueBytes},
}

func (k pairKind) pair() (a, b *memConn) {
	fwd, rev := schedules(k.link, k.link, rand.New(rand.NewSource(fabricTestSeed)))
	return newMemConnPair(1, 2, fwd, rev)
}

// forEachPair runs fn once per pairKind, as a subtest named after it.
func forEachPair(t *testing.T, fn func(t *testing.T, k pairKind)) {
	t.Helper()
	for _, k := range pairKinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

// TestMemConnFIFO is contract (a): bytes arrive in order across arbitrary
// write and read sizes, reads that end inside a slice or span many included,
// and a single Write larger than the bound proceeds in pieces against a slow
// reader.
func TestMemConnFIFO(t *testing.T) {
	t.Run("random-sizes", func(t *testing.T) {
		forEachPair(t, func(t *testing.T, kind pairKind) {
			a, b := kind.pair()
			defer a.Close()
			defer b.Close()
			want := pattern(3*kind.bound + 12345)
			go func() {
				rng := rand.New(rand.NewSource(fabricTestSeed))
				for p := want; len(p) > 0; {
					k := min(len(p), 1+rng.Intn(100_000))
					if n, err := a.Write(p[:k]); n != k || err != nil {
						t.Errorf("Write = (%d, %v), want (%d, nil)", n, err, k)
						return
					}
					p = p[k:]
				}
			}()
			rng := rand.New(rand.NewSource(fabricTestSeed + 1))
			got := make([]byte, 0, len(want))
			buf := make([]byte, 70_000)
			for len(got) < len(want) {
				n, err := b.Read(buf[:1+rng.Intn(len(buf))])
				if err != nil {
					t.Fatalf("Read after %d bytes: %v", len(got), err)
				}
				got = append(got, buf[:n]...)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("bytes arrived out of order")
			}
		})
	})
	t.Run("one-write-over-the-bound", func(t *testing.T) {
		forEachPair(t, func(t *testing.T, kind pairKind) {
			a, b := kind.pair()
			defer a.Close()
			defer b.Close()
			want := pattern(2*kind.bound + 999)
			w := async(func() (int, error) { return a.Write(want) })
			stillParked(t, w, "Write of twice the bound with no reader")
			got := make([]byte, 0, len(want))
			buf := make([]byte, 64<<10)
			for len(got) < len(want) {
				n, err := b.Read(buf)
				if err != nil {
					t.Fatalf("Read after %d bytes: %v", len(got), err)
				}
				got = append(got, buf[:n]...)
				if len(got) < 1<<20 {
					time.Sleep(time.Millisecond) // a slow reader, for a while
				}
			}
			if r := returns(t, w, "Write"); r.n != len(want) || r.err != nil {
				t.Fatalf("Write = (%d, %v), want (%d, nil)", r.n, r.err, len(want))
			}
			if !bytes.Equal(got, want) {
				t.Fatal("bytes arrived out of order")
			}
		})
	})
}

// TestMemConnWriteNeedsNoReader is contract (b), the property net.Pipe
// lacks: Write returns with no reader present until the direction holds the
// bound, the next Write parks, and one Read releases it. It also pins memory
// on demand: a connection that has carried nothing holds no slice.
func TestMemConnWriteNeedsNoReader(t *testing.T) {
	n := NewMemNetwork(nil)
	defer n.Close()
	l, err := n.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	dialed, err := n.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	a := dialed.(*memConn)
	b := (<-accepted).(*memConn)
	defer b.Close()
	if a.out.bufs != nil || a.in.bufs != nil {
		t.Fatalf("an idle connection holds %d + %d slices, want none", len(a.out.bufs), len(a.in.bufs))
	}

	chunk := pattern(memConnBytes / 8)
	for i := 0; i < 8; i++ { // nobody is reading b
		if k, err := a.Write(chunk); k != len(chunk) || err != nil {
			t.Fatalf("Write %d below the bound = (%d, %v)", i, k, err)
		}
	}
	if a.in.bufs != nil {
		t.Fatalf("the direction that carried nothing holds %d slices", len(a.in.bufs))
	}
	w := async(func() (int, error) { return a.Write([]byte("x")) })
	stillParked(t, w, "Write at the bound")
	one := make([]byte, 1)
	if k, err := b.Read(one); k != 1 || err != nil || one[0] != chunk[0] {
		t.Fatalf("Read = (%d, %v) %q", k, err, one)
	}
	if r := returns(t, w, "Write after one Read"); r.n != 1 || r.err != nil {
		t.Fatalf("released Write = (%d, %v)", r.n, r.err)
	}
}

// TestMemConnClose is contract (c). On a shaped pair, bytes still in flight
// when their writer closes arrive at their times, before io.EOF, and the
// reading end's Close stops the arrival timer.
func TestMemConnClose(t *testing.T) {
	t.Run("writer-closes", func(t *testing.T) {
		forEachPair(t, func(t *testing.T, kind pairKind) {
			a, b := kind.pair()
			defer b.Close()
			start := time.Now()
			if _, err := a.Write([]byte("last words")); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(b) // the buffered bytes, then io.EOF
			if err != nil || string(got) != "last words" {
				t.Fatalf("peer read %q, %v after close; want the buffered bytes and EOF", got, err)
			}
			if took := time.Since(start); took < kind.link.OneWayLatency {
				t.Fatalf("bytes in flight arrived after %v, before the link's %v", took, kind.link.OneWayLatency)
			}
			if _, err := b.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("Read past the end = %v, want io.EOF", err)
			}
			if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("Write to a closed peer = %v, want io.ErrClosedPipe", err)
			}
		})
	})
	t.Run("reader-closes", func(t *testing.T) {
		forEachPair(t, func(t *testing.T, kind pairKind) {
			a, b := kind.pair()
			defer a.Close()
			if _, err := a.Write(make([]byte, kind.bound)); err != nil {
				t.Fatal(err)
			}
			w := async(func() (int, error) { return a.Write([]byte("parked")) })
			stillParked(t, w, "Write at the bound")
			_ = b.Close()
			if r := returns(t, w, "parked Write after the reader closed"); !errors.Is(r.err, io.ErrClosedPipe) {
				t.Fatalf("parked Write = (%d, %v), want io.ErrClosedPipe", r.n, r.err)
			}
			if _, err := a.Write([]byte("later")); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("later Write = %v, want io.ErrClosedPipe", err)
			}
			if b.in.bufs != nil || b.in.n != 0 {
				t.Fatalf("a closed reader still holds %d slices (%d bytes)", len(b.in.bufs), b.in.n)
			}
			if s := b.in.s; b.in.timer != nil || s != nil && s.units != nil {
				t.Fatal("a closed reader still holds the direction's arrivals or arrival timer")
			}
		})
	})
	t.Run("own-calls-fail", func(t *testing.T) {
		forEachPair(t, func(t *testing.T, kind pairKind) {
			a, b := kind.pair()
			defer b.Close()
			if _, err := b.Write([]byte("unread")); err != nil {
				t.Fatal(err)
			}
			r := async(func() (int, error) { return b.Read(make([]byte, 1)) })
			stillParked(t, r, "Read of an empty direction")
			_ = b.Close()
			if got := returns(t, r, "parked Read after own Close"); !errors.Is(got.err, net.ErrClosed) {
				t.Fatalf("parked Read = %v, want net.ErrClosed", got.err)
			}
			_ = a.Close()
			if _, err := a.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("own Read after Close = %v, want net.ErrClosed (even with bytes buffered)", err)
			}
			if _, err := a.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("own Write after Close = %v, want net.ErrClosed", err)
			}
			if err := a.Close(); err != nil {
				t.Fatalf("second Close = %v", err)
			}
		})
	})
	// link.close() and the drain goroutine close the dialed end while the
	// stream goroutine writes it; serveIncoming and Transport.Close close the
	// accepted end while it reads and echoes. All of it at once, under -race.
	t.Run("concurrent", func(t *testing.T) {
		forEachPair(t, func(t *testing.T, kind pairKind) {
			a, b := kind.pair()
			var wg sync.WaitGroup
			for _, c := range []*memConn{a, b} {
				wg.Add(4)
				go func() {
					defer wg.Done()
					for p := make([]byte, 3000); ; {
						if _, err := c.Write(p); err != nil {
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for p := make([]byte, 1000); ; {
						if _, err := c.Read(p); err != nil {
							return
						}
					}
				}()
				for i := 0; i < 2; i++ {
					go func() {
						defer wg.Done()
						time.Sleep(time.Millisecond)
						_ = c.SetDeadline(time.Now().Add(time.Hour))
						_ = c.Close()
					}()
				}
			}
			wg.Wait()
		})
	})
}

// TestMemConnDeadlines is contract (d).
func TestMemConnDeadlines(t *testing.T) {
	forEachPair(t, func(t *testing.T, kind pairKind) {
		a, b := kind.pair()
		defer b.Close()

		// A parked Read is released by a deadline set after it parked.
		r := async(func() (int, error) { return a.Read(make([]byte, 1)) })
		stillParked(t, r, "Read of an empty direction")
		if err := a.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if got := returns(t, r, "Read past its deadline"); !errors.Is(got.err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read = %v, want os.ErrDeadlineExceeded", got.err)
		}
		// An expired deadline keeps failing calls; the zero time clears it.
		if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read after expiry = %v, want os.ErrDeadlineExceeded", err)
		}
		if _, err := a.Write([]byte("w")); err != nil {
			t.Fatalf("a read deadline failed a Write: %v", err)
		}
		if err := a.SetReadDeadline(time.Time{}); err != nil {
			t.Fatal(err)
		}
		r = async(func() (int, error) { return a.Read(make([]byte, 1)) })
		stillParked(t, r, "Read after the deadline was cleared")
		if _, err := b.Write([]byte("r")); err != nil {
			t.Fatal(err)
		}
		if got := returns(t, r, "Read"); got.n != 1 || got.err != nil {
			t.Fatalf("Read = (%d, %v)", got.n, got.err)
		}

		// A parked Write is released by SetWriteDeadline, and by SetDeadline
		// with a time already past.
		if _, err := a.Write(make([]byte, kind.bound-1)); err != nil {
			t.Fatal(err)
		}
		w := async(func() (int, error) { return a.Write([]byte("parked")) })
		stillParked(t, w, "Write at the bound")
		if err := a.SetWriteDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if got := returns(t, w, "Write past its deadline"); !errors.Is(got.err, os.ErrDeadlineExceeded) {
			t.Fatalf("Write = %v, want os.ErrDeadlineExceeded", got.err)
		}
		if err := a.SetDeadline(time.Time{}); err != nil {
			t.Fatal(err)
		}
		w = async(func() (int, error) { return a.Write([]byte("parked")) })
		stillParked(t, w, "Write after the deadline was cleared")
		if err := a.SetDeadline(time.Now().Add(-time.Second)); err != nil {
			t.Fatal(err)
		}
		if got := returns(t, w, "Write with a deadline in the past"); !errors.Is(got.err, os.ErrDeadlineExceeded) {
			t.Fatalf("Write = %v, want os.ErrDeadlineExceeded", got.err)
		}
		var ne net.Error
		if _, err := a.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Read with a deadline in the past = %v, want a net.Error timeout", err)
		}

		// No timer outlives Close, and a closed end arms no new one: not the
		// deadlines, and not the arrival timer of bytes still in flight.
		if err := a.SetDeadline(time.Now().Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Write([]byte("in flight")); err != nil {
			t.Fatal(err)
		}
		_ = a.Close()
		if err := a.SetDeadline(time.Now().Add(time.Hour)); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("SetDeadline after Close = %v, want net.ErrClosed", err)
		}
		if a.in.r.timer != nil || a.out.w.timer != nil {
			t.Error("a deadline timer outlived Close")
		}
		if a.in.timer != nil {
			t.Error("the arrival timer outlived Close")
		}
	})
}

// vector cuts pattern(total) into buffers of the given sizes, so the
// concatenation of any vector it returns is pattern of its total size.
func vector(sizes ...int) [][]byte {
	total := 0
	for _, n := range sizes {
		total += n
	}
	p := pattern(total)
	bufs := make([][]byte, len(sizes))
	for i, n := range sizes {
		bufs[i], p = p[:n:n], p[n:]
	}
	return bufs
}

// writeVector returns a call that writes bufs to c as one WriteBuffers, or
// as one Write of their concatenation.
func writeVector(c *memConn, vectored bool, bufs [][]byte) func() (int, error) {
	if vectored {
		return func() (int, error) { return c.WriteBuffers(bufs) }
	}
	joined := bytes.Join(bufs, nil)
	return func() (int, error) { return c.Write(joined) }
}

// fills waits until q holds n bytes: a write over the bound has copied what
// fits and is parked for room (or about to park, which is the same to a
// caller that only looks at what the write returns).
func fills(t *testing.T, q *memQueue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		held := q.n
		q.mu.Unlock()
		if held == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the direction holds %d bytes, want %d", held, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// unitSizes returns the sizes of the units the direction's schedule has
// stamped and no read has yet seen arrive; nil on an unshaped direction.
func unitSizes(q *memQueue) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.s == nil {
		return nil
	}
	var sizes []int
	for _, u := range q.s.units[q.s.head:] {
		sizes = append(sizes, u.n)
	}
	return sizes
}

// TestMemConnWriteBuffers pins that a vectored write is a Write of the
// concatenation: the same bytes in the same order, the same units on a
// shaped direction's schedule (at most maxChunk of the concatenation each,
// wherever the buffers are cut), the same bound, and the same partial count
// and error when the write is stopped half way through the vector.
func TestMemConnWriteBuffers(t *testing.T) {
	cases := []struct {
		name string
		// prime is written and then partly read before the vector, which
		// queues behind the partly read slice; the bytes left unread come out
		// ahead of it.
		prime, primeRead int
		sizes            []int
		units            []int // the vector's units on a shaped direction
	}{
		{name: "behind-a-partly-read-slice", prime: 400, primeRead: 300, sizes: []int{50, 100, 150}, units: []int{300}},
		{name: "units-across-buffers", sizes: []int{40_000, 50_000, 60_000}, units: []int{maxChunk, maxChunk, 150_000 - 2*maxChunk}},
		{name: "unit-boundary-between-buffers", sizes: []int{maxChunk, 1, maxChunk - 1, 10}, units: []int{maxChunk, maxChunk, 10}},
		{name: "zero-length-buffers", sizes: []int{0, 10, 0, 0, 20, 0}, units: []int{30}},
		{name: "only-empty-buffers", sizes: []int{0, 0}},
		{name: "no-buffers"},
	}
	forEachPair(t, func(t *testing.T, kind pairKind) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				var got [2][]byte
				var units [2][]int
				for i, vectored := range []bool{false, true} {
					a, b := kind.pair()
					defer a.Close()
					defer b.Close()
					if tc.prime > 0 {
						if _, err := a.Write(bytes.Repeat([]byte{0xEE}, tc.prime)); err != nil {
							t.Fatal(err)
						}
						if _, err := io.ReadFull(b, make([]byte, tc.primeRead)); err != nil {
							t.Fatal(err)
						}
					}
					before := len(unitSizes(a.out))
					bufs := vector(tc.sizes...)
					want := len(bytes.Join(bufs, nil))
					if tc.prime > 0 && (a.out.off != tc.primeRead || len(a.out.bufs)-a.out.head != 1) {
						t.Fatalf("the prime is not one partly read slice (%d slices, %d read of the first)", len(a.out.bufs)-a.out.head, a.out.off)
					}
					if n, err := writeVector(a, vectored, bufs)(); n != want || err != nil {
						t.Fatalf("vectored=%v: wrote (%d, %v), want (%d, nil)", vectored, n, err, want)
					}
					units[i] = unitSizes(a.out)[before:]
					got[i] = make([]byte, tc.prime-tc.primeRead+want)
					if _, err := io.ReadFull(b, got[i]); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got[1], got[0]) {
					t.Fatal("WriteBuffers carried other bytes than a Write of the concatenation")
				}
				if kind.link.zero() {
					return
				}
				if !slices.Equal(units[0], tc.units) {
					t.Fatalf("Write stamped units %v, want %v", units[0], tc.units)
				}
				if !slices.Equal(units[1], tc.units) {
					t.Fatalf("WriteBuffers stamped units %v, want %v (one per unit of the concatenation)", units[1], tc.units)
				}
			})
		}

		// A vector over the bound parks mid-vector and resumes as the reader
		// drains, and a Write that comes while it is parked lands behind all
		// of it, not inside it.
		t.Run("over-the-bound", func(t *testing.T) {
			a, b := kind.pair()
			defer a.Close()
			defer b.Close()
			bufs := vector(kind.bound/2, kind.bound/2+500, 7000)
			want := bytes.Join(bufs, nil)
			other := bytes.Repeat([]byte{0xEE}, 5000)
			w1 := async(func() (int, error) { return a.WriteBuffers(bufs) })
			fills(t, a.out, kind.bound)
			stillParked(t, w1, "WriteBuffers over the bound with no reader")
			w2 := async(func() (int, error) { return a.Write(other) })
			stillParked(t, w2, "Write behind a parked WriteBuffers")
			got := make([]byte, len(want)+len(other))
			if _, err := io.ReadFull(b, got); err != nil {
				t.Fatal(err)
			}
			if r := returns(t, w1, "WriteBuffers"); r.n != len(want) || r.err != nil {
				t.Fatalf("WriteBuffers = (%d, %v), want (%d, nil)", r.n, r.err, len(want))
			}
			if r := returns(t, w2, "Write"); r.n != len(other) || r.err != nil {
				t.Fatalf("Write = (%d, %v), want (%d, nil)", r.n, r.err, len(other))
			}
			if !bytes.Equal(got[:len(want)], want) || !bytes.Equal(got[len(want):], other) {
				t.Fatal("a second writer's bytes landed inside the vector")
			}
		})

		// Stopped mid-vector, WriteBuffers returns what a Write of the
		// concatenation returns: the bound, taken, and the error.
		stops := []struct {
			name string
			stop func(a, b *memConn)
			want error
		}{
			{"own-close", func(a, _ *memConn) { _ = a.Close() }, net.ErrClosed},
			{"reader-closes", func(_, b *memConn) { _ = b.Close() }, io.ErrClosedPipe},
			{"deadline", func(a, _ *memConn) { _ = a.SetWriteDeadline(time.Now().Add(10 * time.Millisecond)) }, os.ErrDeadlineExceeded},
		}
		for _, st := range stops {
			t.Run(st.name, func(t *testing.T) {
				for _, vectored := range []bool{false, true} {
					a, b := kind.pair()
					bufs := vector(kind.bound/2, kind.bound/2-1, 2, 1000)
					w := async(writeVector(a, vectored, bufs))
					fills(t, a.out, kind.bound)
					stillParked(t, w, "write over the bound with no reader")
					st.stop(a, b)
					if r := returns(t, w, "stopped write"); r.n != kind.bound || !errors.Is(r.err, st.want) {
						t.Fatalf("vectored=%v: stopped write = (%d, %v), want (%d, %v)", vectored, r.n, r.err, kind.bound, st.want)
					}
					_ = a.Close()
					_ = b.Close()
				}
			})
		}
	})
}

// held returns the slices q holds, the first cut past what has been read of
// it.
func held(q *memQueue) [][]byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.bufs) {
		return nil
	}
	h := slices.Clone(q.bufs[q.head:])
	h[0] = h[0][q.off:]
	return h
}

// TestMemConnBorrowedSlices pins the FIFO of borrowed slices under a direction:
// WriteBuffers queues the caller's own buffers, a piece that starts where the
// last one ends extends it, a read copies out of them wherever its cuts fall,
// and the direction lets go of every slice once it is read, or once its
// reader closes. The slice-header array is compacted, not grown, by a stream
// that never drains to empty, plain Writes share one reused block, and a
// block they filled is taken back only once its reader has copied it empty.
func TestMemConnBorrowedSlices(t *testing.T) {
	t.Run("lends-the-buffers", func(t *testing.T) {
		a, b := newMemConnPair(1, 2, nil, nil)
		defer a.Close()
		defer b.Close()
		bufs := vector(10, 20, 30)
		if _, err := a.WriteBuffers(bufs); err != nil {
			t.Fatal(err)
		}
		h := held(a.out)
		if len(h) != len(bufs) {
			t.Fatalf("the direction holds %d slices for a vector of %d", len(h), len(bufs))
		}
		for i := range bufs {
			if &h[i][0] != &bufs[i][0] || len(h[i]) != len(bufs[i]) {
				t.Fatalf("slice %d is not the caller's buffer", i)
			}
		}
	})
	t.Run("read-ends-mid-slice", func(t *testing.T) {
		a, b := newMemConnPair(1, 2, nil, nil)
		defer a.Close()
		defer b.Close()
		bufs := vector(100, 50)
		if _, err := a.WriteBuffers(bufs); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 150)
		if n, err := b.Read(got[:30]); n != 30 || err != nil {
			t.Fatalf("Read = (%d, %v), want (30, nil)", n, err)
		}
		if h := held(a.out); len(h) != 2 || len(h[0]) != 70 {
			t.Fatalf("after 30 bytes the direction holds %d slices, the first of %d bytes; want 2, 70", len(h), len(h[0]))
		}
		if n, err := b.Read(got[30:]); n != 120 || err != nil {
			t.Fatalf("resumed Read = (%d, %v), want (120, nil)", n, err)
		}
		if !bytes.Equal(got, pattern(150)) {
			t.Fatal("a read resumed mid-slice returned other bytes")
		}
	})
	t.Run("one-read-spans-many-slices", func(t *testing.T) {
		forEachPair(t, func(t *testing.T, kind pairKind) {
			a, b := kind.pair()
			defer a.Close()
			defer b.Close()
			sizes := make([]int, 200)
			for i := range sizes {
				sizes[i] = 1 + i%13
			}
			bufs := vector(sizes...)
			want := bytes.Join(bufs, nil)
			if _, err := a.WriteBuffers(bufs); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want)+1)
			n, err := b.Read(got) // one unit on a shaped link: all arrive at once
			if n != len(want) || err != nil || !bytes.Equal(got[:n], want) {
				t.Fatalf("Read = (%d, %v), want all %d bytes of %d slices in one", n, err, len(want), len(bufs))
			}
			if h := held(a.out); h != nil {
				t.Fatalf("a drained direction holds %d slices", len(h))
			}
		})
	})
	t.Run("zero-length-buffers-queue-nothing", func(t *testing.T) {
		a, b := newMemConnPair(1, 2, nil, nil)
		defer a.Close()
		defer b.Close()
		if n, err := a.WriteBuffers([][]byte{nil, {}, make([]byte, 0, 8)}); n != 0 || err != nil {
			t.Fatalf("WriteBuffers of empty buffers = (%d, %v)", n, err)
		}
		if n, err := a.Write(nil); n != 0 || err != nil {
			t.Fatalf("Write(nil) = (%d, %v)", n, err)
		}
		if a.out.bufs != nil {
			t.Fatalf("empty writes queued %d slices", len(a.out.bufs))
		}
		if _, err := a.WriteBuffers(vector(0, 10, 0, 0)); err != nil {
			t.Fatal(err)
		}
		if h := held(a.out); len(h) != 1 || len(h[0]) != 10 {
			t.Fatalf("a vector with one non-empty buffer queued %d slices", len(h))
		}
	})
	t.Run("closed-reader-drops-every-slice", func(t *testing.T) {
		forEachPair(t, func(t *testing.T, kind pairKind) {
			a, b := kind.pair()
			defer a.Close()
			if _, err := a.WriteBuffers(vector(10, 20, 30)); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Write(pattern(40)); err != nil {
				t.Fatal(err)
			}
			_ = b.Close()
			if a.out.bufs != nil || a.out.n != 0 || a.out.head != 0 || a.out.off != 0 {
				t.Fatalf("a closed reader's direction holds %d slices, %d bytes", len(a.out.bufs), a.out.n)
			}
		})
	})
	t.Run("compacts-when-never-empty", func(t *testing.T) {
		a, b := newMemConnPair(1, 2, nil, nil)
		defer a.Close()
		defer b.Close()
		const writes = 100_000
		bufs := vector(7, 11)
		got := make([]byte, 11)
		for i := 0; i < writes; i++ {
			p := bufs[i%2]
			if _, err := a.WriteBuffers([][]byte{p}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				continue
			}
			// Read the older slice only: the reader stays one slice behind.
			prev := bufs[(i-1)%2]
			if n, err := io.ReadFull(b, got[:len(prev)]); n != len(prev) || err != nil {
				t.Fatalf("Read %d = (%d, %v)", i, n, err)
			}
			if !bytes.Equal(got[:len(prev)], prev) {
				t.Fatalf("Read %d returned other bytes", i)
			}
		}
		if h := held(a.out); len(h) != 1 {
			t.Fatalf("the direction holds %d slices, want the one unread", len(h))
		}
		if c := cap(a.out.bufs); c > 8 {
			t.Fatalf("after %d writes one slice ahead of the reader, the slice-header array has room for %d", writes, c)
		}
	})
	t.Run("adjoining-pieces-extend-one-slice", func(t *testing.T) {
		a, b := newMemConnPair(1, 2, nil, nil)
		defer a.Close()
		defer b.Close()
		for i := 0; i < 3; i++ { // copies land one after another in one block
			if _, err := a.Write(pattern(100)); err != nil {
				t.Fatal(err)
			}
		}
		if h := held(a.out); len(h) != 1 || len(h[0]) != 300 {
			t.Fatalf("three Writes into one block are held as %d slices", len(h))
		}
		if _, err := io.ReadFull(b, make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
		p := pattern(90)
		if _, err := a.WriteBuffers([][]byte{p[:30], p[30:60], p[70:]}); err != nil {
			t.Fatal(err)
		}
		if h := held(a.out); len(h) != 2 || len(h[0]) != 60 || len(h[1]) != 20 {
			t.Fatalf("lent pieces p[:30], p[30:60], p[70:] are held as %d slices, want 2 (60 and 20 bytes)", len(h))
		}
		got := make([]byte, 80)
		if _, err := io.ReadFull(b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(pattern(60), p[70:]...)) {
			t.Fatal("joined slices returned other bytes")
		}
	})
	t.Run("writes-share-a-block", func(t *testing.T) {
		a, b := newMemConnPair(1, 2, nil, nil)
		defer a.Close()
		defer b.Close()
		p, got := pattern(85), make([]byte, 85)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := a.Write(p); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(b, got); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("an 85 B Write and its Read allocate %v times, want 0 amortized", allocs)
		}
	})
	t.Run("a-block-is-reused-once-read-empty", func(t *testing.T) {
		for _, unread := range []int{0, 1} {
			a, b := newMemConnPair(1, 2, nil, nil)
			var want []byte
			write := func(n int) {
				p := pattern(n)
				if _, err := a.Write(p); err != nil {
					t.Fatal(err)
				}
				want = append(want, p...)
			}
			write(memBlockBytes) // fills the first block
			first := &held(a.out)[0][0]
			write(100) // goes to a second block, the first still unread
			if _, err := io.ReadFull(b, make([]byte, memBlockBytes-unread)); err != nil {
				t.Fatal(err)
			}
			want = want[memBlockBytes-unread:]
			write(memBlockBytes - 100) // fills the second block
			write(100)
			h := held(a.out)
			if reused := &h[len(h)-1][0] == first; reused != (unread == 0) {
				t.Fatalf("with %d byte(s) of the first block unread, the next Write was copied into it: %v", unread, reused)
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(b, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("with %d byte(s) of the first block unread, the reader got other bytes", unread)
			}
			_ = a.Close()
			_ = b.Close()
		}
	})
}

// BenchmarkMemConn prices the fabric's connection beside the net.Pipe it
// replaced, same loops: a 64 B ping-pong (two hand-offs per iteration either
// way; what differs is the cost of each) and a stream of 85 B one-way writes,
// the size of a small Data frame, against a reader that drains in bulk. Both
// reuse their buffer after every Write, so the fabric copies each Write into
// a block of its own, as a socket copies it into its buffer.
func BenchmarkMemConn(b *testing.B) {
	fabrics := []struct {
		name string
		pair func() (net.Conn, net.Conn)
	}{
		{"", func() (net.Conn, net.Conn) { x, y := newMemConnPair(1, 2, nil, nil); return x, y }},
		{"net.Pipe-", net.Pipe},
	}
	for _, f := range fabrics {
		b.Run(f.name+"pingpong-64B", func(b *testing.B) {
			x, y := f.pair()
			defer x.Close()
			defer y.Close()
			go func() {
				buf := make([]byte, 64)
				for {
					if _, err := io.ReadFull(y, buf); err != nil {
						return
					}
					if _, err := y.Write(buf); err != nil {
						return
					}
				}
			}()
			buf := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Write(buf); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(x, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(f.name+"oneway-85B", func(b *testing.B) {
			x, y := f.pair()
			defer x.Close()
			drained := make(chan error, 1)
			go func() {
				_, err := io.CopyN(io.Discard, y, int64(b.N)*85)
				drained <- err
			}()
			buf := make([]byte, 85)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Write(buf); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-drained; err != nil {
				b.Fatal(err)
			}
		})
	}
	// One 64 KiB flush of eight 8 KiB frames, the large stream's shape: handed
	// over as the frames, which the direction borrows until the reader copies
	// them out, and gathered into one buffer first, as a link did before
	// connections took buffers, and written, which the direction copies.
	const frames, frameSize = 8, 8 << 10
	bufs := vector(frameSize, frameSize, frameSize, frameSize, frameSize, frameSize, frameSize, frameSize)
	flush := map[string]func(c net.Conn, joined []byte) ([]byte, error){
		"buffers": func(c net.Conn, joined []byte) ([]byte, error) {
			_, err := c.(*memConn).WriteBuffers(bufs)
			return joined, err
		},
		"gather": func(c net.Conn, joined []byte) ([]byte, error) {
			joined = joined[:0]
			for _, p := range bufs {
				joined = append(joined, p...)
			}
			_, err := c.Write(joined)
			return joined, err
		},
	}
	for _, how := range []string{"buffers", "gather"} {
		b.Run(how+"-8x8KiB", func(b *testing.B) {
			x, y := newMemConnPair(1, 2, nil, nil)
			defer x.Close()
			drained := make(chan error, 1)
			go func() {
				_, err := io.CopyN(io.Discard, y, int64(b.N)*frames*frameSize)
				drained <- err
			}()
			joined := make([]byte, 0, frames*frameSize)
			b.SetBytes(frames * frameSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if joined, err = flush[how](x, joined); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-drained; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestMemConnTryWriteBuffers pins the try-write: on an unshaped direction it
// is a WriteBuffers of the whole vector when that fits under the bound now,
// and otherwise it takes none of it and returns at once: at the bound, while
// another write holds the direction, and after either end closes. A shaped
// direction always refuses, even an empty vector.
func TestMemConnTryWriteBuffers(t *testing.T) {
	t.Run("takes-the-vector", func(t *testing.T) {
		a, b := pairKinds[0].pair()
		defer a.Close()
		defer b.Close()
		if !a.TryWriteBuffers(nil) {
			t.Fatal("an unshaped direction refused an empty try-write")
		}
		bufs := vector(100, 0, 300)
		if !a.TryWriteBuffers(bufs) {
			t.Fatal("an empty unshaped direction refused a 400-byte try-write")
		}
		if got := held(a.out); len(got) != 2 || &got[0][0] != &bufs[0][0] || &got[1][0] != &bufs[2][0] {
			t.Fatal("the try-write copied the vector instead of borrowing it")
		}
		got := make([]byte, 400)
		if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, bytes.Join(bufs, nil)) {
			t.Fatalf("the peer read other bytes than the vector's concatenation (%v)", err)
		}
	})
	t.Run("all-or-nothing-at-the-bound", func(t *testing.T) {
		a, b := pairKinds[0].pair()
		defer a.Close()
		defer b.Close()
		if _, err := a.Write(pattern(memConnBytes - 100)); err != nil {
			t.Fatal(err)
		}
		if a.TryWriteBuffers(vector(60, 41)) {
			t.Fatal("a try-write over the bound by one byte was taken")
		}
		fills(t, a.out, memConnBytes-100)
		if !a.TryWriteBuffers(vector(60, 40)) {
			t.Fatal("a try-write that fills the direction exactly was refused")
		}
		fills(t, a.out, memConnBytes)
	})
	t.Run("beside-a-write-parked-for-room", func(t *testing.T) {
		a, b := pairKinds[0].pair()
		defer a.Close()
		defer b.Close()
		w := async(func() (int, error) { return a.Write(pattern(memConnBytes + 10)) })
		fills(t, a.out, memConnBytes)
		stillParked(t, w, "the write over the bound")
		// The parked write holds the direction: the try-write returns at
		// once, and does not queue behind it.
		try := async(func() (int, error) {
			if a.TryWriteBuffers(vector(10)) {
				return 10, nil
			}
			return 0, nil
		})
		if r := returns(t, try, "the try-write"); r.n != 0 {
			t.Fatal("a try-write was taken while another write held the direction")
		}
		if _, err := io.Copy(io.Discard, io.LimitReader(b, memConnBytes+10)); err != nil {
			t.Fatal(err)
		}
		if r := returns(t, w, "the write over the bound"); r.err != nil {
			t.Fatal(r.err)
		}
	})
	t.Run("closed", func(t *testing.T) {
		a, b := pairKinds[0].pair()
		_ = b.Close()
		if a.TryWriteBuffers(vector(10)) {
			t.Fatal("a try-write was taken after the peer closed")
		}
		_ = a.Close()
		if a.TryWriteBuffers(vector(10)) {
			t.Fatal("a try-write was taken after its own end closed")
		}
	})
	t.Run("shaped", func(t *testing.T) {
		a, b := pairKinds[1].pair()
		defer a.Close()
		defer b.Close()
		if a.TryWriteBuffers(vector(10)) || a.TryWriteBuffers(nil) {
			t.Fatal("a shaped direction took a try-write")
		}
		if got := unitSizes(a.out); len(got) != 0 {
			t.Fatalf("a refused try-write stamped units %v", got)
		}
	})
}
