package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/wire"
)

// adjoining reports whether b starts where a ends, inside a's capacity: the
// test the memory fabric's queue makes before it extends the slice it holds
// by the next piece it is handed.
func adjoining(a, b []byte) bool {
	return len(b) > 0 && len(b) <= cap(a)-len(a) && &a[:len(a)+1][len(a)] == &b[0]
}

// framePayload is the payload a test appends as message i of producer g:
// its size and every byte follow from (g, i), so a frame that shares bytes
// with another decodes to something else.
func framePayload(g, i, size int) []byte {
	p := make([]byte, size)
	for j := range p {
		p[j] = byte(g*131 + i*31 + j*7)
	}
	return p
}

// decodedPayload decodes e's frame, failing the test unless it is exactly
// one Data frame carrying e's sequence.
func decodedPayload(t *testing.T, e LogEntry) []byte {
	t.Helper()
	var d wire.Data
	if n := wire.DecodeDataFrame(e.Frame, &d); n != len(e.Frame) || d.Seq != e.Seq {
		t.Fatalf("seq %d: the frame decodes to %d of %d bytes, seq %d", e.Seq, n, len(e.Frame), d.Seq)
	}
	return d.Payload
}

// drainAll returns every entry of l from sequence 1 on.
func drainAll(l *SendLog) []LogEntry {
	var all []LogEntry
	for next := uint64(1); ; {
		n := len(all)
		all = l.TryNextBatch(next, all, 256, 1<<30)
		if len(all) == n {
			return all
		}
		next = all[len(all)-1].Seq + 1
	}
}

// TestAppendCarvesFramesFromOneChunk: consecutive appends are laid end to end
// in the log's chunk, each frame decodes to its own payload, and an append
// allocates nothing of its own.
func TestAppendCarvesFramesFromOneChunk(t *testing.T) {
	l := newSendLog(1, FlowConfig{}, 1)
	const k = 100
	for i := 0; i < k; i++ {
		if _, err := l.Append(framePayload(0, i, 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	all := drainAll(l)
	if len(all) != k {
		t.Fatalf("drained %d of %d entries", len(all), k)
	}
	for i, e := range all {
		if got := decodedPayload(t, e); !bytes.Equal(got, framePayload(0, i, 64)) {
			t.Fatalf("seq %d decodes to another payload", e.Seq)
		}
		if i > 0 && !adjoining(all[i-1].Frame, e.Frame) {
			t.Fatalf("the frame of seq %d does not start where seq %d's ends", e.Seq, e.Seq-1)
		}
	}

	payload := make([]byte, 64)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := l.Append(payload, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0.05 {
		t.Fatalf("a 64 B Append allocates %v times, want at most 0.05 amortized", allocs)
	}
}

// TestOversizeFrameTakesItsOwnAllocation: a frame longer than a quarter
// chunk gets an exact allocation of its own, and the next small frame goes
// back to the chunk, right behind the small frame before it.
func TestOversizeFrameTakesItsOwnAllocation(t *testing.T) {
	l := newSendLog(1, FlowConfig{}, 1)
	big := framePayload(1, 1, frameChunkBytes/4+1)
	for _, p := range [][]byte{framePayload(0, 0, 64), big, framePayload(2, 2, 64)} {
		if _, err := l.Append(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	all := drainAll(l)
	if len(all) != 3 {
		t.Fatalf("drained %d of 3 entries", len(all))
	}
	if f := all[1].Frame; cap(f) != len(f) {
		t.Fatalf("the oversize frame has capacity %d for its %d bytes, want its own allocation", cap(f), len(f))
	}
	if !bytes.Equal(decodedPayload(t, all[1]), big) {
		t.Fatal("the oversize frame decodes to another payload")
	}
	if !adjoining(all[0].Frame, all[2].Frame) {
		t.Fatal("the small frame after the oversize one is not carved behind the small frame before it")
	}
	if !bytes.Equal(decodedPayload(t, all[2]), framePayload(2, 2, 64)) {
		t.Fatal("the small frame after the oversize one decodes to another payload")
	}
}

// TestConcurrentAppendsNeverShareBytes: producers carving frames of mixed
// sizes at once, across many chunk boundaries and on one stripe or many,
// never get overlapping bytes: every entry decodes to exactly its payload.
func TestConcurrentAppendsNeverShareBytes(t *testing.T) {
	const producers, perProd = 8, 400
	// size is the payload size of message i of producer g: mostly small, a
	// frame that fills a quarter chunk exactly, and one just over it.
	size := func(g, i int) int {
		switch (g + i) % 97 {
		case 0:
			return frameChunkBytes/4 - wire.DataFrameOverhead
		case 1:
			return frameChunkBytes/4 + 1
		}
		return 1 + (g*7919+i*104729)%3000
	}
	for _, stripes := range []int{1, 8} {
		t.Run(fmt.Sprintf("stripes-%d", stripes), func(t *testing.T) {
			l := newSendLog(1, FlowConfig{}, stripes)
			type msg struct{ g, i int }
			var (
				mu     sync.Mutex
				bySeq  = make(map[uint64]msg)
				wg     sync.WaitGroup
				volume atomic.Int64
			)
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perProd; i++ {
						seq, err := l.Append(framePayload(g, i, size(g, i)), 0)
						if err != nil {
							t.Error(err)
							return
						}
						volume.Add(int64(size(g, i)))
						mu.Lock()
						bySeq[seq] = msg{g, i}
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			if chunks := volume.Load() / frameChunkBytes; chunks < 10 {
				t.Fatalf("the producers filled only about %d chunks", chunks)
			}
			all := drainAll(l)
			if len(all) != producers*perProd {
				t.Fatalf("drained %d of %d entries", len(all), producers*perProd)
			}
			for _, e := range all {
				m := bySeq[e.Seq]
				if !bytes.Equal(decodedPayload(t, e), framePayload(m.g, m.i, size(m.g, m.i))) {
					t.Fatalf("seq %d (producer %d, message %d) decodes to another payload", e.Seq, m.g, m.i)
				}
			}
		})
	}
}

// vectorConn records every vector the link flushes through it, then passes
// the vector on to the connection below.
type vectorConn struct {
	net.Conn
	bw buffersWriter

	mu   sync.Mutex
	vecs [][][]byte
}

func (c *vectorConn) WriteBuffers(bufs [][]byte) (int, error) {
	c.mu.Lock()
	c.vecs = append(c.vecs, append([][]byte(nil), bufs...))
	c.mu.Unlock()
	return c.bw.WriteBuffers(bufs)
}

// TestCarvedFramesCrossAMemoryLinkAsOneSlice: a flush of consecutive carved
// frames reaches the memory fabric as pieces that each start where the last
// ends, so the peer's queue holds the run as one slice and its reader copies
// it out in one piece.
func TestCarvedFramesCrossAMemoryLinkAsOneSlice(t *testing.T) {
	fabric := emunet.NewMemNetwork(nil)
	var rec *vectorConn
	fabric.SetConnHook(func(from, to int, conn net.Conn) (net.Conn, error) {
		if from != 1 || to != 2 {
			return conn, nil
		}
		rec = &vectorConn{Conn: conn, bw: conn.(buffersWriter)}
		return rec, nil
	})
	h := startHarnessOn(t, fabric, 2, noHeartbeat, batchLimits{maxFrames: 256, maxBytes: 16 << 10})
	parkLinks(t, h, 1)
	rec.mu.Lock()
	before := len(rec.vecs)
	rec.mu.Unlock()

	const k = 100
	for i := 0; i < k; i++ {
		if _, err := h.logs[0].Append(framePayload(0, i, 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	h.trs[0].NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return len(h.recs[1].dataSeqs(1)) == k })

	rec.mu.Lock()
	defer rec.mu.Unlock()
	var held [][]byte // what the queue holds: adjoining pieces extend one slice
	for _, v := range rec.vecs[before:] {
		for _, p := range v {
			if last := len(held) - 1; last >= 0 && adjoining(held[last], p) {
				held[last] = held[last][:len(held[last])+len(p)]
			} else {
				held = append(held, p)
			}
		}
	}
	if frames := k * (wire.DataFrameOverhead + 64); len(held) == 0 || len(held[0]) != frames {
		t.Fatalf("the %d frames reached the queue as %d slices, the first of %d bytes; want one slice of %d", k, len(held), len(held[0]), frames)
	}
}
