package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/wire"
)

// TestTruncateStagedReexposure is the deterministic regression for the
// truncate/stripe-merge interleaving bug: a truncation that lands while
// some of the truncated range is still staged behind a reservation gap
// must not let those staged entries become visible when a later merge
// finally pops them.
//
// The interleaving (reconstructed white-box, since it needs a producer
// parked between sequence reservation and staging):
//
//	merged:   1..5 visible
//	producer A reserves 6 (not yet staged)
//	producer B stages  7, 8
//	TruncateThrough(8)   — merge stops at the gap, so only 1..5 drop;
//	                       the log records reclaimed=8
//	producer A stages  6 — the gap closes
//	next merge pops 6, 7, 8
//
// Before the fix the merge appended 6..8 to the visible region and readers
// received sequences the reclaim predicate had already declared globally
// durable — a FIFO stream that travels back in time. Now the merge drops
// any popped entry at or below the reclaimed high-water mark.
func TestTruncateStagedReexposure(t *testing.T) {
	l := newSendLog(1, FlowConfig{}, 2)
	defer l.Close()

	for i := 1; i <= 5; i++ {
		if _, err := l.Append(make([]byte, 8), 0); err != nil {
			t.Fatal(err)
		}
	}
	if e, ok := tryNext(l, 1); !ok || e.Seq != 1 {
		t.Fatalf("TryNext(1) = (%v, %v)", e.Seq, ok)
	}

	// Producer A reserves 6 but has not staged it; producer B stages 7, 8.
	if got := l.next.Add(3) - 3; got != 6 {
		t.Fatalf("reserved %d, want 6", got)
	}
	stage := func(stripe int, seq uint64) {
		s := &l.stripes[stripe]
		s.mu.Lock()
		s.entries = append(s.entries, LogEntry{Seq: seq, Frame: wire.AppendDataFrame(nil, seq, 0, make([]byte, 8))})
		s.mu.Unlock()
		l.bytes.Add(8)
	}
	stage(1, 7)
	stage(1, 8)

	l.TruncateThrough(8)

	// The gap closes: producer A finally stages 6.
	stage(0, 6)

	// No read, now or ever, may surface a sequence <= 8 again.
	if e, ok := tryNext(l, 1); ok {
		t.Fatalf("truncated sequence %d re-exposed after merge", e.Seq)
	}
	if batch := l.TryNextBatch(1, nil, 16, 1<<20); len(batch) != 0 {
		t.Fatalf("truncated sequences re-exposed in batch: first %d", batch[0].Seq)
	}
	if n := l.Stats().Entries; n != 0 {
		t.Fatalf("Entries = %d after full truncation, want 0", n)
	}
	if b := l.Bytes(); b != 0 {
		t.Fatalf("Bytes() = %d after full truncation, want 0 (accounting leak)", b)
	}

	// The stream continues cleanly after the reclaimed range.
	seq, err := l.Append(make([]byte, 8), 0)
	if err != nil || seq != 9 {
		t.Fatalf("next append = (%d, %v), want seq 9", seq, err)
	}
	if e, ok := tryNext(l, 1); !ok || e.Seq != 9 {
		t.Fatalf("TryNext after reclaim = (%v, %v), want seq 9", e.Seq, ok)
	}
}

// TestTruncateConcurrentStripeMergeNeverReexposes is the randomized -race
// stress for the same bug, through the public API only: producers hammer
// the striped fast path while truncators reclaim behind them and readers
// continuously probe the head of the log. The protocol makes violations
// unambiguous despite the races: a truncator publishes its watermark only
// AFTER TruncateThrough returns, and a reader loads the published
// watermark BEFORE probing — so any entry the probe returns at or below
// that pre-loaded watermark was re-exposed after its truncation fully
// completed.
func TestTruncateConcurrentStripeMergeNeverReexposes(t *testing.T) {
	const (
		producers  = 6
		truncators = 2
		readers    = 3
		perProd    = 4000
	)
	l := newSendLog(1, FlowConfig{}, 4)
	defer l.Close()

	var (
		appended atomic.Uint64 // sequences 1..appended have been assigned
		maxTrunc atomic.Uint64 // highest watermark with a COMPLETED truncation
		stop     atomic.Bool
		violated atomic.Bool
		wg       sync.WaitGroup
	)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			for i := 0; i < perProd; i++ {
				if _, err := l.Append(make([]byte, 1+rng.Intn(32)), 0); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				appended.Add(1)
			}
		}(p)
	}
	for r := 0; r < truncators; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 100))
			for !stop.Load() {
				hi := appended.Load()
				if hi == 0 {
					continue
				}
				s := uint64(rng.Int63n(int64(hi))) + 1
				l.TruncateThrough(s)
				// Publish only after the truncation completed.
				for {
					cur := maxTrunc.Load()
					if s <= cur || maxTrunc.CompareAndSwap(cur, s) {
						break
					}
				}
			}
		}(r)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				pre := maxTrunc.Load()
				if e, ok := tryNext(l, 1); ok && e.Seq <= pre {
					violated.Store(true)
					t.Errorf("TryNext returned seq %d, already truncated through %d", e.Seq, pre)
					return
				}
				pre = maxTrunc.Load()
				for _, e := range l.TryNextBatch(1, nil, 8, 1<<20) {
					if e.Seq <= pre {
						violated.Store(true)
						t.Errorf("TryNextBatch returned seq %d, already truncated through %d", e.Seq, pre)
						return
					}
				}
			}
		}()
	}

	// Let producers finish, then give truncators/readers a final window over
	// the fully-staged log before stopping everyone.
	waitProducers := make(chan struct{})
	go func() {
		for appended.Load() < producers*perProd && !violated.Load() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		stop.Store(true)
		close(waitProducers)
	}()
	wg.Wait()
	<-waitProducers
	if violated.Load() {
		t.Fatal("truncated sequences were re-exposed")
	}

	// Drain-down sanity: reclaim everything and confirm the accounting
	// returns to zero (no husk entries survived the interleavings).
	l.TruncateThrough(uint64(producers * perProd))
	if l.Stats().Entries != 0 || l.Bytes() != 0 {
		t.Fatalf("after final truncation: Len=%d Bytes=%d, want 0,0", l.Stats().Entries, l.Bytes())
	}
}
