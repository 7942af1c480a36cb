package transport

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStripedAppendDrainRace hammers the unbounded striped append fast path:
// N producers append concurrently while a drainer walks the log with
// TryNextBatch and truncates behind itself. Asserts gapless sequence
// assignment (every sequence in [1, total] assigned exactly once), that
// OnAppend hears each sequence once with its send time, and byte-exact
// occupancy (Bytes and Len return to zero once everything is reclaimed). Run
// under -race this also proves the stripe/merge locking.
// stripedLog builds a log at an exact stripe count (the exported
// constructors always use defaultLogStripes).
func stripedLog(t testing.TB, flow FlowConfig, stripes int) *SendLog {
	t.Helper()
	l, err := newSendLogFlow(1, flow, stripes)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// flowLog is NewSendLogFlow for configurations that cannot fail.
func flowLog(t testing.TB, flow FlowConfig) *SendLog {
	t.Helper()
	l, err := NewSendLogFlow(1, flow)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestStripedAppendDrainRace(t *testing.T) {
	const (
		producers = 8
		perProd   = 2000
		total     = producers * perProd
	)
	l := newSendLog(1, FlowConfig{}, 4)
	// heard[seq] is 1 + the send time OnAppend heard for seq.
	heard := make([]atomic.Int64, total+1)
	l.OnAppend(func(seq uint64, sentUnixNano int64) {
		if heard[seq].Swap(sentUnixNano+1) != 0 {
			t.Errorf("OnAppend heard seq %d twice", seq)
		}
	})

	seqs := make([][]uint64, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			mine := make([]uint64, 0, perProd)
			for i := 0; i < perProd; i++ {
				payload := make([]byte, 1+rng.Intn(64))
				seq, err := l.Append(payload, int64(i))
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				mine = append(mine, seq)
			}
			seqs[p] = mine
		}(p)
	}

	// Drainer: batch-read everything that becomes contiguous, truncating as
	// it goes so the log stays small while producers are still appending.
	drained := 0
	cursor := uint64(1)
	var batch []LogEntry
	done := make(chan struct{})
	go func() {
		defer close(done)
		for drained < total {
			batch = l.TryNextBatch(cursor, batch[:0], 64, 1<<20)
			if len(batch) == 0 {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			for i, e := range batch {
				if e.Seq != cursor+uint64(i) {
					t.Errorf("gap in drained batch: entry %d has seq %d, want %d", i, e.Seq, cursor+uint64(i))
					return
				}
			}
			cursor = batch[len(batch)-1].Seq + 1
			drained += len(batch)
			l.TruncateThrough(cursor - 1)
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("drainer stuck: drained %d of %d (cursor %d, head %d)", drained, total, cursor, l.Head())
	}
	if t.Failed() {
		return
	}

	// Gapless assignment: the union of per-producer sequences is exactly
	// [1, total], no duplicates, no holes.
	var all []uint64
	for _, s := range seqs {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) != total {
		t.Fatalf("assigned %d sequences, want %d", len(all), total)
	}
	for i, s := range all {
		if s != uint64(i+1) {
			t.Fatalf("sequence assignment not gapless: position %d holds %d", i, s)
		}
	}
	// Producer p's i-th append was sent at time i.
	for p, mine := range seqs {
		for i, seq := range mine {
			if got := heard[seq].Load() - 1; got != int64(i) {
				t.Fatalf("OnAppend heard producer %d's seq %d at time %d, want %d", p, seq, got, i)
			}
		}
	}

	// Byte-exact occupancy: everything was truncated, so nothing is buffered.
	if got := l.Bytes(); got != 0 {
		t.Fatalf("Bytes() = %d after draining and truncating everything, want 0", got)
	}
	if got := l.Stats().Entries; got != 0 {
		t.Fatalf("Entries = %d after draining and truncating everything, want 0", got)
	}
	if got := l.Head(); got != total {
		t.Fatalf("Head() = %d, want %d", got, total)
	}
}

// TestOnAppendRunsBeforeTheEntryIsStaged: the hook hears a sequence while
// its entry is in no stripe yet, so no reader can have drained it, and a
// record the hook keeps exists before the message can be acknowledged.
func TestOnAppendRunsBeforeTheEntryIsStaged(t *testing.T) {
	l := newSendLog(1, FlowConfig{}, 1)
	var heard []uint64
	l.OnAppend(func(seq uint64, _ int64) {
		// The hook runs inside the stripe lock this goroutine holds.
		for _, e := range l.stripes[0].entries {
			if e.Seq == seq {
				t.Errorf("seq %d staged before OnAppend heard it", seq)
			}
		}
		heard = append(heard, seq)
	})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("x"), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(heard) != 3 || heard[0] != 1 || heard[2] != 3 {
		t.Fatalf("OnAppend heard %v, want [1 2 3]", heard)
	}
}

// TestStripedFlowBlockedAppendRace is the admission-controlled variant:
// flow-blocked AppendCtx calls from many producers race a truncating
// drainer. The byte cap must stay global across stripes — occupancy never
// exceeds cap plus one payload — and every append must eventually land with
// a gapless sequence.
func TestStripedFlowBlockedAppendRace(t *testing.T) {
	const (
		producers  = 8
		perProd    = 500
		total      = producers * perProd
		maxPayload = 64
		capBytes   = 4 << 10
	)
	l := stripedLog(t, FlowConfig{MaxBytes: capBytes}, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	seqs := make([][]uint64, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 100))
			mine := make([]uint64, 0, perProd)
			for i := 0; i < perProd; i++ {
				payload := make([]byte, 1+rng.Intn(maxPayload))
				seq, err := l.AppendCtx(ctx, payload, int64(i))
				if err != nil {
					t.Errorf("producer %d append %d: %v", p, i, err)
					return
				}
				mine = append(mine, seq)
			}
			seqs[p] = mine
		}(p)
	}

	drained := 0
	cursor := uint64(1)
	var batch []LogEntry
	done := make(chan struct{})
	go func() {
		defer close(done)
		for drained < total {
			// Admission is checked under the central mutex before the entry
			// is staged, so occupancy is bounded by cap plus one in-flight
			// payload no matter how many stripes producers spread across.
			if got := l.Bytes(); got > capBytes+maxPayload {
				t.Errorf("occupancy %d exceeds cap %d + one payload %d", got, capBytes, maxPayload)
				return
			}
			batch = l.TryNextBatch(cursor, batch[:0], 64, 1<<20)
			if len(batch) == 0 {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			cursor = batch[len(batch)-1].Seq + 1
			drained += len(batch)
			l.TruncateThrough(cursor - 1)
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("drainer stuck: drained %d of %d (cursor %d, head %d)", drained, total, cursor, l.Head())
	}
	if t.Failed() {
		return
	}

	var all []uint64
	for _, s := range seqs {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) != total {
		t.Fatalf("assigned %d sequences, want %d", len(all), total)
	}
	for i, s := range all {
		if s != uint64(i+1) {
			t.Fatalf("sequence assignment not gapless: position %d holds %d", i, s)
		}
	}
	if got := l.Bytes(); got != 0 {
		t.Fatalf("Bytes() = %d after full reclaim, want 0", got)
	}
	if got := l.Stats().BlockedAppends; got == 0 {
		t.Log("note: no append ever blocked; cap may be too generous for this machine")
	}
}

// TestStripedSingleFrameReaderInOrder drives one-frame reads against striped
// fast-path appends: a reader consumes every sequence in order, one entry at
// a time, while producers append in bursts; it must never see a sequence
// other than the one it asked for.
func TestStripedSingleFrameReaderInOrder(t *testing.T) {
	const total = 20000
	l := newSendLog(1, FlowConfig{}, 4)
	payload := []byte("x")

	go func() {
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total/4; i++ {
					if _, err := l.Append(payload, 0); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		stop := time.Now().Add(30 * time.Second)
		for seq := uint64(1); seq <= total; {
			e, ok := tryNext(l, seq)
			if !ok {
				if time.Now().After(stop) {
					t.Errorf("reader stuck at %d of %d", seq, total)
					return
				}
				time.Sleep(20 * time.Microsecond)
				continue
			}
			if e.Seq != seq {
				t.Errorf("read at %d returned seq %d", seq, e.Seq)
				return
			}
			seq++
		}
	}()
	<-done
}

// TestTryNextBatchOversizeFirstFrame pins the first-frame rule on the striped
// drainer: a single entry larger than the whole byte budget is still returned
// when it is the first ready entry, and entries after it wait for the next
// batch. Without the rule an oversize payload would wedge the link forever.
func TestTryNextBatchOversizeFirstFrame(t *testing.T) {
	l := newSendLog(1, FlowConfig{}, 4)
	big := make([]byte, 4096)
	small := []byte("small")
	for _, p := range [][]byte{small, big, small} {
		if _, err := l.Append(p, 0); err != nil {
			t.Fatal(err)
		}
	}

	const budget = 1024
	// First batch: the small entry fits, the big one must NOT squeeze in
	// behind it (it only rides first).
	batch := l.TryNextBatch(1, nil, 16, budget)
	if len(batch) != 1 || batch[0].Seq != 1 {
		t.Fatalf("batch 1: got %d entries (first seq %v), want exactly the small entry", len(batch), batch)
	}
	// Second batch starts at the oversize entry: it exceeds the budget but
	// must be returned alone anyway.
	batch = l.TryNextBatch(2, nil, 16, budget)
	if len(batch) != 1 {
		t.Fatalf("batch 2: got %d entries, want the oversize entry alone", len(batch))
	}
	if batch[0].Seq != 2 || batch[0].payloadLen() != len(big) {
		t.Fatalf("batch 2: got seq %d payload %d bytes, want seq 2 with %d bytes", batch[0].Seq, batch[0].payloadLen(), len(big))
	}
	// Third batch resumes normally after the oversize entry.
	batch = l.TryNextBatch(3, nil, 16, budget)
	if len(batch) != 1 || batch[0].Seq != 3 {
		t.Fatalf("batch 3: got %v, want the trailing small entry", batch)
	}
}

// TestTryNextBatchOversizeFlowAccounting checks the oversize edge against
// admission control: a payload bigger than the byte cap is admitted when the
// log has space (cap plus one message, never wedged), counted exactly, and
// reclaiming it returns occupancy to zero and unblocks a waiting appender.
func TestTryNextBatchOversizeFlowAccounting(t *testing.T) {
	const capBytes = 1024
	l := stripedLog(t, FlowConfig{MaxBytes: capBytes}, 4)

	big := make([]byte, 4*capBytes) // larger than the whole cap
	if _, err := l.Append(big, 0); err != nil {
		t.Fatalf("oversize append into empty log: %v", err)
	}
	if got := l.Bytes(); got != int64(len(big)) {
		t.Fatalf("Bytes() = %d after oversize append, want %d", got, len(big))
	}

	// The log is now over its cap: the next append must block.
	blocked := make(chan error, 1)
	go func() {
		_, err := l.Append([]byte("next"), 0)
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("append after oversize returned early (err=%v), want it blocked at the cap", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The striped drainer must hand the oversize entry out despite a tiny
	// byte budget (first-frame rule), or the blocked appender above would
	// never be released.
	batch := l.TryNextBatch(1, nil, 16, 64)
	if len(batch) != 1 || batch[0].Seq != 1 || batch[0].payloadLen() != len(big) {
		t.Fatalf("oversize entry not drained: got %d entries", len(batch))
	}
	l.TruncateThrough(1)

	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("unblocked append failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("appender still blocked after the oversize entry was reclaimed")
	}
	// Occupancy must be byte-exact: just the small trailing payload.
	if got := l.Bytes(); got != int64(len("next")) {
		t.Fatalf("Bytes() = %d after reclaiming the oversize entry, want %d", got, len("next"))
	}
}
