package frontier

import (
	"container/heap"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/metrics"
)

// dirtyCount is the number of predicates awaiting the next drain.
func dirtyCount(reg *Registry) int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.dirty)
}

// parkWaiter parks a WaitFor(seq, key) and returns once it is queued, so the
// only thing that can release it is a drain's publish step.
func parkWaiter(t *testing.T, reg *Registry, seq uint64, key string) <-chan error {
	t.Helper()
	before := reg.WaiterCount()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- reg.WaitFor(ctx, seq, key)
	}()
	for reg.WaiterCount() == before {
		time.Sleep(time.Millisecond)
	}
	return done
}

func TestNoteMarksDirtyUntilFlush(t *testing.T) {
	reg, table := newManualRegistry(2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	table.Update(1, TypeReceived, 5)
	table.Update(2, TypeReceived, 5)
	reg.NoteCellUpdate(1, TypeReceived)
	reg.NoteCellUpdate(2, TypeReceived)
	if f, _ := reg.Frontier("p"); f != 0 {
		t.Fatalf("frontier advanced before the drain: %d", f)
	}
	if d := dirtyCount(reg); d != 1 {
		t.Fatalf("dirty count = %d, want 1 (same predicate marked twice)", d)
	}
	reg.Flush()
	if f, _ := reg.Frontier("p"); f != 5 {
		t.Fatalf("frontier after drain = %d, want 5", f)
	}
	if d := dirtyCount(reg); d != 0 {
		t.Fatalf("dirty count after drain = %d, want 0", d)
	}
}

// TestLoneNoteReleasesParkedWaiter: one NoteCellUpdate, with no Flush call
// and no timer anywhere, is enough to release a parked WaitFor.
func TestLoneNoteReleasesParkedWaiter(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	table.Update(1, TypeReceived, 4)
	released := parkWaiter(t, reg, 4, "p")
	table.Update(2, TypeReceived, 4)
	reg.NoteCellUpdate(2, TypeReceived)
	if err := <-released; err != nil {
		t.Fatalf("the lone note never released the waiter: %v", err)
	}
}

// blockFirstFire installs a monitor on key whose first call parks until the
// returned release func runs; entered is closed once the drainer is inside.
func blockFirstFire(t *testing.T, reg *Registry, key string) (entered chan struct{}, release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if _, err := reg.Monitor(key, func(uint64) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}); err != nil {
		t.Fatal(err)
	}
	return entered, func() { close(gate) }
}

// TestNotesCoalesceWhileDrainerBusy: k Note*s that land while the drainer is
// parked inside a monitor callback cost one evaluation per dirty predicate
// when it comes back, not k.
func TestNotesCoalesceWhileDrainerBusy(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 2)
	m := metrics.NewRegistry()
	reg.EnableMetrics(m)
	evals := m.Counter("stabilizer_frontier_pred_evals_total", "")
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	entered, release := blockFirstFire(t, reg, "p")
	table.Update(1, TypeReceived, 1)
	table.Update(2, TypeReceived, 1)
	reg.NoteCellUpdate(2, TypeReceived)
	<-entered
	if got := evals.Value(); got != 1 {
		t.Fatalf("evaluations after the first note = %d, want 1", got)
	}
	const k = 100
	for s := uint64(2); s <= k+1; s++ {
		table.Update(1, TypeReceived, s)
		reg.NoteCellUpdate(1, TypeReceived)
		table.Update(2, TypeReceived, s)
		reg.NoteCellUpdate(2, TypeReceived)
	}
	released := parkWaiter(t, reg, k+1, "p")
	release()
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	if got := evals.Value(); got != 2 {
		t.Fatalf("evaluations = %d, want 2: one for the first note, one for the %d that followed", got, 2*k)
	}
}

// TestRunnableNotesShareOneDrain: reports carried by goroutines that are
// already runnable when the first of them pokes the drainer land in the same
// drain, because the drainer yields before it evaluates. On one processor the
// order is fixed — the yield queues the drainer behind the k-1 noters still
// waiting to run — up to the scheduler's occasional fairness pick, hence the
// slack in the bound (a drainer that did not yield would drain k times).
func TestRunnableNotesShareOneDrain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const k = 16
	reg, table, _ := newTestRegistry(t, k)
	m := metrics.NewRegistry()
	reg.EnableMetrics(m)
	drains := m.Counter("stabilizer_frontier_recomputes_total", "")
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	released := parkWaiter(t, reg, 1, "p")
	var wg sync.WaitGroup
	for node := 1; node <= k; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			table.Update(node, TypeReceived, 1)
			reg.NoteCellUpdate(node, TypeReceived)
		}(node)
	}
	wg.Wait()
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	if got := drains.Value(); got > k/4 {
		t.Fatalf("%d runnable notes took %d drains, want about one", k, got)
	}
}

// TestCloseDrainsAndStopsDrainer: Close with a non-empty dirty set performs
// the final drain and leaves no goroutine behind; a Note* after Close neither
// blocks nor panics, and its mark waits for an explicit Flush.
func TestCloseDrainsAndStopsDrainer(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 1)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	entered, release := blockFirstFire(t, reg, "p")
	table.Update(1, TypeReceived, 1)
	reg.NoteCellUpdate(1, TypeReceived)
	<-entered
	// The drainer is parked in the monitor: this mark is still in the dirty
	// set when Close begins.
	table.Update(1, TypeReceived, 3)
	reg.NoteCellUpdate(1, TypeReceived)
	if d := dirtyCount(reg); d != 1 {
		t.Fatalf("dirty count before Close = %d, want 1", d)
	}
	closed := make(chan struct{})
	go func() {
		reg.Close()
		close(closed)
	}()
	release()
	<-closed
	if f, _ := reg.Frontier("p"); f != 3 {
		t.Fatalf("Close did not drain: frontier = %d, want 3", f)
	}
	select {
	case <-reg.done:
	default:
		t.Fatal("drainer goroutine still running after Close")
	}
	table.Update(1, TypeReceived, 7)
	for i := 0; i < 3; i++ { // more notes than the doorbell holds
		reg.NoteCellUpdate(1, TypeReceived)
		reg.NoteNodeUpdate(1)
	}
	if f, _ := reg.Frontier("p"); f != 3 {
		t.Fatalf("a note after Close was evaluated with no drainer: frontier = %d", f)
	}
	reg.Flush()
	if f, _ := reg.Frontier("p"); f != 7 {
		t.Fatalf("Flush after Close = %d, want 7", f)
	}
	reg.Close() // idempotent
}

func TestIncrementalDirtiesOnlyReaders(t *testing.T) {
	reg, table := newManualRegistry(2)
	if err := reg.Register("recv", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("deliv", "MIN($ALLWNODES.delivered)"); err != nil {
		t.Fatal(err)
	}

	// A cell nobody reads dirties nothing.
	reg.NoteCellUpdate(1, TypePersisted)
	if d := dirtyCount(reg); d != 0 {
		t.Fatalf("unread cell dirtied %d predicates", d)
	}
	// A received cell dirties only the predicate reading received.
	table.Update(1, TypeReceived, 2)
	reg.NoteCellUpdate(1, TypeReceived)
	if d := dirtyCount(reg); d != 1 {
		t.Fatalf("received cell dirtied %d predicates, want 1", d)
	}
	// A whole-node advance (UpdateAll) dirties every predicate that
	// depends on the node, whatever type it reads.
	reg.NoteNodeUpdate(1)
	if d := dirtyCount(reg); d != 2 {
		t.Fatalf("node update dirtied %d predicates, want 2", d)
	}
	reg.Flush()
	if d := dirtyCount(reg); d != 0 {
		t.Fatalf("dirty count after drain = %d", d)
	}

	// Change swaps the index along with the program: the old read set no
	// longer dirties the predicate, the new one does.
	if err := reg.Change("deliv", "MIN($ALLWNODES.persisted)"); err != nil {
		t.Fatal(err)
	}
	reg.NoteCellUpdate(1, TypeDelivered)
	if d := dirtyCount(reg); d != 0 {
		t.Fatalf("stale index: delivered cell dirtied %d predicates after Change", d)
	}
	reg.NoteCellUpdate(1, TypePersisted)
	if d := dirtyCount(reg); d != 1 {
		t.Fatalf("persisted cell dirtied %d predicates, want 1", d)
	}
	// Remove detaches from the index entirely.
	reg.Flush()
	if err := reg.Remove("recv"); err != nil {
		t.Fatal(err)
	}
	reg.NoteCellUpdate(1, TypeReceived)
	if d := dirtyCount(reg); d != 0 {
		t.Fatalf("removed predicate still indexed: dirty = %d", d)
	}
}

// TestReleaseOrderSeqSorted is the white-box heap contract: waiters come
// off releaseWaitersLocked in ascending seq order, never past the
// frontier, and the survivors keep a consistent heap index.
func TestReleaseOrderSeqSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := &predicate{}
	seqOf := make(map[chan struct{}]uint64)
	const waiters, cut = 1000, 100
	for i := 0; i < waiters; i++ {
		w := &waiter{seq: uint64(rng.Intn(2*cut)) + 1, done: make(chan struct{})}
		heap.Push(&p.waiters, w)
		seqOf[w.done] = w.seq
	}
	// Detach a random subset first, like concurrent cancellations would.
	for i := 0; i < 100; i++ {
		heap.Remove(&p.waiters, rng.Intn(p.waiters.Len()))
	}
	p.frontier = cut
	released := p.releaseWaitersLocked()
	prev := uint64(0)
	for _, c := range released {
		s := seqOf[c]
		if s < prev {
			t.Fatalf("release order not seq-sorted: %d after %d", s, prev)
		}
		if s > cut {
			t.Fatalf("phantom release: seq %d > frontier %d", s, cut)
		}
		prev = s
	}
	for i, w := range p.waiters {
		if w.idx != i {
			t.Fatalf("heap index corrupt: waiters[%d].idx = %d", i, w.idx)
		}
		if w.seq <= cut {
			t.Fatalf("waiter seq %d <= frontier %d left unreleased", w.seq, cut)
		}
	}
}

// TestMassCancelBoundedTime is the en-masse cancellation regression: with
// the heap's O(log n) detach, cancelling massCancelWaiters parked waiters
// finishes in seconds; the old linear scan under the registry lock made
// this wave quadratic.
func TestMassCancelBoundedTime(t *testing.T) {
	reg, _, _ := newTestRegistry(t, 2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, massCancelWaiters)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = reg.WaitFor(ctx, uint64(i+1), "p")
		}(i)
	}
	parkBy := time.Now().Add(60 * time.Second)
	for reg.WaiterCount() != massCancelWaiters {
		if time.Now().After(parkBy) {
			t.Fatalf("only %d/%d waiters parked", reg.WaiterCount(), massCancelWaiters)
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	cancel()
	wg.Wait()
	elapsed := time.Since(start)
	if n := reg.WaiterCount(); n != 0 {
		t.Fatalf("%d waiters left attached after cancellation", n)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrWaitCancelled) {
			t.Fatalf("waiter %d: err = %v, want ErrWaitCancelled", i, err)
		}
	}
	// Generous tripwire: the O(n²) scan took minutes at this size; the
	// heap finishes in well under a second of detach work (wall clock is
	// dominated by waking the goroutines).
	if limit := 20 * time.Second; elapsed > limit {
		t.Fatalf("mass cancel took %v, want < %v", elapsed, limit)
	}
	t.Logf("cancelled %d waiters in %v", massCancelWaiters, elapsed)
}

// TestConcurrentWaitCancelChangeProperty drives randomized concurrent
// WaitFor / cancellation / Change / table-update / Remove interleavings
// and asserts the release property: a waiter that resumed successfully
// before Remove had seq <= the final frontier (no phantom release), every
// waiter with seq <= frontier is released once the dust settles
// (completeness), and cancellations never strand heap entries.
func TestConcurrentWaitCancelChangeProperty(t *testing.T) {
	const (
		n       = 3
		waiters = 300
		maxSeq  = 200 // every node's counter ends here, so F = maxSeq
	)
	for round := 0; round < 3; round++ {
		rng := rand.New(rand.NewSource(int64(1000 + round)))
		reg, table, _ := newTestRegistry(t, n)
		if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
			t.Fatal(err)
		}

		// Inputs (written before spawning, read-only afterwards) live apart
		// from outcomes (written only by waiter i, read after wg.Wait()) so
		// the main goroutine can inspect inputs while waiters still run.
		seqs := make([]uint64, waiters)
		cancels := make([]bool, waiters)
		type wres struct {
			preRemove bool // returned before Remove started
			err       error
		}
		results := make([]wres, waiters)
		var removed atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			seq := uint64(rng.Intn(2*maxSeq)) + 1
			doCancel := rng.Intn(5) == 0
			seqs[i] = seq
			cancels[i] = doCancel
			delay := time.Duration(rng.Intn(2000)) * time.Microsecond
			wg.Add(1)
			go func(i int, seq uint64, doCancel bool, delay time.Duration) {
				defer wg.Done()
				ctx := context.Background()
				if doCancel {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				err := reg.WaitFor(ctx, seq, "p")
				results[i].preRemove = !removed.Load()
				results[i].err = err
			}(i, seq, doCancel, delay)
		}

		var updWg sync.WaitGroup
		for node := 1; node <= n; node++ {
			updWg.Add(1)
			go func(node int) {
				defer updWg.Done()
				for s := uint64(1); s <= maxSeq; s++ {
					table.Update(node, TypeReceived, s)
					reg.NoteCellUpdate(node, TypeReceived)
				}
			}(node)
		}
		// Swap between semantically equivalent predicates while updates
		// and waits are in flight: the frontier stays monotonic, but the
		// swap path (unindex/reindex, immediate re-eval, waiter re-judge)
		// races everything else.
		updWg.Add(1)
		go func() {
			defer updWg.Done()
			srcs := []string{"KTH_MIN(1, $ALLWNODES)", "MIN($ALLWNODES)"}
			for i := 0; i < 20; i++ {
				if err := reg.Change("p", srcs[i%2]); err != nil {
					t.Errorf("change: %v", err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		updWg.Wait()
		reg.Recompute()
		frontier, err := reg.Frontier("p")
		if err != nil {
			t.Fatal(err)
		}
		if frontier != maxSeq {
			t.Fatalf("round %d: final frontier = %d, want %d", round, frontier, maxSeq)
		}

		// Completeness: once quiesced, exactly the non-cancelled waiters
		// beyond the frontier are still parked.
		wantParked := 0
		for i := range seqs {
			if !cancels[i] && seqs[i] > frontier {
				wantParked++
			}
		}
		settleBy := time.Now().Add(30 * time.Second)
		for reg.WaiterCount() != wantParked {
			if time.Now().After(settleBy) {
				t.Fatalf("round %d: %d waiters parked after quiesce, want %d",
					round, reg.WaiterCount(), wantParked)
			}
			time.Sleep(time.Millisecond)
		}

		removed.Store(true)
		if err := reg.Remove("p"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		for i, r := range results {
			if r.err == nil && r.preRemove && seqs[i] > frontier {
				t.Fatalf("round %d: waiter %d released with seq %d > frontier %d",
					round, i, seqs[i], frontier)
			}
			if r.err != nil {
				if !errors.Is(r.err, ErrWaitCancelled) {
					t.Fatalf("round %d: waiter %d unexpected error %v", round, i, r.err)
				}
				if !cancels[i] {
					t.Fatalf("round %d: waiter %d cancelled without a cancel", round, i)
				}
			}
		}
		if n := reg.WaiterCount(); n != 0 {
			t.Fatalf("round %d: %d waiters left after Remove", round, n)
		}
	}
}

// TestFrontierGaugeFollowsItsPredicate: the stabilizer_frontier_seq child a
// predicate resolved at install tracks its drains and swaps, goes with Remove
// (an advance published after it must not bring the series back), and a
// later Register under the same key starts a fresh one.
func TestFrontierGaugeFollowsItsPredicate(t *testing.T) {
	reg, table := newManualRegistry(2)
	m := metrics.NewRegistry()
	reg.EnableMetrics(m)
	series := func() (float64, bool) {
		for _, ms := range m.Find("stabilizer_frontier_seq").Metrics {
			if ms.Labels["predicate"] == "p" {
				return ms.Value, true
			}
		}
		return 0, false
	}
	want := func(v float64, when string) {
		t.Helper()
		if got, ok := series(); !ok || got != v {
			t.Fatalf("gauge %s = %v (present %v), want %v", when, got, ok, v)
		}
	}
	table.Update(1, TypeReceived, 3)
	table.Update(2, TypeReceived, 1)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	want(1, "at install")
	table.Update(2, TypeReceived, 2)
	reg.NoteCellUpdate(2, TypeReceived)
	reg.Flush()
	want(2, "after a drain")
	if err := reg.Change("p", "MAX($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	want(3, "after a swap")
	stale := advance{key: "p", gauge: reg.preds["p"].gauge, old: 3, new: 4}
	if err := reg.Remove("p"); err != nil {
		t.Fatal(err)
	}
	reg.publishAdvance(stale, nil) // a drain that lost the race with Remove
	if v, ok := series(); ok {
		t.Fatalf("gauge survived Remove with value %v", v)
	}
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	want(2, "after re-registering")
}
