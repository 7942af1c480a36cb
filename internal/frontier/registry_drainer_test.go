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
// and asserts the release property: a waiter that resumed successfully had
// seq <= the final frontier (no phantom release, Remove included: it lets its
// waiters go with ErrPredUnknown), every waiter with seq <= frontier is
// released once the dust settles (completeness), and cancellations never
// strand heap entries.
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
		errs := make([]error, waiters)
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
				errs[i] = reg.WaitFor(ctx, seq, "p")
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
		reg.Flush()
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

		if err := reg.Remove("p"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		for i, err := range errs {
			switch {
			case err == nil:
				if seqs[i] > frontier {
					t.Fatalf("round %d: waiter %d released with seq %d > frontier %d",
						round, i, seqs[i], frontier)
				}
			case errors.Is(err, ErrPredUnknown):
				if seqs[i] <= frontier {
					t.Fatalf("round %d: waiter %d with seq %d <= frontier %d let go by Remove",
						round, i, seqs[i], frontier)
				}
			case errors.Is(err, ErrWaitCancelled):
				if !cancels[i] {
					t.Fatalf("round %d: waiter %d cancelled without a cancel", round, i)
				}
			default:
				t.Fatalf("round %d: waiter %d unexpected error %v", round, i, err)
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
	reg.deliver(publication{advances: []advance{stale}}) // a drain that lost the race with Remove
	if v, ok := series(); ok {
		t.Fatalf("gauge survived Remove with value %v", v)
	}
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	want(2, "after re-registering")
}

// TestSwapVsDrainMonitorOrder: a swap to a weaker predicate that lands while a
// drain's monitor call is still running publishes after it, not around it, so
// the monitor never hears the frontier go backwards.
func TestSwapVsDrainMonitorOrder(t *testing.T) {
	reg, table := newManualRegistry(2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var heard []uint64
	parked, entered, gate := false, make(chan struct{}), make(chan struct{})
	if _, err := reg.Monitor("p", func(f uint64) {
		mu.Lock()
		first := !parked
		parked = true
		mu.Unlock()
		if first {
			close(entered)
			<-gate
		}
		mu.Lock()
		heard = append(heard, f)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	report(reg, table, 1, 15)
	report(reg, table, 2, 10)
	drained, swapped := make(chan struct{}), make(chan struct{})
	go func() {
		reg.Flush()
		close(drained)
	}()
	<-entered // the drain is inside its firing of 10
	var swapErr error
	go func() {
		swapErr = reg.Change("p", "MAX($ALLWNODES)")
		close(swapped)
	}()
	// The swap has to wait for the drain; a registry that lets it through gets
	// the time to fire 15 first.
	select {
	case <-swapped:
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-drained
	<-swapped
	if swapErr != nil {
		t.Fatal(swapErr)
	}
	if len(heard) != 2 || heard[0] != 10 || heard[1] != 15 {
		t.Fatalf("monitor heard %v, want [10 15]", heard)
	}
}

// TestFreshStreamAfterRemoveAndRegister: what was delivered about a predicate
// goes with it at Remove, even when a drain that lost the race with Remove
// delivers afterwards; the key's next predicate is heard from its first advance.
func TestFreshStreamAfterRemoveAndRegister(t *testing.T) {
	reg, table := newManualRegistry(2)
	table.Update(1, TypeReceived, 3)
	table.Update(2, TypeReceived, 1)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("p"); err != nil {
		t.Fatal(err)
	}
	reg.deliver(publication{advances: []advance{{key: "p", old: 1, new: 4}}}) // collected before the Remove
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var heard []uint64
	reg.OnAdvance(func(_ string, _, new uint64) { heard = append(heard, new) })
	report(reg, table, 2, 3)
	reg.Flush()
	if len(heard) != 1 || heard[0] != 3 {
		t.Fatalf("heard %v, want [3]", heard)
	}
}

// TestStaleCancelLeavesNewMonitorAttached: the cancel of a monitor that went
// with its predicate at Remove detaches nothing from the key's next predicate.
func TestStaleCancelLeavesNewMonitorAttached(t *testing.T) {
	reg, table := newManualRegistry(1)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	staleCancel, err := reg.Monitor("p", func(uint64) { t.Error("a removed predicate's monitor fired") })
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("p"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if _, err := reg.Monitor("p", func(uint64) { fired++ }); err != nil {
		t.Fatal(err)
	}
	staleCancel()
	report(reg, table, 1, 1)
	reg.Flush()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

// TestObserverChainsKeepOrderAcrossRacingChangeAndFlush: with 200 drains racing
// 200 swaps between a weak and a strong predicate, a hook and a monitor on the
// key hear the same strictly increasing chain — each old is the previous new,
// no gap, no repeat, nothing from the re-climbs. The callbacks append without a
// lock: under -race that is the check that they run one at a time.
func TestObserverChainsKeepOrderAcrossRacingChangeAndFlush(t *testing.T) {
	const rounds = 200
	reg, table := newManualRegistry(2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	type step struct{ old, new uint64 }
	var hook []step
	var monitor []uint64
	reg.OnAdvance(func(_ string, old, new uint64) { hook = append(hook, step{old, new}) })
	if _, err := reg.Monitor("p", func(f uint64) { monitor = append(monitor, f) }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for s := uint64(1); s <= rounds; s++ {
			report(reg, table, 1, 2*s) // node 1 runs ahead, so MAX and MIN differ
			report(reg, table, 2, s)
			reg.Flush()
		}
	}()
	go func() {
		defer wg.Done()
		srcs := []string{"MAX($ALLWNODES)", "MIN($ALLWNODES)"}
		for i := 0; i < rounds; i++ {
			if err := reg.Change("p", srcs[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if len(hook) == 0 || len(hook) != len(monitor) {
		t.Fatalf("hook heard %d advances, monitor %d", len(hook), len(monitor))
	}
	last := uint64(0)
	for i, s := range hook {
		if s.old != last || s.new <= s.old {
			t.Fatalf("hook call %d is %d→%d after %d", i, s.old, s.new, last)
		}
		if monitor[i] != s.new {
			t.Fatalf("monitor call %d heard %d, the hook %d", i, monitor[i], s.new)
		}
		last = s.new
	}
}

// TestNodeNoteMarksAgain: a NoteNodeUpdate that finds its node's flag set
// returns without marking, so every step that leaves a predicate over the
// node undirty must clear the flag — a drain, and the registration, swap or
// removal of a predicate over the node — or the next note marks nothing.
func TestNodeNoteMarksAgain(t *testing.T) {
	for _, tc := range []struct {
		name string
		step func(t *testing.T, reg *Registry)
		want int // predicates dirty after the note that follows step
	}{
		{"Flush", func(t *testing.T, reg *Registry) { reg.Flush() }, 1},
		{"Register", func(t *testing.T, reg *Registry) {
			if err := reg.Register("q", "MIN($1, $2)"); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"Change", func(t *testing.T, reg *Registry) {
			if err := reg.Change("p", "MIN($1, $2)"); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"Remove", func(t *testing.T, reg *Registry) {
			if err := reg.Remove("p"); err != nil {
				t.Fatal(err)
			}
			if reg.noted[1].Load() {
				t.Fatal("Remove left node 1's note flag set")
			}
			if err := reg.Register("p", "MIN($1)"); err != nil {
				t.Fatal(err)
			}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, _ := newManualRegistry(2)
			if err := reg.Register("p", "MIN($1)"); err != nil {
				t.Fatal(err)
			}
			reg.NoteNodeUpdate(1)
			if d := dirtyCount(reg); d != 1 || !reg.noted[1].Load() {
				t.Fatalf("after the first note: %d dirty, flag %v; want 1 and set", d, reg.noted[1].Load())
			}
			tc.step(t, reg)
			reg.NoteNodeUpdate(1)
			if d := dirtyCount(reg); d != tc.want {
				t.Fatalf("note after %s dirtied %d predicates, want %d", tc.name, d, tc.want)
			}
		})
	}
}

// TestNodeNoteNeverLosesAnUpdate races whole-node notes against a live
// drainer: four writers each advance node 1 and note it, most of them finding
// the flag set and skipping the registry lock, and the last write must still
// reach the frontier. It is a net, not a proof: a drain that cleared the flag
// after evaluating instead of before would lose a skipped write only when a
// writer lands in that window, which these rounds catch often, not always.
func TestNodeNoteNeverLosesAnUpdate(t *testing.T) {
	const rounds, writers, notes = 200, 4, 50
	for r := 0; r < rounds; r++ {
		types := NewTypes()
		table := NewTable(2)
		table.EnsureType(TypeReceived, 1, 0)
		reg := NewRegistry(&testEnv{n: 2, self: 1, types: types}, table)
		if err := reg.Register("p", "MIN($1)"); err != nil {
			t.Fatal(err)
		}
		var seq atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < notes; i++ {
					table.UpdateAll(1, seq.Add(1))
					reg.NoteNodeUpdate(1)
				}
			}()
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := reg.WaitFor(ctx, seq.Load(), "p")
		cancel()
		f, _ := reg.Frontier("p")
		reg.Close()
		if err != nil {
			t.Fatalf("round %d: frontier stuck at %d below the last write %d: %v", r, f, seq.Load(), err)
		}
	}
}
