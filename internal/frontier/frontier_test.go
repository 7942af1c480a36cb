package frontier

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"stabilizer/internal/dsl"
)

// testEnv is a minimal dsl.Env over n flat nodes.
type testEnv struct {
	n     int
	self  int
	types *Types
}

func (e *testEnv) N() int      { return e.n }
func (e *testEnv) MyNode() int { return e.self }

func (e *testEnv) AllNodes() []int {
	out := make([]int, e.n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func (e *testEnv) MyAZNodes() []int { return []int{e.self} }

func (e *testEnv) AZNodes(name string) ([]int, error) {
	return nil, fmt.Errorf("no az %q", name)
}

func (e *testEnv) NodeIndex(name string) (int, error) {
	return 0, fmt.Errorf("no node %q", name)
}

func (e *testEnv) StabilityType(name string) (uint16, error) { return e.types.Lookup(name) }

func newTestRegistry(tb testing.TB, n int) (*Registry, *Table, *Types) {
	types := NewTypes()
	table := NewTable(n)
	reg := NewRegistry(&testEnv{n: n, self: 1, types: types}, table)
	tb.Cleanup(reg.Close)
	return reg, table, types
}

// report is the receive path in two lines: raise node's received cell and, if
// it moved, mark the predicates reading it dirty.
func report(reg *Registry, table *Table, node int, seq uint64) {
	if table.Update(node, TypeReceived, seq) {
		reg.NoteCellUpdate(node, TypeReceived)
	}
}

// newManualRegistry is newTestRegistry without the drainer goroutine: Note*
// only marks dirty, and the test decides when Flush runs.
func newManualRegistry(n int) (*Registry, *Table) {
	types := NewTypes()
	table := NewTable(n)
	return newRegistry(&testEnv{n: n, self: 1, types: types}, table), table
}

func TestTypesRegistry(t *testing.T) {
	ty := NewTypes()
	for _, known := range []string{"received", "persisted", "delivered"} {
		if _, err := ty.Lookup(known); err != nil {
			t.Fatalf("well-known type %q missing: %v", known, err)
		}
	}
	id, err := ty.Register("verified")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if id < 16 {
		t.Fatalf("custom type id %d collides with reserved space", id)
	}
	if _, err := ty.Register("verified"); !errors.Is(err, ErrTypeExists) {
		t.Fatalf("duplicate register err = %v", err)
	}
	if _, err := ty.Register("9bad"); !errors.Is(err, ErrBadTypeName) {
		t.Fatalf("bad name err = %v", err)
	}
	if _, err := ty.Register(""); !errors.Is(err, ErrBadTypeName) {
		t.Fatalf("empty name err = %v", err)
	}
	if name := ty.Name(id); name != "verified" {
		t.Fatalf("Name(%d) = %q", id, name)
	}
	if name := ty.Name(9999); name != "type(9999)" {
		t.Fatalf("unknown Name = %q", name)
	}
	if !ty.Known(TypeReceived) || ty.Known(9999) {
		t.Fatal("Known() misreports")
	}
	if got := len(ty.IDs()); got != 4 {
		t.Fatalf("IDs() has %d entries, want 4", got)
	}
}

func TestTableMonotonicity(t *testing.T) {
	tb := NewTable(3)
	if !tb.Update(2, TypeReceived, 10) {
		t.Fatal("first update not recorded")
	}
	if tb.Update(2, TypeReceived, 5) {
		t.Fatal("stale update advanced the counter")
	}
	if tb.Update(2, TypeReceived, 10) {
		t.Fatal("duplicate update advanced the counter")
	}
	if !tb.Update(2, TypeReceived, 11) {
		t.Fatal("newer update rejected")
	}
	if got := tb.Value(2, TypeReceived); got != 11 {
		t.Fatalf("Value = %d, want 11", got)
	}
	if got := tb.Value(1, TypeReceived); got != 0 {
		t.Fatalf("untouched cell = %d, want 0", got)
	}
	// Out of range is a no-op.
	if tb.Update(0, TypeReceived, 5) || tb.Update(4, TypeReceived, 5) {
		t.Fatal("out-of-range update recorded")
	}
	if tb.Value(0, TypeReceived) != 0 || tb.Value(4, TypeReceived) != 0 {
		t.Fatal("out-of-range value nonzero")
	}
}

// TestQuickTableMonotonic property-checks that the table value equals the
// running maximum of all updates, under any interleaving order.
func TestQuickTableMonotonic(t *testing.T) {
	f := func(updates []uint16) bool {
		tb := NewTable(1)
		var max uint64
		for _, u := range updates {
			v := uint64(u)
			tb.Update(1, TypeReceived, v)
			if v > max {
				max = v
			}
			if tb.Value(1, TypeReceived) != max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateAllAndEnsureType(t *testing.T) {
	tb := NewTable(2)
	tb.EnsureType(TypeReceived, 1, 5)
	tb.EnsureType(TypePersisted, 1, 5)
	tb.UpdateAll(1, 9)
	if tb.Value(1, TypeReceived) != 9 || tb.Value(1, TypePersisted) != 9 {
		t.Fatal("UpdateAll did not advance all rows")
	}
	// UpdateAll never regresses.
	tb.UpdateAll(1, 3)
	if tb.Value(1, TypeReceived) != 9 {
		t.Fatal("UpdateAll regressed a counter")
	}
}

// TestNoteReceivedMatchesPerCallSequence pins NoteReceived to the calls it
// replaces on the receive path — EnsureType for each well-known row,
// UpdateAll for the origin, Update for the receiver — including a custom row
// and a stale report.
func TestNoteReceivedMatchesPerCallSequence(t *testing.T) {
	const origin, by, custom = 2, 3, 16
	got, want := NewTable(3), NewTable(3)
	for _, tb := range []*Table{got, want} {
		tb.Update(1, custom, 4)
	}
	for _, seq := range []uint64{7, 5, 12} {
		got.NoteReceived(origin, by, seq)
		for _, typ := range []uint16{TypeReceived, TypePersisted, TypeDelivered} {
			want.EnsureType(typ, origin, seq)
		}
		want.UpdateAll(origin, seq)
		want.Update(by, TypeReceived, seq)
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Fatalf("after seq %d: NoteReceived gives %v, the per-call sequence %v", seq, got.Snapshot(), want.Snapshot())
		}
	}
	if v := got.Value(by, TypeDelivered); v != 0 {
		t.Fatalf("NoteReceived advanced the receiver's delivered cell to %d", v)
	}
	got.NoteReceived(0, by, 99)
	got.NoteReceived(origin, 4, 99)
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatal("out-of-range nodes were not ignored")
	}
}

func TestSnapshotRestore(t *testing.T) {
	tb := NewTable(3)
	tb.Update(1, TypeReceived, 7)
	tb.Update(3, TypePersisted, 2)
	snap := tb.Snapshot()

	tb2 := NewTable(3)
	tb2.Restore(snap)
	if tb2.Value(1, TypeReceived) != 7 || tb2.Value(3, TypePersisted) != 2 {
		t.Fatal("restore lost data")
	}
	// Mutating the snapshot must not affect the table.
	snap[TypeReceived][0] = 99
	if tb2.Value(1, TypeReceived) != 7 {
		t.Fatal("restore aliased the snapshot")
	}
	// Mismatched row sizes are ignored.
	tb3 := NewTable(2)
	tb3.Restore(map[uint16][]uint64{TypeReceived: {1, 2, 3}})
	if tb3.Value(1, TypeReceived) != 0 {
		t.Fatal("mismatched restore applied")
	}
}

// TestTableRowsAreSparseByTypeID covers the row slice's edges: ids in the gap
// between the well-known types and the first custom one (and beyond the
// slice) read as absent, UpdateAll and the snapshot skip them, and a restore
// materializes an id the table has never seen.
func TestTableRowsAreSparseByTypeID(t *testing.T) {
	const custom, far = firstCustomType + 1, 300
	tb := NewTable(2)
	if !tb.Update(2, custom, 5) || tb.Update(2, custom, 5) {
		t.Fatal("custom-type row: first report must advance, its repeat must not")
	}
	for _, absent := range []uint16{0, TypeDelivered, custom - 1, custom + 1, far} {
		if v := tb.Value(2, absent); v != 0 {
			t.Fatalf("type %d was never recorded but reads %d", absent, v)
		}
	}
	if !tb.UpdateAll(1, 9) {
		t.Fatal("UpdateAll found no row to advance")
	}
	want := map[uint16][]uint64{custom: {9, 5}}
	if got := tb.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after UpdateAll the table is %v, want only the one recorded row %v", got, want)
	}

	// An id the restoring table has never heard of, well past its rows.
	snap := map[uint16][]uint64{TypeReceived: {3, 4}, far: {7, 8}}
	tb.Restore(snap)
	want[TypeReceived], want[far] = snap[TypeReceived], snap[far]
	if got := tb.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Restore the table is %v, want %v", got, want)
	}
	prog, err := dsl.Compile("MIN($ALLWNODES)", &testEnv{n: 2, self: 1, types: NewTypes()})
	if err != nil {
		t.Fatal(err)
	}
	if f := tb.EvalLocked(prog); f != 3 {
		t.Fatalf("MIN over the restored received row = %d, want 3", f)
	}
}

func TestRegistryRegisterChangeRemove(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 3)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := reg.Register("p", "MIN($ALLWNODES)"); !errors.Is(err, ErrPredExists) {
		t.Fatalf("duplicate register err = %v", err)
	}
	if err := reg.Register("bad", "MIN($99)"); err == nil {
		t.Fatal("bad predicate registered")
	}
	if !reg.Has("p") || reg.Has("q") {
		t.Fatal("Has misreports")
	}
	st, err := reg.State("p", 0, time.Now())
	if err != nil || st.Source != "MIN($ALLWNODES)" || len(st.DependsOn) != 3 {
		t.Fatalf("State = %+v, %v", st, err)
	}
	if _, err := reg.State("q", 0, time.Now()); !errors.Is(err, ErrPredUnknown) {
		t.Fatalf("State of an unknown key err = %v", err)
	}

	report(reg, table, 1, 5)
	report(reg, table, 2, 5)
	report(reg, table, 3, 3)
	reg.Flush()
	if f, _ := reg.Frontier("p"); f != 3 {
		t.Fatalf("frontier = %d, want 3", f)
	}

	if err := reg.Change("p", "MAX($ALLWNODES)"); err != nil {
		t.Fatalf("change: %v", err)
	}
	if f, _ := reg.Frontier("p"); f != 5 {
		t.Fatalf("frontier after change = %d, want 5", f)
	}
	if err := reg.Change("missing", "MAX($1)"); !errors.Is(err, ErrPredUnknown) {
		t.Fatalf("change missing err = %v", err)
	}

	if err := reg.Remove("p"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := reg.Remove("p"); !errors.Is(err, ErrPredUnknown) {
		t.Fatalf("double remove err = %v", err)
	}
	if states := reg.States(0, time.Now()); len(states) != 0 {
		t.Fatalf("predicates after remove = %+v", states)
	}
}

func TestWaitForReleasesInOrder(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for _, seq := range []uint64{3, 1, 2} {
		seq := seq
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := reg.WaitFor(context.Background(), seq, "p"); err != nil {
				t.Errorf("waitfor %d: %v", seq, err)
				return
			}
			mu.Lock()
			order = append(order, int(seq))
			mu.Unlock()
		}()
	}
	time.Sleep(20 * time.Millisecond) // let waiters park
	for s := uint64(1); s <= 3; s++ {
		report(reg, table, 1, s)
		report(reg, table, 2, s)
		reg.Flush()
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("waiters released out of order: %v", order)
		}
	}
}

func TestWaitForImmediateWhenSatisfied(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 1)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	report(reg, table, 1, 10)
	reg.Flush()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := reg.WaitFor(ctx, 10, "p"); err != nil {
		t.Fatalf("satisfied waitfor blocked: %v", err)
	}
	if err := reg.WaitFor(ctx, 99, "p"); !errors.Is(err, ErrWaitCancelled) {
		t.Fatalf("unsatisfied waitfor err = %v", err)
	}
}

func TestWaitForUnknownPredicate(t *testing.T) {
	reg, _, _ := newTestRegistry(t, 1)
	if err := reg.WaitFor(context.Background(), 1, "nope"); !errors.Is(err, ErrPredUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveReleasesWaiters(t *testing.T) {
	reg, _, _ := newTestRegistry(t, 2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- reg.WaitFor(context.Background(), 5, "p") }()
	time.Sleep(20 * time.Millisecond)
	if err := reg.Remove("p"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter not released by Remove")
	}
}

func TestMonitorFiresOnAdvanceOnly(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var calls []uint64
	cancel, err := reg.Monitor("p", func(f uint64) {
		mu.Lock()
		calls = append(calls, f)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	report(reg, table, 1, 5)
	reg.Flush() // min still 0: no fire
	report(reg, table, 2, 3)
	reg.Flush() // min 3: fire
	reg.Flush() // unchanged: no fire
	report(reg, table, 2, 7)
	reg.Flush() // min 5: fire
	cancel()
	report(reg, table, 1, 9)
	reg.Flush() // cancelled: no fire

	mu.Lock()
	defer mu.Unlock()
	want := []uint64{3, 5}
	if len(calls) != len(want) || calls[0] != want[0] || calls[1] != want[1] {
		t.Fatalf("monitor calls = %v, want %v", calls, want)
	}
}

func TestMonitorUnknownPredicate(t *testing.T) {
	reg, _, _ := newTestRegistry(t, 1)
	if _, err := reg.Monitor("nope", func(uint64) {}); !errors.Is(err, ErrPredUnknown) {
		t.Fatalf("err = %v", err)
	}
}

// TestQuickFrontierMatchesOracle property-checks that after any sequence
// of random ACK updates, the registry frontier equals a naive re-evaluation
// of the predicate over a shadow table.
func TestQuickFrontierMatchesOracle(t *testing.T) {
	type update struct {
		Node uint8
		Seq  uint16
	}
	f := func(updates []update, kSeed uint8) bool {
		const n = 5
		k := int(kSeed)%n + 1
		pred := fmt.Sprintf("KTH_MIN(%d, $ALLWNODES)", k)
		reg, table, _ := newTestRegistry(t, n)
		if err := reg.Register("p", pred); err != nil {
			return false
		}
		shadow := make([]uint64, n)
		for _, u := range updates {
			node := int(u.Node)%n + 1
			seq := uint64(u.Seq)
			report(reg, table, node, seq)
			if seq > shadow[node-1] {
				shadow[node-1] = seq
			}
			reg.Flush()
			// Oracle: k-th smallest of shadow.
			cp := append([]uint64{}, shadow...)
			for i := 1; i < len(cp); i++ {
				for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
					cp[j-1], cp[j] = cp[j], cp[j-1]
				}
			}
			want := cp[k-1]
			got, _ := reg.Frontier("p")
			if got != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUpdatesAndRecompute(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 4)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for node := 1; node <= 4; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := uint64(1); s <= 500; s++ {
				report(reg, table, node, s)
				reg.Flush()
			}
		}()
	}
	wg.Wait()
	reg.Flush()
	if f, _ := reg.Frontier("p"); f != 500 {
		t.Fatalf("final frontier = %d, want 500", f)
	}
}
