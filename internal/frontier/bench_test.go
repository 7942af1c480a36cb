package frontier

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// farFuture parks a waiter where no benchmark advance can release it, so the
// heap stays populated while the advance path is measured.
const farFuture = uint64(1) << 62

const benchNodes = 8

// parkWaiters pushes n never-released waiters onto the registry's predicates
// round-robin, sharing one done channel (they are never closed). White-box:
// real WaitFor parks a goroutine per waiter, which would dominate setup at
// the 1M scale this grid measures.
func parkWaiters(b *testing.B, reg *Registry, n int) {
	b.Helper()
	done := make(chan struct{})
	reg.mu.Lock()
	preds := make([]*predicate, 0, len(reg.preds))
	for _, p := range reg.preds {
		preds = append(preds, p)
	}
	for i := 0; i < n; i++ {
		p := preds[i%len(preds)]
		heap.Push(&p.waiters, &waiter{seq: farFuture + uint64(i), done: done})
	}
	reg.mu.Unlock()
}

// BenchmarkFrontierAdvance measures one batched stabilization round — every
// node's counters advance, every predicate goes dirty, one drain — across a
// predicate × parked-waiter grid. Parked waiters sit above the frontier, so
// their count must not show in the advance cost: the waiter heap makes the
// not-yet-satisfied population O(1) per drain, where the old sorted-slice
// scan made it O(waiters).
func BenchmarkFrontierAdvance(b *testing.B) {
	for _, g := range []struct{ preds, waiters int }{
		{1, 1_000},
		{1000, 1_000},
		{1000, 100_000},
		{1000, 1_000_000},
	} {
		b.Run(fmt.Sprintf("preds=%d/waiters=%d", g.preds, g.waiters), func(b *testing.B) {
			reg, tbl := newManualRegistry(benchNodes) // notes only mark dirty; Flush is the drain
			tbl.EnsureType(TypeReceived, 1, 0)        // UpdateAll advances only existing rows
			for i := 0; i < g.preds; i++ {
				if err := reg.Register(fmt.Sprintf("p%d", i), "MIN($ALLWNODES)"); err != nil {
					b.Fatal(err)
				}
			}
			parkWaiters(b, reg, g.waiters)
			b.ResetTimer()
			var seq uint64
			for i := 0; i < b.N; i++ {
				seq++
				for node := 1; node <= benchNodes; node++ {
					tbl.UpdateAll(node, seq)
					reg.NoteNodeUpdate(node)
				}
				reg.Flush()
			}
			b.StopTimer()
			if got, err := reg.Frontier("p0"); err != nil || got != seq {
				b.Fatalf("frontier = %d, %v; want %d", got, err, seq)
			}
		})
	}
}

// BenchmarkWaiterReleaseDrain measures a drain that actually releases k
// waiters: park k below the next frontier value, advance, flush. The heap
// pops exactly the satisfied prefix in seq order.
func BenchmarkWaiterReleaseDrain(b *testing.B) {
	for _, k := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("waiters=%d", k), func(b *testing.B) {
			reg, tbl := newManualRegistry(benchNodes)
			tbl.EnsureType(TypeReceived, 1, 0)
			if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
				b.Fatal(err)
			}
			var base uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reg.mu.Lock()
				p := reg.preds["p"]
				for j := 1; j <= k; j++ {
					heap.Push(&p.waiters, &waiter{seq: base + uint64(j), done: make(chan struct{})})
				}
				reg.mu.Unlock()
				base += uint64(k)
				for node := 1; node <= benchNodes; node++ {
					tbl.UpdateAll(node, base)
				}
				reg.NoteNodeUpdate(1)
				b.StartTimer()
				reg.Flush()
			}
			b.StopTimer()
			if n := reg.WaiterCount(); n != 0 {
				b.Fatalf("%d waiters left parked", n)
			}
			b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "releases/s")
		})
	}
}

// BenchmarkDetachCancel measures mass cancellation: k parked waiters
// detached in random order, each an O(log n) heap removal. The old slice
// scan made this wave O(k²).
func BenchmarkDetachCancel(b *testing.B) {
	for _, k := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("waiters=%d", k), func(b *testing.B) {
			reg, _, _ := newTestRegistry(b, benchNodes)
			if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
				b.Fatal(err)
			}
			order := rand.New(rand.NewSource(1)).Perm(k)
			done := make(chan struct{})
			ws := make([]*waiter, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reg.mu.Lock()
				p := reg.preds["p"]
				for j := 0; j < k; j++ {
					ws[j] = &waiter{seq: farFuture + uint64(j), done: done}
					heap.Push(&p.waiters, ws[j])
				}
				reg.mu.Unlock()
				b.StartTimer()
				for _, j := range order {
					reg.detachWaiter(p, ws[j])
				}
			}
			b.StopTimer()
			if n := reg.WaiterCount(); n != 0 {
				b.Fatalf("%d waiters left parked", n)
			}
			b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "cancels/s")
		})
	}
}

// BenchmarkIdlePredicates measures the inverted index's insulation: one hot
// predicate reads received counters while idle predicates read persisted
// ones, and an inline-mode received advance must evaluate only the hot
// predicate — ns/op should stay flat as the idle population grows.
func BenchmarkIdlePredicates(b *testing.B) {
	for _, idle := range []int{0, 256, 4096} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			reg, tbl, _ := newTestRegistry(b, benchNodes)
			if err := reg.Register("hot", "MIN($ALLWNODES)"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < idle; i++ {
				if err := reg.Register(fmt.Sprintf("idle%d", i), "MIN($ALLWNODES.persisted)"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var seq uint64
			for i := 0; i < b.N; i++ {
				seq++
				for node := 1; node <= benchNodes; node++ {
					tbl.Update(node, TypeReceived, seq)
					reg.NoteCellUpdate(node, TypeReceived)
				}
			}
			b.StopTimer()
			if got, err := reg.Frontier("hot"); err != nil || got != seq {
				b.Fatalf("hot frontier = %d, %v; want %d", got, err, seq)
			}
		})
	}
}
