package frontier

import "container/heap"

// waiter is one parked WaitFor caller. Its heap position is tracked in idx
// so cancellation can detach it in O(log n) instead of scanning the whole
// waiter set under the registry lock (the old []waiter slice made a mass
// cancellation of n waiters an O(n²) pathology).
type waiter struct {
	seq  uint64
	done chan struct{}
	// err is what WaitFor returns once done is closed: nil when the frontier
	// reached seq, else why the waiter was let go. Written before done is
	// closed.
	err error
	// idx is the waiter's position in its predicate's heap, maintained by
	// the heap.Interface methods; -1 once released or detached. Only valid
	// under the registry mutex.
	idx int
}

// waiterHeap is a seq-ordered min-heap of parked waiters: the next waiter
// to release is always at the root, so releasing after a frontier advance
// costs O(released · log n) and an idle advance costs one O(1) peek,
// independent of how many waiters are parked.
type waiterHeap []*waiter

var _ heap.Interface = (*waiterHeap)(nil)

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].seq < h[j].seq }
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.idx = len(*h)
	*h = append(*h, w)
}

func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.idx = -1
	*h = old[:n-1]
	return w
}
