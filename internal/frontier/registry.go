package frontier

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/dsl"
	"stabilizer/internal/metrics"
)

// MonitorFunc receives the most recent stability frontier of a predicate
// each time it advances. Because control information is monotonic,
// intermediate values may be skipped: an upcall with frontier 91 implies
// the stability of every earlier message (paper §III-A).
type MonitorFunc func(frontier uint64)

// Registry stores compiled predicates keyed by name and drives their
// re-evaluation as the ACK recorder advances. It implements the paper's
// three control-plane interfaces (§III-D): waitfor,
// monitor_stability_frontier, and register/change_predicate.
//
// Evaluation is incremental and off the update path. Every predicate is
// indexed by the recorder-table cells it reads; an ACK update marks dirty
// only the predicates whose operands moved (NoteCellUpdate/NoteNodeUpdate)
// and wakes the registry's drainer goroutine, which re-evaluates the dirty
// set, releases waiters and fires monitors. A lone update is drained at
// once; updates carried by goroutines already runnable when the drainer
// wakes, or arriving while a drain is running, coalesce into one drain, so a
// burst of k ACKs costs one evaluation per dirty predicate, not k (deferred
// update stabilization, with the batch sized by load instead of a timer).
type Registry struct {
	env   dsl.Env
	table *Table

	// pub spans one whole publication: Flush and Change take it before mu,
	// collect under mu what the frontier's move owes the outside world, drop
	// mu and pay it out through deliver. The lock order is pub before mu,
	// never the reverse; everything else (Note*, WaitFor, Register, Remove,
	// OnAdvance, Monitor, the reads) takes mu alone, so a callback may call
	// any of those, and must not call Change, Flush or Close.
	pub sync.Mutex

	mu    sync.Mutex
	preds map[string]*predicate
	// byCell and byNode invert each predicate's read set: byCell keys the
	// exact (node, type) cells a program loads, byNode the WAN nodes it
	// depends on (for UpdateAll-style whole-node advances). dirty is the
	// set of predicates whose operands moved since the last drain.
	byCell map[dsl.Cell]map[*predicate]struct{}
	byNode map[int]map[*predicate]struct{}
	dirty  map[*predicate]struct{}
	// noted[n] is set while every predicate depending on node n is dirty, so
	// a NoteNodeUpdate for n has nothing to add and returns after one load.
	// It is set under mu after the marks and cleared under mu before a drain
	// evaluates and whenever a predicate over n is indexed or unindexed.
	noted []atomic.Bool
	// observers is copy-on-write: OnAdvance, Monitor, their cancel funcs and
	// Remove swap in a fresh slice under mu, so the snapshot a publication
	// takes under mu stays safe to iterate after unlock.
	observers    []observer
	nextObserver int
	// closed is set by Close, under mu: it releases every parked waiter and
	// refuses the WaitFor calls that follow.
	closed bool

	// wake is the drainer's doorbell. One pending poke covers every Note*
	// that lands before the drainer takes it: the drain that follows sees
	// all their dirty marks. stop ends the drainer and done reports its
	// exit; all three are nil in a registry built without one (newRegistry).
	wake      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// Instrumentation (optional; see EnableMetrics).
	recomputes   *metrics.Counter
	predEvals    *metrics.Counter
	monitorFires *metrics.Counter
	waiters      *metrics.Gauge
	dirtyPreds   *metrics.Gauge
	frontiers    *metrics.GaugeVec
	tickDur      *metrics.Histogram
}

// observer is one OnAdvance or Monitor registration. An advance hook has no
// key and hears every predicate before waiters are released; a monitor hears
// its key only, after them (late). ids are registry-wide, so a cancel that
// outlives its predicate detaches nothing else.
type observer struct {
	id   int
	key  string
	late bool
	fn   func(key string, old, new uint64)
}

type predicate struct {
	key      string
	prog     *dsl.Program
	cells    []dsl.Cell
	frontier uint64
	// delivered is the highest frontier observers have been told (the install
	// value to begin with): never below frontier, above it only while a swap
	// to a stronger predicate has the frontier retreated. Written under pub
	// and mu; it goes with the predicate at Remove.
	delivered uint64
	// gauge is the predicate's child of the frontiers family, resolved once
	// at install (nil with metrics off): an advance stores into it instead
	// of looking the label up. Remove deletes the child from the family.
	gauge *metrics.Gauge
	// lag times how long frontier has sat still below the send head; State
	// and States observe it under mu.
	lag lag

	waiters waiterHeap
}

// NewRegistry creates a predicate registry evaluating against table and
// resolving predicate sources against env, and starts its drainer
// goroutine; pair with Close.
func NewRegistry(env dsl.Env, table *Table) *Registry {
	r := newRegistry(env, table)
	r.wake = make(chan struct{}, 1)
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.drainLoop()
	return r
}

// newRegistry builds a registry with no drainer: Note* only marks dirty and
// nothing is evaluated until Flush. Benchmarks use it to time one drain pass
// in isolation.
func newRegistry(env dsl.Env, table *Table) *Registry {
	return &Registry{
		env:    env,
		table:  table,
		preds:  make(map[string]*predicate),
		byCell: make(map[dsl.Cell]map[*predicate]struct{}),
		byNode: make(map[int]map[*predicate]struct{}),
		dirty:  make(map[*predicate]struct{}),
		noted:  make([]atomic.Bool, table.N()+1),
	}
}

// EnableMetrics publishes the registry's control-plane instrumentation into
// m: recompute passes, per-predicate evaluations, monitor fires, pending
// waiters, dirty-set depth, tick duration and a per-predicate frontier
// gauge. Call before Register; not safe to call concurrently with use.
func (r *Registry) EnableMetrics(m *metrics.Registry) {
	r.recomputes = m.Counter("stabilizer_frontier_recomputes_total",
		"Predicate re-evaluation passes over the ACK recorder.")
	r.predEvals = m.Counter("stabilizer_frontier_pred_evals_total",
		"Individual predicate evaluations against the ACK recorder.")
	r.monitorFires = m.Counter("stabilizer_frontier_monitor_fires_total",
		"Stability-frontier monitor callbacks invoked.")
	r.waiters = m.Gauge("stabilizer_frontier_waiters",
		"WaitFor callers currently blocked on a predicate.")
	r.dirtyPreds = m.Gauge("stabilizer_frontier_dirty_preds",
		"Predicates marked dirty and awaiting the next stabilization drain.")
	r.frontiers = m.GaugeVec("stabilizer_frontier_seq",
		"Last computed stability frontier per predicate.", "predicate")
	r.tickDur = m.Histogram("stabilizer_frontier_tick_duration_seconds",
		"Duration of stabilization drains (dirty-set evaluation passes).",
		metrics.LatencyOpts)
}

// drainLoop is the drainer goroutine: one Flush per poke. A Note* that
// lands after a drain emptied the dirty set finds the doorbell empty (the
// poke was taken before the drain began) and rings it again, so no mark is
// ever left behind.
//
// The drainer yields once between the poke and the drain. A report seldom
// comes alone — one message's ACKs arrive on one connection per peer — and
// the goroutines carrying the rest are usually already runnable; letting
// them mark first turns one drain per report into one per burst. On an idle
// machine the yield returns at once.
func (r *Registry) drainLoop() {
	defer close(r.done)
	for {
		select {
		case <-r.wake:
			runtime.Gosched()
			r.Flush()
		case <-r.stop:
			return
		}
	}
}

// Close stops the drainer and performs a final drain so no dirty predicate
// is left unevaluated, then lets every waiter the drain did not satisfy go
// with ErrClosed; a WaitFor after Close returns ErrClosed at once. A Note*
// after Close still marks dirty and returns at once, but nothing evaluates
// the mark until a Flush. Safe to call more than once; no callback may call
// it.
func (r *Registry) Close() {
	if r.stop != nil {
		r.closeOnce.Do(func() {
			close(r.stop)
			<-r.done
		})
	}
	r.Flush()
	r.mu.Lock()
	r.closed = true
	released := 0
	for _, p := range r.preds {
		released += p.dropWaitersLocked(ErrClosed)
	}
	r.mu.Unlock()
	r.addWaiters(-released)
}

// OnAdvance adds a hook invoked with (key, old, new) after a predicate's
// frontier moves past everything the key's observers have heard — before
// waiters are released, so latency samples exist by the time WaitFor returns.
// Per key each call's old is the previous call's new, strictly increasing: a
// frontier that a swap to a stronger predicate pulled back re-climbs in
// silence. The core uses it to record stability latency; invariant checkers
// use it to watch monotonicity. Hooks run one call at a time, in registration
// order, and accumulate until their cancel func detaches them (cancel is
// idempotent). fn must not call Change, Flush or Close on this registry. Safe
// to call on a live registry; a nil fn returns a harmless no-op cancel.
func (r *Registry) OnAdvance(fn func(key string, old, new uint64)) (cancel func()) {
	if fn == nil {
		return func() {}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.observeLocked(observer{fn: fn})
}

// Monitor registers fn to run with key's newest frontier each time it
// advances, after the waiters that advance satisfies are released, and returns
// a cancel function. fn hears a strictly increasing sequence, as OnAdvance
// hooks do, and like them runs on the stabilization drain path (or on Change's
// caller) and must not call Change, Flush or Close on this registry; keep it
// short or hand off to a goroutine. Remove detaches the key's monitors.
func (r *Registry) Monitor(key string, fn MonitorFunc) (cancel func(), err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.preds[key]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	return r.observeLocked(observer{key: key, late: true,
		fn: func(_ string, _, f uint64) { fn(f) }}), nil
}

// observeLocked publishes the observer list extended by o under a fresh id and
// returns the cancel that detaches it. Caller holds mu.
func (r *Registry) observeLocked(o observer) (cancel func()) {
	id := r.nextObserver
	r.nextObserver++
	o.id = id
	r.observers = append(slices.Clip(r.observers), o)
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.observers = slices.DeleteFunc(slices.Clone(r.observers), func(o observer) bool { return o.id == id })
	}
}

// installLocked evaluates prog and installs it under key, which the caller
// has checked is free, mirroring the first frontier into the predicate's
// gauge. Caller holds mu.
func (r *Registry) installLocked(key string, prog *dsl.Program) {
	f := r.table.EvalLocked(prog)
	p := &predicate{key: key, prog: prog, cells: prog.Cells(), frontier: f, delivered: f}
	if r.frontiers != nil {
		p.gauge = r.frontiers.With(key)
	}
	setFrontierGauge(p.gauge, p.frontier)
	r.preds[key] = p
	r.indexLocked(p)
}

// setFrontierGauge mirrors a predicate's frontier into its gauge.
func setFrontierGauge(g *metrics.Gauge, f uint64) {
	if g != nil {
		g.Set(int64(f))
	}
}

// addWaiters shifts the pending-waiter gauge by delta.
func (r *Registry) addWaiters(delta int) {
	if r.waiters != nil && delta != 0 {
		r.waiters.Add(int64(delta))
	}
}

// WaiterCount returns the number of WaitFor callers currently blocked.
func (r *Registry) WaiterCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.preds {
		n += p.waiters.Len()
	}
	return n
}

// indexLocked adds p to the inverted cell and node indexes. Caller holds mu.
func (r *Registry) indexLocked(p *predicate) {
	for _, c := range p.cells {
		m := r.byCell[c]
		if m == nil {
			m = make(map[*predicate]struct{})
			r.byCell[c] = m
		}
		m[p] = struct{}{}
	}
	for _, n := range p.prog.DependsOn() {
		m := r.byNode[n]
		if m == nil {
			m = make(map[*predicate]struct{})
			r.byNode[n] = m
		}
		m[p] = struct{}{}
		r.clearNotedLocked(n)
	}
}

// unindexLocked removes p from the inverted indexes and the dirty set.
// Caller holds mu.
func (r *Registry) unindexLocked(p *predicate) {
	for _, c := range p.cells {
		if m := r.byCell[c]; m != nil {
			delete(m, p)
			if len(m) == 0 {
				delete(r.byCell, c)
			}
		}
	}
	for _, n := range p.prog.DependsOn() {
		if m := r.byNode[n]; m != nil {
			delete(m, p)
			if len(m) == 0 {
				delete(r.byNode, n)
			}
		}
		r.clearNotedLocked(n)
	}
	delete(r.dirty, p)
}

// clearNotedLocked clears node n's note flag, so the next NoteNodeUpdate for
// n marks its predicates again. Caller holds mu.
func (r *Registry) clearNotedLocked(n int) {
	if r.noted[n].Load() {
		r.noted[n].Store(false)
	}
}

// Register compiles source and installs it under key. Registering an
// existing key fails; use Change to swap a predicate at runtime.
func (r *Registry) Register(key, source string) error {
	prog, err := dsl.Compile(source, r.env)
	if err != nil {
		return fmt.Errorf("register predicate %q: %w", key, err)
	}
	r.mu.Lock()
	if _, dup := r.preds[key]; dup {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPredExists, key)
	}
	r.installLocked(key, prog)
	r.mu.Unlock()
	return nil
}

// RegisterBatch compiles and installs a set of predicates atomically:
// either every source compiles and every key is new, and all of them are
// registered in one step, or nothing is registered at all. Keys are
// validated in sorted order so the first error reported is deterministic.
func (r *Registry) RegisterBatch(preds map[string]string) error {
	keys := make([]string, 0, len(preds))
	for k := range preds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Compile everything before taking the lock: compilation is the slow,
	// fallible part and needs no registry state.
	progs := make(map[string]*dsl.Program, len(preds))
	for _, k := range keys {
		prog, err := dsl.Compile(preds[k], r.env)
		if err != nil {
			return fmt.Errorf("register predicate %q: %w", k, err)
		}
		progs[k] = prog
	}
	r.mu.Lock()
	for _, k := range keys {
		if _, dup := r.preds[k]; dup {
			r.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrPredExists, k)
		}
	}
	for _, k := range keys {
		r.installLocked(k, progs[k])
	}
	r.mu.Unlock()
	return nil
}

// Change swaps the predicate under key for a newly compiled source, at
// runtime (paper §III-D / §VI-D dynamic reconfiguration). The frontier is
// re-evaluated immediately and published on the caller's goroutine through the
// same deliver a drain uses, so callers that swap to a weaker predicate
// observe the effect — waiters released, monitors fired; send-log reclaim
// depends on that when the full set has stopped acking — when Change returns.
// Switching to a stronger predicate can move the frontier backwards — the
// paper leaves handling that gap to the application, and so do we: observers
// hear nothing until it passes what they were last told. Pending waiters stay
// queued and are judged against the new predicate. Change waits for a
// publication in progress, so no callback may call it.
func (r *Registry) Change(key, source string) error {
	prog, err := dsl.Compile(source, r.env)
	if err != nil {
		return fmt.Errorf("change predicate %q: %w", key, err)
	}
	r.pub.Lock()
	defer r.pub.Unlock()
	r.mu.Lock()
	p, ok := r.preds[key]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	r.unindexLocked(p)
	p.prog = prog
	p.cells = prog.Cells()
	r.indexLocked(p)
	w := publication{observers: r.observers}
	w.move(p, r.table.EvalLocked(prog))
	r.mu.Unlock()
	r.deliver(w)
	return nil
}

// Remove deletes the predicate under key and detaches its monitors. Pending
// waiters are released with an error wrapping ErrPredUnknown: the frontier
// they waited for will never be computed. A later Register under the same
// key starts a fresh event stream.
func (r *Registry) Remove(key string) error {
	r.mu.Lock()
	p, ok := r.preds[key]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	delete(r.preds, key)
	r.unindexLocked(p)
	r.observers = slices.DeleteFunc(slices.Clone(r.observers), func(o observer) bool { return o.late && o.key == key })
	released := p.dropWaitersLocked(fmt.Errorf("%w: %q removed while waited on", ErrPredUnknown, key))
	r.mu.Unlock()
	if r.frontiers != nil {
		r.frontiers.Delete(key)
	}
	r.addWaiters(-released)
	return nil
}

// Has reports whether key is registered.
func (r *Registry) Has(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.preds[key]
	return ok
}

// PredicateState is one registered predicate as State and States read it.
type PredicateState struct {
	Key      string
	Source   string
	Frontier uint64
	// DependsOn lists the WAN nodes the predicate reads; Cells the recorder
	// cells, in first-load order (the peers holding a frontier are those
	// whose cells sit at or below it).
	DependsOn []int
	Cells     []dsl.Cell
	// Waiters is the number of WaitFor callers parked on the predicate.
	Waiters int
	// Stuck is how long Frontier has sat still below the head the read was
	// given, measured between readings: the clock starts at the first read
	// that finds the frontier at this value with messages outstanding.
	Stuck time.Duration
}

// stateLocked reads p and takes one reading of its stall clock against head
// at now. Caller holds mu.
func (p *predicate) stateLocked(head uint64, now time.Time) PredicateState {
	return PredicateState{
		Key:       p.key,
		Source:    p.prog.Source(),
		Frontier:  p.frontier,
		DependsOn: p.prog.DependsOn(),
		Cells:     p.cells,
		Waiters:   p.waiters.Len(),
		Stuck:     p.lag.observe(p.frontier, head, now),
	}
}

// State reads the predicate under key in one hold of the registry lock, with
// its stall clock observed against head (the highest sequence of the stream
// the predicate trails) at now.
func (r *Registry) State(key string, head uint64, now time.Time) (PredicateState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.preds[key]
	if !ok {
		return PredicateState{}, fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	return p.stateLocked(head, now), nil
}

// States is State for every registered predicate, sorted by key, read under
// one hold of the registry lock: a predicate removed or swapped beside the
// call is either wholly in the result or wholly absent, never a key without
// its source.
func (r *Registry) States(head uint64, now time.Time) []PredicateState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PredicateState, 0, len(r.preds))
	for _, p := range r.preds {
		out = append(out, p.stateLocked(head, now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Frontier returns the last computed stability frontier of key.
func (r *Registry) Frontier(key string) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.preds[key]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	return p.frontier, nil
}

// WaitFor blocks until the stability frontier of key reaches seq, the
// context is cancelled, the predicate is removed or the registry is closed.
// It returns nil only in the first case.
func (r *Registry) WaitFor(ctx context.Context, seq uint64, key string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	p, ok := r.preds[key]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	if p.frontier >= seq {
		r.mu.Unlock()
		return nil
	}
	w := &waiter{seq: seq, done: make(chan struct{})}
	heap.Push(&p.waiters, w)
	r.mu.Unlock()
	r.addWaiters(1)

	select {
	case <-w.done:
		return w.err
	case <-ctx.Done():
		r.detachWaiter(p, w)
		// The waiter may have been released concurrently with cancellation;
		// prefer what released it.
		select {
		case <-w.done:
			return w.err
		default:
		}
		return fmt.Errorf("%w: predicate %q seq %d: %v", ErrWaitCancelled, key, seq, ctx.Err())
	}
}

// detachWaiter removes a cancelled waiter from its predicate's heap in
// O(log n). The predicate object stays valid across Change (which mutates
// in place); after Remove, Close or release the waiter's idx is already -1
// and this is a no-op.
func (r *Registry) detachWaiter(p *predicate, w *waiter) {
	r.mu.Lock()
	if w.idx >= 0 {
		heap.Remove(&p.waiters, w.idx)
		r.mu.Unlock()
		r.addWaiters(-1)
		return
	}
	r.mu.Unlock()
}

// NoteCellUpdate records that recorder cell (node, typ) advanced: every
// predicate reading that cell is marked dirty and the drainer is woken.
func (r *Registry) NoteCellUpdate(node int, typ uint16) {
	r.mu.Lock()
	for p := range r.byCell[dsl.Cell{Node: node, Type: typ}] {
		r.dirty[p] = struct{}{}
	}
	r.wakeLocked()
}

// NoteNodeUpdate records that every stability counter of node advanced
// (Table.UpdateAll — the origin's own counters move on sequence
// assignment): every predicate depending on that node is marked dirty and
// the drainer is woken. A note that finds node's flag set returns at once:
// its predicates are all dirty and a drain is pending.
//
// Skipping is safe because the caller writes the table before the note loads
// the flag, and a drain clears the flag before it reads the table: a note
// that still sees the flag set made its write before that clear, so the
// drain that clears it evaluates the write.
func (r *Registry) NoteNodeUpdate(node int) {
	inRange := node >= 0 && node < len(r.noted)
	if inRange && r.noted[node].Load() {
		return
	}
	r.mu.Lock()
	for p := range r.byNode[node] {
		r.dirty[p] = struct{}{}
	}
	if inRange {
		r.noted[node].Store(true)
	}
	r.wakeLocked()
}

// wakeLocked finishes a Note*: publishes the dirty gauge and, when anything
// is dirty, rings the drainer's doorbell without blocking (a full doorbell,
// or a nil one in a drainer-less registry, already means "drain pending" or
// "caller flushes"). Caller holds mu; released on return.
func (r *Registry) wakeLocked() {
	n := len(r.dirty)
	if r.dirtyPreds != nil {
		r.dirtyPreds.Set(int64(n))
	}
	r.mu.Unlock()
	if n == 0 {
		return
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Flush drains the dirty set now: every dirty predicate is re-evaluated and
// what advanced is published through deliver. The drainer calls this once per
// wakeup; Close and tests call it to drain synchronously. No callback may call
// it: it waits for the publication the callback is running in.
func (r *Registry) Flush() {
	r.pub.Lock()
	defer r.pub.Unlock()
	r.mu.Lock()
	for n := range r.noted {
		r.clearNotedLocked(n)
	}
	evals := len(r.dirty)
	if evals == 0 {
		r.mu.Unlock()
		return
	}
	var start time.Time
	if r.tickDur != nil {
		start = time.Now()
	}
	w := publication{observers: r.observers}
	for p := range r.dirty {
		delete(r.dirty, p)
		if f := r.table.EvalLocked(p.prog); f > p.frontier {
			w.move(p, f)
		}
	}
	r.mu.Unlock()
	if r.tickDur != nil {
		r.tickDur.Observe(int64(time.Since(start)))
	}
	if r.recomputes != nil {
		r.recomputes.Inc()
	}
	if r.predEvals != nil {
		r.predEvals.Add(int64(evals))
	}
	if r.dirtyPreds != nil {
		r.dirtyPreds.Set(0)
	}
	r.deliver(w)
}

// publication is what one Flush or Change collected under mu and owes the
// world outside it; deliver pays it out.
type publication struct {
	advances  []advance
	released  []chan struct{}
	observers []observer
}

// advance is one predicate's move to frontier new, the gauge's next value. old
// is the highest frontier its observers have been told, and they hear the move
// only when new passes it: not when the frontier retreated, nor while it
// re-climbs ground already delivered.
type advance struct {
	key      string
	gauge    *metrics.Gauge
	old, new uint64
}

// move sets p's frontier to f and collects what that owes: the advance, and
// the waiters f satisfies. Caller holds pub and mu.
func (w *publication) move(p *predicate, f uint64) {
	w.advances = append(w.advances, advance{key: p.key, gauge: p.gauge, old: p.delivered, new: f})
	p.frontier = f
	if f > p.delivered {
		p.delivered = f
	}
	w.released = append(w.released, p.releaseWaitersLocked()...)
}

// deliver is the registry's one way out: gauge moves and advance hooks first,
// then waiter releases — so latency observers have run by the time a WaitFor
// caller resumes — then monitors, so send-log reclaim stays behind the release
// of the waiters it frees entries for. Caller holds pub and not mu; pub is
// what makes each key's stream ordered across drains and swaps.
func (r *Registry) deliver(w publication) {
	for _, a := range w.advances {
		setFrontierGauge(a.gauge, a.new)
		a.notify(w.observers, false)
	}
	r.addWaiters(-len(w.released))
	releaseAll(w.released)
	fires := 0
	for _, a := range w.advances {
		fires += a.notify(w.observers, true)
	}
	if fires > 0 && r.monitorFires != nil {
		r.monitorFires.Add(int64(fires))
	}
}

// notify tells a to the advance hooks (late false) or to its key's monitors
// (late true) and returns how many it called.
func (a advance) notify(observers []observer, late bool) (called int) {
	if a.new <= a.old {
		return 0
	}
	for _, o := range observers {
		if o.late == late && (!late || o.key == a.key) {
			o.fn(a.key, a.old, a.new)
			called++
		}
	}
	return called
}

// releaseWaitersLocked pops and returns the done channels of waiters
// satisfied by the current frontier, in ascending seq order. Caller holds
// the registry mutex.
func (p *predicate) releaseWaitersLocked() []chan struct{} {
	if p.waiters.Len() == 0 || p.waiters[0].seq > p.frontier {
		return nil
	}
	var released []chan struct{}
	for p.waiters.Len() > 0 && p.waiters[0].seq <= p.frontier {
		released = append(released, heap.Pop(&p.waiters).(*waiter).done)
	}
	return released
}

// dropWaitersLocked lets every waiter parked on p go with err and returns
// how many there were. Caller holds the registry mutex.
func (p *predicate) dropWaitersLocked(err error) int {
	n := p.waiters.Len()
	for _, w := range p.waiters {
		w.idx = -1
		w.err = err
		close(w.done)
	}
	p.waiters = nil
	return n
}

func releaseAll(chans []chan struct{}) {
	for _, c := range chans {
		close(c)
	}
}
