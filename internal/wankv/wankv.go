// Package wankv is the paper's WAN K/V store (§V-A): a single-data-center
// object store (internal/kvstore) extended with Stabilizer geo-replication.
// Each WAN node has full read-write access to its locally owned pool of
// keys and read-only, asynchronously updated mirrors of every other node's
// pool. The K/V API is extended with the paper's get_stability_frontier,
// register_predicate and change_predicate functions so clients can pick and
// switch consistency models at runtime.
package wankv

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/kvstore"
)

// Errors returned by the store.
var (
	ErrBadUpdate = errors.New("wankv: malformed replicated update")
	ErrBadOrigin = errors.New("wankv: origin index out of range")
)

// PutResult describes a committed local write.
type PutResult struct {
	// Seq is the Stabilizer sequence number carrying the update; feed it
	// to WaitStable / stability predicates.
	Seq uint64
	// Version is the store version assigned to the write.
	Version uint64
}

// Store is one node's view of the geo-replicated K/V system.
type Store struct {
	node    *core.Node
	self    int
	mirrors []*kvstore.Store // mirrors[i] holds origin i+1's pool
	onApply func(origin int, key string, ver uint64)

	applyMu   sync.Mutex
	applyCond sync.Cond
	appliedTo []uint64 // appliedTo[i]: highest origin-(i+1) seq applied locally
}

// Option configures a Store.
type Option func(*Store)

// WithLocalStore substitutes a prebuilt store (e.g. one with a WAL) for the
// locally owned pool.
func WithLocalStore(s *kvstore.Store) Option {
	return func(w *Store) { w.mirrors[w.self-1] = s }
}

// WithApplyHook registers a callback invoked after each replicated update
// is applied to a mirror (used by experiments to timestamp deliveries).
func WithApplyHook(fn func(origin int, key string, ver uint64)) Option {
	return func(w *Store) { w.onApply = fn }
}

// New attaches a geo-replicated K/V store to node. It registers a delivery
// upcall on the node; create the store before sending traffic.
func New(node *core.Node, opts ...Option) *Store {
	n := node.Topology().N()
	w := &Store{
		node:      node,
		self:      node.Self(),
		mirrors:   make([]*kvstore.Store, n),
		appliedTo: make([]uint64, n),
	}
	w.applyCond.L = &w.applyMu
	for i := range w.mirrors {
		w.mirrors[i] = kvstore.New()
	}
	for _, o := range opts {
		o(w)
	}
	node.OnDeliver(w.apply)
	return w
}

// Node returns the underlying Stabilizer node.
func (w *Store) Node() *core.Node { return w.node }

// Put writes a new version of key into the locally owned pool and streams
// the update to every mirror. Like the paper's put, it is locally stable on
// return; use WaitStable for stronger guarantees.
func (w *Store) Put(key string, value []byte) (PutResult, error) {
	return w.PutCtx(nil, key, value) // nil: wait at a full send log without deadline
}

// PutCtx is Put with the caller's patience attached: when the node's send
// log is bounded (core.Config.Flow) and full, the put waits for space only as
// long as ctx allows — not at all when ctx is already done — and then fails
// with an error wrapping both transport.ErrBackpressure and ctx.Err(). The
// version is committed to the local pool either way — only replication is
// refused — so callers shedding load should retry the same key rather than
// treat the write as lost. value is the caller's again on return: the pool
// and the send log each keep their own copy (transport.SendLog.AppendCtx).
func (w *Store) PutCtx(ctx context.Context, key string, value []byte) (PutResult, error) {
	ver, err := w.local().Put(key, value)
	if err != nil {
		return PutResult{}, err
	}
	v, err := w.local().GetVersion(key, ver)
	if err != nil {
		return PutResult{}, err
	}
	seq, err := w.node.SendCtx(ctx, encodeUpdate(key, value, ver, v.Time))
	if err != nil {
		return PutResult{}, err
	}
	return PutResult{Seq: seq, Version: ver}, nil
}

// PutWait is Put followed by WaitStable under the named predicate: the
// write returns only once it satisfies the chosen consistency model.
func (w *Store) PutWait(ctx context.Context, key string, value []byte, predicateKey string) (PutResult, error) {
	res, err := w.Put(key, value)
	if err != nil {
		return PutResult{}, err
	}
	if err := w.node.WaitFor(ctx, res.Seq, predicateKey); err != nil {
		return res, err
	}
	return res, nil
}

// Get reads the latest version of key from the locally owned pool.
func (w *Store) Get(key string) (kvstore.Version, error) {
	return w.local().Get(key)
}

// GetFrom reads the latest mirrored version of key from origin's pool.
// Mirrors are read-only and asynchronously updated.
func (w *Store) GetFrom(origin int, key string) (kvstore.Version, error) {
	m, err := w.mirror(origin)
	if err != nil {
		return kvstore.Version{}, err
	}
	return m.Get(key)
}

// GetByTimeFrom reads origin's newest version of key as of t (the paper's
// get_by_time).
func (w *Store) GetByTimeFrom(origin int, key string, t time.Time) (kvstore.Version, error) {
	m, err := w.mirror(origin)
	if err != nil {
		return kvstore.Version{}, err
	}
	return m.GetByTime(key, t)
}

// Keys lists the keys of origin's pool with the given prefix.
func (w *Store) Keys(origin int, prefix string) ([]string, error) {
	m, err := w.mirror(origin)
	if err != nil {
		return nil, err
	}
	return m.Keys(prefix), nil
}

// RegisterPredicate exposes the paper's register_predicate K/V extension.
func (w *Store) RegisterPredicate(key, source string) error {
	return w.node.RegisterPredicate(key, source)
}

// ChangePredicate exposes the paper's change_predicate K/V extension.
func (w *Store) ChangePredicate(key, source string) error {
	return w.node.ChangePredicate(key, source)
}

// GetStabilityFrontier exposes the paper's get_stability_frontier K/V
// extension: the newest local sequence number satisfying the predicate.
func (w *Store) GetStabilityFrontier(predicateKey string) (uint64, error) {
	return w.node.StabilityFrontier(predicateKey)
}

// WaitStable blocks until the write carried by seq satisfies the named
// predicate.
func (w *Store) WaitStable(ctx context.Context, seq uint64, predicateKey string) error {
	return w.node.WaitFor(ctx, seq, predicateKey)
}

func (w *Store) local() *kvstore.Store { return w.mirrors[w.self-1] }

func (w *Store) mirror(origin int) (*kvstore.Store, error) {
	if origin < 1 || origin > len(w.mirrors) {
		return nil, fmt.Errorf("%w: %d", ErrBadOrigin, origin)
	}
	return w.mirrors[origin-1], nil
}

// WaitApplied blocks until this node's mirror of origin has applied the
// update stream through seq — read-your-writes for mirror reads: a client
// that wrote at the owner (obtaining PutResult.Seq) can hand that sequence
// to any mirror node and read its own write there after WaitApplied
// returns. This is the read-side counterpart of the write predicates
// (paper §IV-B extends predicates to read operations).
func (w *Store) WaitApplied(ctx context.Context, origin int, seq uint64) error {
	if origin < 1 || origin > len(w.mirrors) {
		return fmt.Errorf("%w: %d", ErrBadOrigin, origin)
	}
	if origin == w.self {
		return nil // the owner's pool is always current
	}
	// Canceller: wakes the condition variable when ctx fires. Taking the
	// mutex around Broadcast closes the lost-wakeup window (the waiter
	// is either holding the mutex pre-Wait or parked inside Wait).
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			w.applyMu.Lock()
			w.applyCond.Broadcast()
			w.applyMu.Unlock()
		case <-stop:
		}
	}()

	w.applyMu.Lock()
	defer w.applyMu.Unlock()
	for w.appliedTo[origin-1] < seq {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("wankv: wait applied origin %d seq %d: %w", origin, seq, err)
		}
		w.applyCond.Wait()
	}
	return nil
}

// AppliedThrough reports the highest origin sequence applied locally.
func (w *Store) AppliedThrough(origin int) (uint64, error) {
	if origin < 1 || origin > len(w.mirrors) {
		return 0, fmt.Errorf("%w: %d", ErrBadOrigin, origin)
	}
	w.applyMu.Lock()
	defer w.applyMu.Unlock()
	return w.appliedTo[origin-1], nil
}

// apply installs one replicated update into the origin's mirror.
func (w *Store) apply(m core.Message) {
	key, value, ver, ts, err := decodeUpdate(m.Payload)
	if err != nil {
		return // ignore foreign traffic sharing the node
	}
	if m.Origin == w.self {
		return
	}
	mirror := w.mirrors[m.Origin-1]
	applyErr := mirror.Apply(key, value, ver, ts)
	// The applied watermark advances even for stale duplicates: the data
	// is present either way, and delivery is FIFO per origin.
	w.applyMu.Lock()
	if m.Seq > w.appliedTo[m.Origin-1] {
		w.appliedTo[m.Origin-1] = m.Seq
	}
	w.applyMu.Unlock()
	w.applyCond.Broadcast()
	if applyErr != nil {
		return // stale duplicate after reconnect; safe to drop
	}
	if w.onApply != nil {
		w.onApply(m.Origin, key, ver)
	}
}

// --- update codec ---

// updateMagic distinguishes wankv updates from other payloads sharing the
// data plane.
const updateMagic uint16 = 0x5756 // "WV"

func encodeUpdate(key string, value []byte, ver uint64, ts time.Time) []byte {
	buf := make([]byte, 0, 2+2+len(key)+8+8+len(value))
	buf = binary.BigEndian.AppendUint16(buf, updateMagic)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, ver)
	buf = binary.BigEndian.AppendUint64(buf, uint64(ts.UnixNano()))
	buf = append(buf, value...)
	return buf
}

func decodeUpdate(p []byte) (key string, value []byte, ver uint64, ts time.Time, err error) {
	if len(p) < 2+2+8+8 || binary.BigEndian.Uint16(p) != updateMagic {
		return "", nil, 0, time.Time{}, ErrBadUpdate
	}
	klen := int(binary.BigEndian.Uint16(p[2:]))
	rest := p[4:]
	if len(rest) < klen+16 {
		return "", nil, 0, time.Time{}, ErrBadUpdate
	}
	key = string(rest[:klen])
	ver = binary.BigEndian.Uint64(rest[klen:])
	nano := int64(binary.BigEndian.Uint64(rest[klen+8:]))
	value = rest[klen+16:]
	return key, value, ver, time.Unix(0, nano), nil
}
