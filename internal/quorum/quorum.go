// Package quorum implements Gifford's quorum protocol (§IV-B) on top of
// Stabilizer's read/write stability predicates. A write completes once Nw
// member replicas hold it (write predicate KTH_MIN(Nw, members)); a read
// collects responses from Nr members and returns the highest-versioned
// value. With Nw + Nr > N, every read quorum intersects every write
// quorum, so a reader always sees the value of the latest non-concurrent
// committed write.
//
// Roles: every participating node runs a KV (members store replicas and
// answer reads; non-members act as clients only). Writes use the primary-
// site model — versions are the writer's Stabilizer sequence numbers, which
// are unique and monotonic.
package quorum

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/predlib"
)

// Errors returned by the quorum KV.
var (
	ErrBadQuorum   = errors.New("quorum: Nw+Nr must exceed the member count")
	ErrNotFound    = errors.New("quorum: key not found")
	ErrReadTimeout = errors.New("quorum: read quorum not reached")
)

// writePredicateKey is the predicate registered for write completion.
const writePredicateKey = "__quorum_write"

// methodRead is the App method selector for read RPCs.
const methodRead uint16 = 0x5152 // "QR"

// Config parameterizes a quorum KV.
type Config struct {
	// Node is the Stabilizer node this replica/client runs on.
	Node *core.Node
	// Members are the replica node indexes (the quorum universe N).
	Members []int
	// Nw and Nr are the write and read quorum sizes; Nw+Nr > len(Members).
	Nw, Nr int
}

// entry is one replicated value.
type entry struct {
	value   []byte
	version uint64
	origin  int
}

// KV is one node's quorum endpoint.
type KV struct {
	node    *core.Node
	members []int
	nw, nr  int
	member  bool

	mu      sync.Mutex
	store   map[string]entry
	pending map[uint64]chan readReply
	nextID  atomic.Uint64
}

type readReply struct {
	from    int
	found   bool
	version uint64
	value   []byte
}

// New creates a quorum endpoint and registers its handlers on the node.
func New(cfg Config) (*KV, error) {
	if cfg.Node == nil {
		return nil, errors.New("quorum: Config.Node is required")
	}
	n := len(cfg.Members)
	if n == 0 || cfg.Nw < 1 || cfg.Nr < 1 || cfg.Nw+cfg.Nr <= n {
		return nil, fmt.Errorf("%w: N=%d Nw=%d Nr=%d", ErrBadQuorum, n, cfg.Nw, cfg.Nr)
	}
	kv := &KV{
		node:    cfg.Node,
		members: append([]int{}, cfg.Members...),
		nw:      cfg.Nw,
		nr:      cfg.Nr,
		store:   make(map[string]entry),
		pending: make(map[uint64]chan readReply),
	}
	self := cfg.Node.Self()
	for _, m := range kv.members {
		if m == self {
			kv.member = true
		}
	}
	src := predlib.QuorumWrite(kv.members, kv.nw)
	if err := cfg.Node.RegisterPredicate(writePredicateKey, src); err != nil {
		return nil, fmt.Errorf("quorum: register write predicate: %w", err)
	}
	cfg.Node.OnDeliver(kv.applyWrite)
	cfg.Node.OnApp(kv.handleApp)
	return kv, nil
}

// WritePredicate returns the DSL source of the write-completion predicate.
func (kv *KV) WritePredicate() string { return predlib.QuorumWrite(kv.members, kv.nw) }

// Write replicates key=value and blocks until a write quorum holds it.
// The returned version is the write's Stabilizer sequence number. The send
// log copies the encoded write before Send returns
// (transport.SendLog.AppendCtx).
func (kv *KV) Write(ctx context.Context, key string, value []byte) (uint64, error) {
	payload := encodeWrite(key, value)
	seq, err := kv.node.Send(payload)
	if err != nil {
		return 0, err
	}
	// A member writer stores its own replica immediately (its own ACK is
	// part of the quorum by the completeness rule).
	if kv.member {
		kv.storeEntry(key, value, seq, kv.node.Self())
	}
	if err := kv.node.WaitFor(ctx, seq, writePredicateKey); err != nil {
		return seq, err
	}
	return seq, nil
}

// Read performs a quorum read: it queries every member, waits for Nr
// responses, and returns the freshest value among them.
func (kv *KV) Read(ctx context.Context, key string) ([]byte, uint64, error) {
	id := kv.nextID.Add(1)
	replies := make(chan readReply, len(kv.members))
	kv.mu.Lock()
	kv.pending[id] = replies
	kv.mu.Unlock()
	defer func() {
		kv.mu.Lock()
		delete(kv.pending, id)
		kv.mu.Unlock()
	}()

	self := kv.node.Self()
	for _, m := range kv.members {
		if m == self {
			// Local replica answers immediately.
			replies <- kv.localRead(key)
			continue
		}
		if err := kv.node.SendApp(m, id, methodRead, false, []byte(key)); err != nil {
			// An unreachable member just reduces the response pool.
			continue
		}
	}

	var (
		got  int
		best readReply
	)
	for got < kv.nr {
		select {
		case r := <-replies:
			got++
			if r.found && (best.version < r.version || !best.found) {
				best = r
			}
		case <-ctx.Done():
			return nil, 0, fmt.Errorf("%w: %d/%d responses: %v", ErrReadTimeout, got, kv.nr, ctx.Err())
		}
	}
	if !best.found {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return best.value, best.version, nil
}

// Version returns this replica's local version of key (testing/metrics).
func (kv *KV) Version(key string) (uint64, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	e, ok := kv.store[key]
	return e.version, ok
}

func (kv *KV) localRead(key string) readReply {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	e, ok := kv.store[key]
	return readReply{from: kv.node.Self(), found: ok, version: e.version, value: e.value}
}

func (kv *KV) storeEntry(key string, value []byte, version uint64, origin int) {
	buf := make([]byte, len(value))
	copy(buf, value)
	kv.mu.Lock()
	defer kv.mu.Unlock()
	e, ok := kv.store[key]
	if !ok || e.version < version {
		kv.store[key] = entry{value: buf, version: version, origin: origin}
	}
}

// applyWrite installs replicated writes on member replicas.
func (kv *KV) applyWrite(m core.Message) {
	if !kv.member {
		return
	}
	key, value, err := decodeWrite(m.Payload)
	if err != nil {
		return // other traffic on the shared node
	}
	kv.storeEntry(key, value, m.Seq, m.Origin)
}

// handleApp answers read RPCs and routes read responses.
func (kv *KV) handleApp(m core.AppMessage) {
	if m.Method != methodRead {
		return
	}
	if !m.IsResponse {
		if !kv.member {
			return
		}
		r := kv.localRead(string(m.Payload))
		resp := encodeReadReply(r)
		// Best effort; an unreachable requester will time out.
		_ = kv.node.SendApp(m.From, m.ID, methodRead, true, resp)
		return
	}
	r, err := decodeReadReply(m.Payload)
	if err != nil {
		return
	}
	r.from = m.From
	kv.mu.Lock()
	ch := kv.pending[m.ID]
	kv.mu.Unlock()
	if ch != nil {
		select {
		case ch <- r:
		default: // late response after quorum reached
		}
	}
}

// --- codecs ---

const writeMagic uint16 = 0x5157 // "QW"

func encodeWrite(key string, value []byte) []byte {
	buf := make([]byte, 0, 4+len(key)+len(value))
	buf = binary.BigEndian.AppendUint16(buf, writeMagic)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	return buf
}

func decodeWrite(p []byte) (string, []byte, error) {
	if len(p) < 4 || binary.BigEndian.Uint16(p) != writeMagic {
		return "", nil, errors.New("quorum: not a quorum write")
	}
	klen := int(binary.BigEndian.Uint16(p[2:]))
	if len(p) < 4+klen {
		return "", nil, errors.New("quorum: short write payload")
	}
	return string(p[4 : 4+klen]), p[4+klen:], nil
}

func encodeReadReply(r readReply) []byte {
	buf := make([]byte, 0, 9+len(r.value))
	if r.found {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint64(buf, r.version)
	buf = append(buf, r.value...)
	return buf
}

func decodeReadReply(p []byte) (readReply, error) {
	if len(p) < 9 {
		return readReply{}, errors.New("quorum: short read reply")
	}
	return readReply{
		found:   p[0] == 1,
		version: binary.BigEndian.Uint64(p[1:]),
		value:   p[9:],
	}, nil
}

// ReadLatency measures one quorum read of key, for the Fig. 3 experiment.
func (kv *KV) ReadLatency(ctx context.Context, key string) (time.Duration, error) {
	start := time.Now()
	if _, _, err := kv.Read(ctx, key); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
