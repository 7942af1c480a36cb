// Package transport implements Stabilizer's data-plane networking: one
// lossless FIFO link per peer, fed aggressively from a shared send log
// (paper §III-B). Each link has its own cursor into the log, so a slow WAN
// link never blocks a fast one; on reconnect the peer reports the last
// contiguous sequence it received and the link resumes from there. Control
// information (ACKs) is coalesced per link — only the newest value per
// (origin, stability type) is kept, exploiting monotonicity — and is
// streamed alongside data without disrupting it.
package transport

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"stabilizer/internal/metrics"
)

// ErrLogClosed is returned by send-log operations after Close.
var ErrLogClosed = errors.New("transport: send log closed")

// ErrBackpressure is returned by Append in FlowFail mode while the send log
// is above its high watermark: the slowest unreclaimed peer has put the node
// into admission control and the caller should shed load, retry later, or
// fall back to a weaker predicate (see core.Node.Health for blame).
var ErrBackpressure = errors.New("transport: send log backpressure")

// FlowMode selects what Append does once the send log hits its high
// watermark.
type FlowMode uint8

const (
	// FlowBlock makes Append wait (context-aware via AppendCtx) until
	// reclaim truncates the log back below the low watermark.
	FlowBlock FlowMode = iota
	// FlowFail makes Append return ErrBackpressure immediately.
	FlowFail
	// FlowSpill migrates the cold prefix of the log to on-disk segment
	// files once the high watermark latches, keeping memory bounded while
	// the total backlog grows with the disk: a partitioned peer's stream
	// is preserved in full and read back through the same batched drain
	// path on reconnect. Appends block (like FlowBlock) only while the
	// spiller is behind or the disk has failed. Requires
	// FlowConfig.SpillDir and at least one cap; see NewSendLogFlow.
	FlowSpill
)

// String implements fmt.Stringer.
func (m FlowMode) String() string {
	switch m {
	case FlowFail:
		return "fail"
	case FlowSpill:
		return "spill"
	}
	return "block"
}

// FlowConfig bounds the send log so a partitioned or slow peer cannot grow
// the retransmission buffer without limit. The zero value disables admission
// control entirely (the pre-flow-control behavior: an unbounded log).
//
// Admission control is hysteretic: once either cap is reached the log is
// "full" and stays full until reclaim brings it back under the low
// watermarks (LowFrac x cap), so appenders don't thrash at the boundary.
// Caps are checked before the entry is added, so the buffer can exceed
// MaxBytes by at most one payload — "cap plus one message", never unbounded.
// The caps are global across all producer stripes: admission-controlled
// appends serialize through the log's central mutex so byte and entry
// accounting stay exact no matter how many stripes are configured.
type FlowConfig struct {
	// MaxBytes is the high watermark on buffered payload bytes (0 = no
	// byte cap).
	MaxBytes int64
	// MaxEntries is the high watermark on buffered entries (0 = no entry
	// cap).
	MaxEntries int
	// LowFrac positions the low watermark as a fraction of each cap
	// (default 0.5; clamped to (0, 1]).
	LowFrac float64
	// Mode picks blocking, fail-fast, or disk-spilling admission (default
	// FlowBlock).
	Mode FlowMode
	// SpillDir is the directory holding the on-disk segment files of the
	// spill tier. Required in FlowSpill mode; ignored otherwise. Existing
	// segments found at open are recovered (crash restart).
	SpillDir string
	// SpillSegmentBytes bounds each spill segment file's payload bytes
	// (default 4 MiB). Smaller segments reclaim disk sooner as the peer
	// catches up; larger ones amortize file overhead.
	SpillSegmentBytes int64
}

// Enabled reports whether any cap is configured.
func (f FlowConfig) Enabled() bool { return f.MaxBytes > 0 || f.MaxEntries > 0 }

func (f FlowConfig) normalized() FlowConfig {
	if f.LowFrac <= 0 || f.LowFrac > 1 {
		f.LowFrac = 0.5
	}
	return f
}

// lowBytes returns the byte low watermark (0 when no byte cap).
func (f FlowConfig) lowBytes() int64 { return int64(float64(f.MaxBytes) * f.LowFrac) }

// lowEntries returns the entry low watermark (0 when no entry cap).
func (f FlowConfig) lowEntries() int { return int(float64(f.MaxEntries) * f.LowFrac) }

// LogEntry is one sequenced data message buffered for (re)transmission.
type LogEntry struct {
	Seq          uint64
	SentUnixNano int64
	Payload      []byte
}

// maxLogStripes caps the producer stripe count: past the point where every
// core has its own stripe, more stripes only cost merge passes.
const maxLogStripes = 64

// defaultLogStripes returns the stripe count of every log the exported
// constructors build: one per core, capped at 8 — append contention flattens
// well before then and the drainer's merge pass scales with the stripe
// count.
func defaultLogStripes() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// logStripe is one producer staging buffer. Appenders reserve a sequence
// from the log's shared atomic counter while holding the stripe mutex, so
// each stripe's entries are in ascending sequence order; the drainer merges
// stripes back into the dense canonical log in sequence order. The struct is
// padded to its own cache line so neighboring stripes don't false-share.
type logStripe struct {
	mu      sync.Mutex
	entries []LogEntry
	_       [96]byte
}

// SendLog is the shared retransmission buffer: an append-only, in-memory
// log of the local node's sequenced messages. Entries are retained until
// TruncateThrough reclaims them (the core does so once a message has been
// delivered everywhere).
//
// Appends are sharded across producer stripes: a producer reserves the next
// sequence from one atomic counter inside a per-stripe critical section and
// stages the entry there, so concurrent senders do not serialize on a single
// mutex. The reader (TryNextBatch) merges staged entries into the dense
// canonical slice in sequence order
// before looking anything up, which keeps every external invariant of the
// single-lock log: sequences are gapless, batches are contiguous runs, and
// truncation is exact. An entry becomes visible to readers only once every
// lower sequence has been staged — a reservation gap in one stripe briefly
// hides later sequences, exactly preserving FIFO.
type SendLog struct {
	// next is the next sequence to assign (first is 1); reservations are
	// atomic so they need no central lock. bytes tracks buffered payload
	// bytes (staged + merged). rr is the sticky stripe hint: the index of
	// the stripe producers should try first (see lockStripe).
	next  atomic.Uint64
	bytes atomic.Int64
	rr    atomic.Uint32
	// closedA mirrors closed for the lock-free append fast path.
	closedA atomic.Bool
	// flowFast is fixed at construction: true when the optimistic
	// reserve-and-check admission fast path applies (byte cap only — an
	// entry cap needs the retained base, which is mutex state).
	flowFast bool
	// flowOn is fixed at construction: admission-controlled appends take
	// the central mutex so the caps stay global across stripes.
	flowOn bool

	stripes []logStripe

	mu   sync.Mutex
	base uint64 // sequence of entries[off]; next when empty
	// off is the reclaimed prefix length of entries: entries[:off] are
	// zeroed husks kept so TruncateThrough can advance in O(1) and only
	// compact when the dead prefix dominates the slice.
	off     int
	entries []LogEntry // canonical merged log, contiguous from base
	closed  bool
	// reclaimed is the highest sequence ever passed to TruncateThrough
	// (clamped to assigned sequences). A truncation can overtake a staged
	// entry stuck behind a reservation gap in another stripe; the merge
	// consults this watermark so such an entry is dropped on arrival
	// instead of being re-exposed to readers after its reclaim.
	reclaimed uint64

	// Flow control (admission) state. full latches once a cap is hit and
	// clears only below the low watermarks (hysteresis). spaceCh is the
	// wakeup channel for blocked appenders: created on demand, closed and
	// dropped when space frees, so each stall round gets a fresh channel.
	flow FlowConfig
	full bool
	// fullA mirrors full for the lock-free admission fast path: byte-capped
	// appends far below the watermark skip the central mutex entirely and
	// only fall into the exact (locked) path once the latch is set or a
	// byte reservation would cross the cap.
	fullA   atomic.Bool
	spaceCh chan struct{}
	waiting int   // appenders currently blocked
	blocked int64 // total appends that had to wait
	shed    int64 // total appends rejected with ErrBackpressure

	// Optional backpressure counters, set by the transport when metrics are
	// enabled (same-package wiring; nil-safe).
	mBlocked *metrics.Counter
	mShed    *metrics.Counter

	// spill is the disk tier (FlowSpill mode only; nil otherwise).
	spill *spillState
}

// NewSendLog returns an empty, unbounded log whose first assigned sequence
// is firstSeq (1 on a fresh start; a checkpointed value on primary restart).
func NewSendLog(firstSeq uint64) *SendLog {
	return newSendLog(firstSeq, FlowConfig{}, defaultLogStripes())
}

// NewSendLogFlow is NewSendLog with admission control configured. In
// FlowSpill mode it creates (or recovers) the on-disk segment tier under
// flow.SpillDir and starts the spiller, and fails when that cannot be done.
// Recovered segments re-anchor the log: the next assigned sequence continues
// after the highest recovered one, and the recovered backlog is served from
// disk exactly as if it had just been spilled.
func NewSendLogFlow(firstSeq uint64, flow FlowConfig) (*SendLog, error) {
	return newSendLogFlow(firstSeq, flow, defaultLogStripes())
}

// newSendLogFlow is NewSendLogFlow at an exact stripe count.
func newSendLogFlow(firstSeq uint64, flow FlowConfig, stripes int) (*SendLog, error) {
	flow = flow.normalized()
	if flow.Mode != FlowSpill {
		return newSendLog(firstSeq, flow, stripes), nil
	}
	if flow.SpillDir == "" {
		return nil, errors.New("transport: FlowSpill requires FlowConfig.SpillDir")
	}
	if !flow.Enabled() {
		return nil, errors.New("transport: FlowSpill requires a byte or entry cap (the spill watermark)")
	}
	sp, err := newSpillState(flow)
	if err != nil {
		return nil, err
	}
	l := newSendLog(firstSeq, flow, stripes)
	l.spill = sp
	if n := len(sp.segs); n > 0 {
		last := sp.segs[n-1].last
		if l.base > last+1 {
			// The recovered chain cannot be sequenced under the caller's
			// checkpoint (a gap would separate disk from new appends):
			// discard it rather than serve a stream with a hole.
			sp.discardAllLocked()
		} else {
			l.base = last + 1
			l.next.Store(last + 1)
		}
	}
	go l.spiller()
	return l, nil
}

// newSendLog builds the in-memory log. stripes < 1 means 1 and values above
// maxLogStripes are clamped; striping only changes append-side contention —
// the external contract (gapless sequences, contiguous batches, global flow
// caps) is identical at every stripe count. flow must be normalized.
func newSendLog(firstSeq uint64, flow FlowConfig, stripes int) *SendLog {
	if firstSeq == 0 {
		firstSeq = 1
	}
	if stripes < 1 {
		stripes = 1
	}
	if stripes > maxLogStripes {
		stripes = maxLogStripes
	}
	l := &SendLog{
		base:    firstSeq,
		flow:    flow,
		stripes: make([]logStripe, stripes),
	}
	l.flowOn = l.flow.Enabled()
	l.flowFast = flow.MaxEntries <= 0 && flow.MaxBytes > 0
	l.next.Store(firstSeq)
	l.reclaimed = firstSeq - 1
	return l
}

// Append assigns the next sequence number to payload and buffers it.
// The payload is retained by reference; callers must not mutate it.
// Under a configured FlowConfig in FlowBlock mode a full log makes Append
// wait (without deadline — use AppendCtx for cancellation) until reclaim
// frees space; in FlowFail mode it returns ErrBackpressure instead.
func (l *SendLog) Append(payload []byte, sentUnixNano int64) (uint64, error) {
	return l.AppendCtx(nil, payload, sentUnixNano)
}

// AppendCtx is Append with cancellation: a blocked append returns ctx.Err()
// promptly when ctx is done. A nil ctx blocks until space frees or the log
// closes.
func (l *SendLog) AppendCtx(ctx context.Context, payload []byte, sentUnixNano int64) (uint64, error) {
	if !l.flowOn {
		return l.appendFast(payload, sentUnixNano)
	}
	return l.appendFlow(ctx, payload, sentUnixNano)
}

// lockStripe picks and locks a staging stripe. Producers are sticky: each
// append first tries the last successfully locked stripe (uncontended
// TryLock), only migrating to a neighbor when it is busy. Stickiness keeps a
// lone producer's sequences in one stripe — so the drainer's merge pops them
// as one long run under a single stripe lock — while contention still
// spreads concurrent producers across stripes.
func (l *SendLog) lockStripe() *logStripe {
	n := len(l.stripes)
	if n == 1 {
		s := &l.stripes[0]
		s.mu.Lock()
		return s
	}
	start := int(l.rr.Load()) % n
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		s := &l.stripes[idx]
		if s.mu.TryLock() {
			if i != 0 {
				l.rr.Store(uint32(idx))
			}
			return s
		}
	}
	s := &l.stripes[start]
	s.mu.Lock()
	return s
}

// appendFast is the unbounded-log append: no admission control, so the
// whole operation is one short per-stripe critical section plus two atomic
// adds. The sequence is reserved inside the stripe lock, which is what
// keeps each stripe internally sorted for the merge.
func (l *SendLog) appendFast(payload []byte, sentUnixNano int64) (uint64, error) {
	s := l.lockStripe()
	if l.closedA.Load() {
		s.mu.Unlock()
		return 0, ErrLogClosed
	}
	seq := l.next.Add(1) - 1
	s.entries = append(s.entries, LogEntry{Seq: seq, SentUnixNano: sentUnixNano, Payload: payload})
	s.mu.Unlock()
	l.bytes.Add(int64(len(payload)))
	return seq, nil
}

// appendFlow is the admission-controlled append: capacity checks, sequence
// reservation and byte accounting all happen under the central mutex so the
// caps stay global and exact across stripes — except far below a byte cap,
// where an optimistic reserve-and-check keeps the hot path striped and
// lock-free like appendFast (a flow-configured-but-idle log must not tax
// the stream).
func (l *SendLog) appendFlow(ctx context.Context, payload []byte, sentUnixNano int64) (uint64, error) {
	// Fast path: reserve the bytes atomically; if the reservation stays
	// under the cap and the full latch is clear, admission could not have
	// blocked this append, so the central mutex adds nothing but
	// contention with the drainer. A reservation that crosses the cap is
	// rolled back and retried on the exact path (which latches full, kicks
	// the spiller, and blocks as configured). MaxEntries needs the retained
	// base — mutex state — so entry-capped logs always take the exact path.
	if pl := int64(len(payload)); l.flowFast && !l.fullA.Load() {
		nb := l.bytes.Add(pl)
		if nb < l.flow.MaxBytes {
			s := l.lockStripe()
			if l.closedA.Load() {
				s.mu.Unlock()
				l.bytes.Add(-pl)
				return 0, ErrLogClosed
			}
			seq := l.next.Add(1) - 1
			s.entries = append(s.entries, LogEntry{Seq: seq, SentUnixNano: sentUnixNano, Payload: payload})
			s.mu.Unlock()
			return seq, nil
		}
		l.bytes.Add(-pl)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrLogClosed
	}
	if l.overLocked() {
		if l.flow.Mode == FlowFail {
			l.shed++
			c := l.mShed
			l.mu.Unlock()
			if c != nil {
				c.Inc()
			}
			return 0, ErrBackpressure
		}
		l.blocked++
		if c := l.mBlocked; c != nil {
			c.Inc()
		}
		if l.spill != nil {
			l.kickSpill()
		}
		for l.overLocked() {
			ch := l.spaceCh
			if ch == nil {
				ch = make(chan struct{})
				l.spaceCh = ch
			}
			l.waiting++
			l.mu.Unlock()
			var err error
			if ctx == nil {
				<-ch
			} else {
				select {
				case <-ch:
				case <-ctx.Done():
					err = ctx.Err()
				}
			}
			l.mu.Lock()
			l.waiting--
			if err != nil {
				l.mu.Unlock()
				return 0, err
			}
			if l.closed {
				l.mu.Unlock()
				return 0, ErrLogClosed
			}
		}
	}
	s := l.lockStripe()
	seq := l.next.Add(1) - 1
	s.entries = append(s.entries, LogEntry{Seq: seq, SentUnixNano: sentUnixNano, Payload: payload})
	s.mu.Unlock()
	l.bytes.Add(int64(len(payload)))
	if l.spill != nil && l.overLocked() {
		// The high watermark latched: wake the spiller so the cold prefix
		// starts migrating to disk before appenders have to block.
		l.kickSpill()
	}
	l.mu.Unlock()
	return seq, nil
}

// overLocked reports whether admission control currently gates appends,
// updating the hysteretic full latch from the live byte/entry counts.
func (l *SendLog) overLocked() bool {
	fc := &l.flow
	if fc.MaxBytes <= 0 && fc.MaxEntries <= 0 {
		return false
	}
	live := int(l.next.Load() - l.base)
	bytes := l.bytes.Load()
	if (fc.MaxBytes > 0 && bytes >= fc.MaxBytes) ||
		(fc.MaxEntries > 0 && live >= fc.MaxEntries) {
		l.full = true
		l.fullA.Store(true)
	} else if l.full {
		if (fc.MaxBytes <= 0 || bytes <= fc.lowBytes()) &&
			(fc.MaxEntries <= 0 || live <= fc.lowEntries()) {
			l.full = false
			l.fullA.Store(false)
		}
	}
	return l.full
}

// releaseSpaceLocked refreshes the hysteretic latch from the live counts
// and wakes blocked appenders once it clears. It runs on every reclaim —
// not just when appenders are waiting — so Full() tracks truncation in
// fail-fast mode too, where nothing blocks and the next admission check
// may be arbitrarily far away.
func (l *SendLog) releaseSpaceLocked() {
	if !l.overLocked() && l.spaceCh != nil {
		close(l.spaceCh)
		l.spaceCh = nil
	}
}

// mergeLocked moves staged stripe entries into the canonical slice in
// sequence order. It pops the contiguous head run of each stripe, looping
// until a full pass over the stripes makes no progress — a sequence that is
// reserved but not yet staged stops the merge exactly there, so readers
// never observe a gap. Caller holds l.mu.
func (l *SendLog) mergeLocked() {
	want := l.base + uint64(len(l.entries)-l.off)
	if l.next.Load() == want {
		return // nothing staged
	}
	dropped := false
	for {
		advanced := false
		for i := range l.stripes {
			s := &l.stripes[i]
			s.mu.Lock()
			n := 0
			for n < len(s.entries) && s.entries[n].Seq == want {
				if want <= l.reclaimed {
					// A truncation overtook this entry while it was staged
					// behind a reservation gap: it is already reclaimed and
					// must never become visible again. want <= reclaimed
					// implies the merged region is empty (truncation strips
					// merged entries <= reclaimed), so advancing base keeps
					// the dense invariant.
					l.bytes.Add(-int64(len(s.entries[n].Payload)))
					l.base++
					dropped = true
				} else {
					l.entries = append(l.entries, s.entries[n])
				}
				want++
				n++
			}
			if n > 0 {
				advanced = true
				rest := copy(s.entries, s.entries[n:])
				clear(s.entries[rest:]) // drop stale payload references
				s.entries = s.entries[:rest]
			}
			s.mu.Unlock()
		}
		if !advanced || l.next.Load() == want {
			if dropped {
				l.releaseSpaceLocked()
			}
			return
		}
	}
}

// visibleNextLocked is the first sequence not yet merged into the canonical
// slice: entries [base, visibleNext) are addressable. Caller holds l.mu.
func (l *SendLog) visibleNextLocked() uint64 {
	return l.base + uint64(len(l.entries)-l.off)
}

// TryNextBatch drains a contiguous run of ready entries starting at seq
// under a single lock acquisition, appending them to dst and returning the
// extended slice. The run is capped at maxFrames entries and stops before
// the entry that would push the accumulated payload bytes past maxBytes —
// but always includes at least one entry when any is ready, so a single
// payload larger than the whole byte budget is still sent rather than
// wedging the link (the oversize first-frame rule; flow control has already
// accounted such a payload at admission, so draining it promptly is also
// what unblocks waiting appenders). A seq below the retained base snaps to
// the base: the first entry's Seq tells the caller where it landed. Entries
// share payload slices with the log; callers must not mutate them.
func (l *SendLog) TryNextBatch(seq uint64, dst []LogEntry, maxFrames, maxBytes int) []LogEntry {
	if maxFrames < 1 {
		maxFrames = 1
	}
	if l.spill != nil {
		return l.tryNextBatchTiered(seq, dst, maxFrames, maxBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mergeLocked()
	if seq < l.base {
		seq = l.base
	}
	budget := maxBytes
	vnext := l.visibleNextLocked()
	for n := 0; n < maxFrames && seq < vnext; n++ {
		e := l.entries[l.off+int(seq-l.base)]
		if n > 0 && len(e.Payload) > budget {
			break
		}
		dst = append(dst, e)
		budget -= len(e.Payload)
		seq++
	}
	return dst
}

// tryNextBatchTiered is the FlowSpill drain: it serves the disk tier first
// (sequences below the in-memory base) and crosses seamlessly into the live
// memory tail within the same batch, preserving the gapless FIFO order the
// link protocol depends on. The same frame/byte budget and oversize
// first-frame rule apply across the boundary.
func (l *SendLog) tryNextBatchTiered(seq uint64, dst []LogEntry, maxFrames, maxBytes int) []LogEntry {
	sp := l.spill
	budget := maxBytes
	start := len(dst)
	for {
		l.mu.Lock()
		l.mergeLocked()
		if seq < l.base {
			memBase := l.base
			l.mu.Unlock()
			prevSeq, prevLen := seq, len(dst)
			var ok bool
			dst, seq, ok = sp.readBatch(seq, memBase, dst, start, maxFrames, &budget)
			if !ok || len(dst)-start >= maxFrames {
				return dst // wedged disk (stall, don't gap) or batch full
			}
			if budget <= 0 && len(dst) > start {
				return dst
			}
			if seq == prevSeq && len(dst) == prevLen {
				return dst // no progress (budget-stopped mid-tier)
			}
			continue // advanced below memBase exhausted: re-check tiers
		}
		vnext := l.visibleNextLocked()
		for len(dst)-start < maxFrames && seq < vnext {
			e := l.entries[l.off+int(seq-l.base)]
			if len(dst) > start && len(e.Payload) > budget {
				break
			}
			dst = append(dst, e)
			budget -= len(e.Payload)
			seq++
		}
		l.mu.Unlock()
		return dst
	}
}

// TruncateThrough reclaims every entry with sequence ≤ seq. Reclaim is
// amortized: dropped entries are zeroed in place (releasing their payloads
// to the collector) and the slice is only compacted once the dead prefix
// outgrows the live tail, so each entry is moved O(1) times over its life
// instead of once per call. Staged stripe entries are merged first, so a
// reclaim that has raced ahead of the drainer still accounts every byte.
func (l *SendLog) TruncateThrough(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if hi := l.next.Load() - 1; seq > hi {
		// Clamp to assigned sequences so a permissive caller cannot
		// poison entries that do not exist yet.
		seq = hi
	}
	if seq > l.reclaimed {
		l.reclaimed = seq
	}
	if l.spill != nil {
		l.spill.truncate(seq)
	}
	if seq < l.base {
		return
	}
	l.mergeLocked()
	drop := int(seq - l.base + 1)
	if live := len(l.entries) - l.off; drop > live {
		drop = live
	}
	dead := l.entries[l.off : l.off+drop]
	var freed int64
	for i := range dead {
		freed += int64(len(dead[i].Payload))
	}
	l.bytes.Add(-freed)
	clear(dead) // release payload references
	l.off += drop
	l.base += uint64(drop)
	if l.off >= len(l.entries)-l.off && l.off >= compactThreshold {
		n := copy(l.entries, l.entries[l.off:])
		clear(l.entries[n:])
		l.entries = l.entries[:n]
		l.off = 0
	}
	l.releaseSpaceLocked()
}

// compactThreshold is the minimum dead-prefix length before TruncateThrough
// compacts the slice, so tiny logs don't shuffle on every reclaim.
const compactThreshold = 32

// Head returns the highest assigned sequence (0 if none).
func (l *SendLog) Head() uint64 {
	return l.next.Load() - 1
}

// NextSeq returns the sequence the next Append will assign.
func (l *SendLog) NextSeq() uint64 {
	return l.next.Load()
}

// Base returns the oldest retained sequence, across both tiers: with a
// spill tier holding data, that is the oldest sequence still on disk.
func (l *SendLog) Base() uint64 {
	if sp := l.spill; sp != nil {
		if first, ok := sp.oldest(); ok {
			return first
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Bytes returns the payload bytes currently buffered across both tiers:
// the total retransmission backlog. Use MemoryBytes for the in-memory
// share that admission control bounds.
func (l *SendLog) Bytes() int64 {
	b := l.bytes.Load()
	if sp := l.spill; sp != nil {
		b += sp.spilled.Load()
	}
	return b
}

// MemoryBytes returns the payload bytes held in memory (staged and merged).
// This is the quantity the FlowConfig caps bound; in FlowSpill mode the
// on-disk remainder is excluded.
func (l *SendLog) MemoryBytes() int64 {
	return l.bytes.Load()
}

// Len returns the number of buffered entries across both tiers.
func (l *SendLog) Len() int {
	if sp := l.spill; sp != nil {
		if first, ok := sp.oldest(); ok {
			return int(l.next.Load() - first)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.next.Load() - l.base)
}

// SpilledBytes returns the payload bytes currently parked in on-disk spill
// segments (0 without a spill tier).
func (l *SendLog) SpilledBytes() int64 {
	if sp := l.spill; sp != nil {
		return sp.spilled.Load()
	}
	return 0
}

// SpilledSegments returns the number of live on-disk spill segment files.
func (l *SendLog) SpilledSegments() int64 {
	if sp := l.spill; sp != nil {
		return sp.segCount.Load()
	}
	return 0
}

// SpillReadbackBytes returns the cumulative payload bytes served back to
// readers from the disk tier.
func (l *SendLog) SpillReadbackBytes() int64 {
	if sp := l.spill; sp != nil {
		return sp.readback.Load()
	}
	return 0
}

// SpillDegraded reports whether the spill tier is currently unable to write
// (disk fault): the log keeps running with FlowBlock semantics — bounded
// memory, blocking appends, zero data loss — until the disk recovers.
func (l *SendLog) SpillDegraded() bool {
	if sp := l.spill; sp != nil {
		return sp.degraded.Load()
	}
	return false
}

// SetSpillWriteFault makes every subsequent spill segment write fail with
// cause — the fault-injection hook for disk-full and similar persistent
// failures. The spiller degrades to FlowBlock semantics while the fault is
// set; nil clears it and spilling resumes on the next append over the
// watermark.
func (l *SendLog) SetSpillWriteFault(cause error) {
	if sp := l.spill; sp != nil {
		sp.setFault(cause)
		if cause == nil {
			// Appenders blocked on the watermark kicked the spiller before
			// the fault cleared; wake it again so they aren't stranded.
			l.kickSpill()
		}
	}
}

// SetSpillHorizon installs the cold-prefix bias: fn returns the lowest
// sequence a live reader still needs from memory (typically the minimum
// send cursor across connected links). The spiller prefers not to migrate
// entries at or above it, so peers that are merely slow keep streaming from
// memory — but when the watermark demands it, bounded memory wins and the
// bias is ignored. nil (the default) treats the whole merged prefix as
// cold. Correctness never depends on the horizon: spilled entries remain
// readable through the same drain calls.
func (l *SendLog) SetSpillHorizon(fn func() uint64) {
	if sp := l.spill; sp != nil {
		sp.horizon.Store(&fn)
	}
}

// Flow returns the admission-control configuration (zero when unbounded).
func (l *SendLog) Flow() FlowConfig {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flow
}

// Full reports whether the admission latch is currently engaged.
func (l *SendLog) Full() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Read-only view: don't recompute the latch here, just report it.
	return l.full
}

// Waiting returns the number of appenders currently blocked on space.
func (l *SendLog) Waiting() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiting
}

// BlockedAppends returns the total appends that had to wait for space.
func (l *SendLog) BlockedAppends() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blocked
}

// ShedAppends returns the total appends rejected with ErrBackpressure.
func (l *SendLog) ShedAppends() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shed
}

// setBackpressureCounters wires optional metrics counters for blocked and
// shed appends (transport-internal).
func (l *SendLog) setBackpressureCounters(blocked, shed *metrics.Counter) {
	l.mu.Lock()
	l.mBlocked = blocked
	l.mShed = shed
	l.mu.Unlock()
}

// Close wakes all blocked appenders with ErrLogClosed and stops the
// spiller (on-disk segments are left in place for recovery).
func (l *SendLog) Close() {
	l.mu.Lock()
	l.closed = true
	l.closedA.Store(true)
	if l.spaceCh != nil {
		close(l.spaceCh)
		l.spaceCh = nil
	}
	l.mu.Unlock()
	if sp := l.spill; sp != nil {
		sp.closeOnce.Do(func() { close(sp.kick) })
		// Wait for the spiller to finish any in-flight segment write and
		// release its cached reader: after Close returns, the spill
		// directory is quiescent and safe to recover from.
		<-sp.done
	}
}
