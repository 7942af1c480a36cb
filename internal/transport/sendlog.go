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
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"stabilizer/internal/metrics"
	"stabilizer/internal/wire"
)

// ErrLogClosed is returned by send-log operations after Close.
var ErrLogClosed = errors.New("transport: send log closed")

// ErrBackpressure marks an append the send log refused: the log is at its
// byte cap — the slowest unreclaimed peer has put the node into admission
// control — and the caller's context ended before space freed. The returned
// error also wraps that context's error. The caller should shed load, retry
// later, or fall back to a weaker predicate (core.Node.Explain names the peer).
var ErrBackpressure = errors.New("transport: send log backpressure")

// FlowConfig bounds the send log so a partitioned or slow peer cannot grow
// the retransmission buffer without limit. The zero value disables admission
// control entirely: an unbounded log.
//
// The context decides how long, the directory decides where: at the cap an
// append waits for reclaim exactly as long as its context allows (AppendCtx),
// and with SpillDir set the cold prefix migrates to disk instead of holding
// appenders, so they wait only while the spiller is behind or the disk has
// failed.
//
// Admission control is hysteretic: once the cap is reached the log is "full"
// and stays full until reclaim brings it back under the low watermark (half
// the cap), so appenders don't thrash at the boundary. The cap is checked
// before the entry is added, so the buffer can exceed MaxBytes by at most one
// payload — "cap plus one message", never unbounded — and it is global across
// all producer stripes.
//
// The cap counts payload bytes, not the memory under them: frames are carved
// from shared chunks (see frameChunkBytes), and a chunk lives while any frame
// in it is referenced, by the log or by a connection's queue, so a log holds
// at most about two chunks beyond its live frames.
type FlowConfig struct {
	// MaxBytes is the high watermark on buffered payload bytes (0 = no cap).
	MaxBytes int64
	// SpillDir, when set, is the directory holding the on-disk segment files
	// of the spill tier; it needs MaxBytes, the spill watermark. Existing
	// segments found at open are recovered (crash restart).
	SpillDir string
	// segBytes overrides spillSegmentBytes for tests that need several small
	// segments (0 = the constant).
	segBytes int64
}

// Enabled reports whether the byte cap is configured.
func (f FlowConfig) Enabled() bool { return f.MaxBytes > 0 }

// lowBytes returns the low watermark the full latch clears at.
func (f FlowConfig) lowBytes() int64 { return f.MaxBytes / 2 }

// LogEntry is one sequenced data message buffered for (re)transmission: its
// finished wire Data frame, the one record of the message in memory, on disk
// and on every link (wire.DecodeDataFrame reads it), beside its sequence.
//
// A visible frame is never written again. A frame's spare capacity belongs
// to the frames after it: the log carves consecutive frames end to end from
// one chunk (see frameChunkBytes), so nothing appends to a Frame or writes
// past its length.
type LogEntry struct {
	Seq   uint64
	Frame []byte
}

// payloadLen is the entry's payload size, the unit of flow accounting and
// batch budgets.
func (e *LogEntry) payloadLen() int { return len(e.Frame) - wire.DataFrameOverhead }

// frameChunkBytes is the size of the chunks the memory tier carves frames
// from. A frame longer than a quarter chunk gets an allocation of its own,
// so a chunk's unused tail is at most a quarter of it.
const frameChunkBytes = 256 << 10

// frameChunk is one run of frames laid end to end. used counts the bytes
// reserved, which may run past the end: a reservation that does not fit
// takes nothing here and installs the next chunk.
type frameChunk struct {
	buf  []byte
	used atomic.Int64
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
	// bytes (reserved, staged and merged). rr is the sticky stripe hint: the
	// index of the stripe producers should try first (see lockStripe).
	next  atomic.Uint64
	bytes atomic.Int64
	rr    atomic.Uint32
	// closed is written under mu (so a blocked appender cannot miss it) and
	// read lock-free by the staging path.
	closed atomic.Bool
	// full is the hysteretic admission latch: set once the cap is hit,
	// cleared only below the low watermark. Written under mu; appends read
	// it lock-free to stay off the central mutex far below the cap.
	full atomic.Bool

	stripes []logStripe
	flow    FlowConfig // fixed at construction
	// onAppend hears each sequence inside its stripe lock (see OnAppend);
	// set before the first append.
	onAppend func(seq uint64, sentUnixNano int64)
	// chunk is the frame chunk appends carve their frames from (see carve).
	chunk atomic.Pointer[frameChunk]
	// Everything above is all an append below the cap touches; everything
	// below changes under mu on every merge and truncation. The pad keeps the
	// drainers' writes off the producers' cache lines (as logStripe's does
	// between stripes).
	_ [64]byte

	mu   sync.Mutex
	base uint64 // sequence of entries[off]; next when empty
	// off is the reclaimed prefix length of entries: entries[:off] are
	// zeroed husks kept so TruncateThrough can advance in O(1) and only
	// compact when the dead prefix dominates the slice.
	off     int
	entries []LogEntry // canonical merged log, contiguous from base
	// reclaimed is the highest sequence ever passed to TruncateThrough
	// (clamped to assigned sequences). A truncation can overtake a staged
	// entry stuck behind a reservation gap in another stripe; the merge
	// consults this watermark so such an entry is dropped on arrival
	// instead of being re-exposed to readers after its reclaim.
	reclaimed uint64

	// Flow control (admission) state. spaceCh is the wakeup channel for
	// blocked appenders: created on demand, closed and dropped when space
	// frees, so each stall round gets a fresh channel.
	spaceCh chan struct{}
	waiting int // appenders currently blocked
	// blocked and shed count the appends that had to wait and the ones
	// rejected with ErrBackpressure. A log starts with counters of its own;
	// transport.New, under mu, swaps in the node's children of
	// stabilizer_transport_backpressure_total, so the number Stats reports
	// and the number /metrics exposes are one counter.
	blocked *metrics.Counter
	shed    *metrics.Counter

	// spill is the disk tier (nil without FlowConfig.SpillDir).
	spill *spillState
}

// NewSendLog returns an empty, unbounded log whose first assigned sequence
// is firstSeq (1 on a fresh start; a checkpointed value on primary restart).
func NewSendLog(firstSeq uint64) *SendLog {
	return newSendLog(firstSeq, FlowConfig{}, defaultLogStripes())
}

// NewSendLogFlow is NewSendLog with admission control configured. With
// flow.SpillDir set it creates (or recovers) the on-disk segment tier there
// and starts the spiller, and fails when that cannot be done. Recovered
// segments re-anchor the log: the next assigned sequence continues after the
// highest recovered one, and the recovered backlog is served from disk
// exactly as if it had just been spilled.
func NewSendLogFlow(firstSeq uint64, flow FlowConfig) (*SendLog, error) {
	return newSendLogFlow(firstSeq, flow, defaultLogStripes())
}

// newSendLogFlow is NewSendLogFlow at an exact stripe count.
func newSendLogFlow(firstSeq uint64, flow FlowConfig, stripes int) (*SendLog, error) {
	if flow.SpillDir == "" {
		return newSendLog(firstSeq, flow, stripes), nil
	}
	if !flow.Enabled() {
		return nil, errors.New("transport: FlowConfig.SpillDir requires MaxBytes (the spill watermark)")
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
// the external contract (gapless sequences, contiguous batches, a global flow
// cap) is identical at every stripe count.
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
		blocked: new(metrics.Counter),
		shed:    new(metrics.Counter),
	}
	l.next.Store(firstSeq)
	l.reclaimed = firstSeq - 1
	return l
}

// OnAppend makes fn hear every sequence the log assigns, with its send time,
// before any reader can see the entry: a record fn keeps exists before the
// message can be sent, let alone acknowledged. fn runs inside the append's
// stripe lock, so it must be short and must not call the log. Call it before
// the first append.
func (l *SendLog) OnAppend(fn func(seq uint64, sentUnixNano int64)) { l.onAppend = fn }

// Append assigns the next sequence number to payload and buffers it, on
// AppendCtx's terms. A log at its cap makes Append wait, without deadline,
// until reclaim frees space or the log closes — use AppendCtx to bound the
// wait.
func (l *SendLog) Append(payload []byte, sentUnixNano int64) (uint64, error) {
	return l.AppendCtx(nil, payload, sentUnixNano)
}

// AppendCtx is Append with the caller's patience attached: at the cap it
// waits for space exactly as long as ctx allows — forever when ctx is nil,
// not at all when ctx is already done — and then returns an error wrapping
// both ErrBackpressure and ctx.Err(). ctx is consulted only when admission
// would block: below the cap an append succeeds whatever its context.
//
// The one ownership rule of the send path: the payload is copied before the
// call returns, so the caller may reuse or mutate it at once. That copy is
// the message's wire Data frame, built in place in the log's current chunk
// (see carve and LogEntry's capacity rule), which the log keeps, spills and
// hands to every link as it is.
//
// Below the cap the whole operation is an atomic byte reservation, an atomic
// chunk reservation, the copy, and one short per-stripe critical section;
// only a reservation the cap refuses takes the central mutex (admit).
func (l *SendLog) AppendCtx(ctx context.Context, payload []byte, sentUnixNano int64) (uint64, error) {
	pl := int64(len(payload))
	if !l.reserve(pl) {
		if err := l.admit(ctx, pl); err != nil {
			return 0, err
		}
	}
	frame := wire.AppendDataFrame(l.carve(wire.DataFrameOverhead+len(payload)), 0, sentUnixNano, payload)
	// The sequence is reserved inside the stripe lock, which is what keeps
	// each stripe internally sorted for the merge.
	s := l.lockStripe()
	if l.closed.Load() {
		s.mu.Unlock()
		l.bytes.Add(-pl)
		return 0, ErrLogClosed
	}
	seq := l.next.Add(1) - 1
	wire.PutDataSeq(frame, seq)
	if l.onAppend != nil {
		l.onAppend(seq, sentUnixNano)
	}
	s.entries = append(s.entries, LogEntry{Seq: seq, Frame: frame})
	s.mu.Unlock()
	return seq, nil
}

// carve returns an empty slice with room for an n-byte frame: the next n
// bytes of the current chunk, reserved with one atomic add, its capacity
// running on to the chunk's end. A reservation past the end installs a fresh
// chunk with one compare-and-swap, and a loser retries on the winner's. A
// frame longer than a quarter chunk gets an allocation of its own.
func (l *SendLog) carve(n int) []byte {
	if n > frameChunkBytes/4 {
		return make([]byte, 0, n)
	}
	var fresh *frameChunk
	for {
		c := l.chunk.Load()
		if c != nil {
			if end := int(c.used.Add(int64(n))); end <= frameChunkBytes {
				return c.buf[end-n : end-n]
			}
		}
		if fresh == nil {
			fresh = &frameChunk{buf: make([]byte, frameChunkBytes)}
		}
		fresh.used.Store(int64(n))
		if l.chunk.CompareAndSwap(c, fresh) {
			return fresh.buf[:0]
		}
	}
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

// reserve is admission far below the cap: it accounts pl payload bytes
// without the central mutex and reports whether it did. A bounded log
// reserves by compare-and-swap and never publishes a sum at or above the cap
// — that append, and every one while the full latch is set, goes through
// admit — so no reader of Bytes ever sees more than the cap plus the one
// payload admit lets through.
func (l *SendLog) reserve(pl int64) bool {
	max := l.flow.MaxBytes
	if max <= 0 {
		l.bytes.Add(pl)
		return true
	}
	for !l.full.Load() {
		b := l.bytes.Load()
		if b+pl >= max {
			return false
		}
		if l.bytes.CompareAndSwap(b, b+pl) {
			return true
		}
	}
	return false
}

// admit is admission at the cap: under the central mutex, so the check is
// exact across stripes, it latches full, kicks the spiller, and holds the
// caller until reclaim (or the spiller) clears the latch, ctx ends, or the
// log closes; then it accounts pl payload bytes.
func (l *SendLog) admit(ctx context.Context, pl int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrLogClosed
	}
	if l.overLocked() {
		var done <-chan struct{}
		if ctx != nil {
			if ctx.Err() != nil {
				return l.shedLocked(ctx)
			}
			done = ctx.Done()
		}
		l.blocked.Inc()
		if l.spill != nil {
			l.kickSpill()
		}
		for {
			ch := l.spaceCh
			if ch == nil {
				ch = make(chan struct{})
				l.spaceCh = ch
			}
			l.waiting++
			l.mu.Unlock()
			select {
			case <-ch:
			case <-done:
			}
			l.mu.Lock()
			l.waiting--
			if l.closed.Load() {
				return ErrLogClosed
			}
			if !l.overLocked() {
				break
			}
			if ctx != nil && ctx.Err() != nil {
				return l.shedLocked(ctx)
			}
		}
	}
	l.bytes.Add(pl)
	if l.spill != nil && l.overLocked() {
		// The high watermark latched: wake the spiller so the cold prefix
		// starts migrating to disk before appenders have to block.
		l.kickSpill()
	}
	return nil
}

// shedLocked counts an append refused because ctx ended at the cap and
// builds its error.
func (l *SendLog) shedLocked(ctx context.Context) error {
	l.shed.Inc()
	return fmt.Errorf("%w: %w", ErrBackpressure, ctx.Err())
}

// overLocked reports whether admission control currently gates appends,
// updating the hysteretic full latch from the live byte count.
func (l *SendLog) overLocked() bool {
	if max := l.flow.MaxBytes; max > 0 {
		if b := l.bytes.Load(); b >= max {
			l.full.Store(true)
		} else if b <= l.flow.lowBytes() && l.full.Load() {
			l.full.Store(false)
		}
	}
	return l.full.Load()
}

// releaseSpaceLocked refreshes the hysteretic latch from the live counts
// and wakes blocked appenders once it clears. It runs on every reclaim —
// not just when appenders are waiting — so Full() tracks truncation for
// callers that never wait, where the next admission check may be
// arbitrarily far away.
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
					l.bytes.Add(-int64(s.entries[n].payloadLen()))
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
				clear(s.entries[rest:]) // drop stale frame references
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

// TryNextBatch drains a contiguous run of ready entries starting at seq,
// appending them to dst and returning the extended slice. The run is capped
// at maxFrames entries and stops before the entry that would push the
// accumulated payload bytes past maxBytes — but always includes at least one
// entry when any is ready, so a single payload larger than the whole byte
// budget is still sent rather than wedging the link (the oversize first-frame
// rule; flow control has already accounted such a payload at admission, so
// draining it promptly is also what unblocks waiting appenders). A seq below
// the in-memory base reads the disk tier when there is one — crossing into
// the live memory tail within the same batch, gapless, under the same budget
// — and snaps to the base when there is not: the first entry's Seq tells the
// caller where it landed. Entries share their frames with the log; callers
// must not mutate them.
func (l *SendLog) TryNextBatch(seq uint64, dst []LogEntry, maxFrames, maxBytes int) []LogEntry {
	if maxFrames < 1 {
		maxFrames = 1
	}
	start, budget := len(dst), maxBytes
	l.mu.Lock()
	l.mergeLocked()
	for seq < l.base {
		if l.spill == nil {
			seq = l.base
			break
		}
		// Disk reads run outside l.mu so they cannot stall appends; the base
		// may have moved by the time the lock is back, hence the loop.
		memBase := l.base
		l.mu.Unlock()
		dst, seq = l.spill.readBatch(seq, memBase, dst, start, maxFrames, &budget)
		if seq < memBase {
			return dst // stopped inside the disk tier: batch full, or wedged (stall, don't gap)
		}
		l.mu.Lock()
		l.mergeLocked()
	}
	vnext := l.visibleNextLocked()
	for len(dst)-start < maxFrames && seq < vnext {
		e := l.entries[l.off+int(seq-l.base)]
		if len(dst) > start && e.payloadLen() > budget {
			break
		}
		dst = append(dst, e)
		budget -= e.payloadLen()
		seq++
	}
	l.mu.Unlock()
	return dst
}

// TruncateThrough reclaims every entry with sequence ≤ seq. Staged stripe
// entries are merged first, so a reclaim that has raced ahead of the drainer
// still accounts every byte.
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
	l.dropHeadLocked(drop)
}

// dropHeadLocked releases the first n merged entries — reclaimed, or durable
// on disk — and advances base past them. It is amortized: dropped entries are
// zeroed in place (releasing their frames to the collector) and the slice
// is only compacted once the dead prefix outgrows the live tail, so each
// entry is moved O(1) times over its life instead of once per call.
func (l *SendLog) dropHeadLocked(n int) {
	dead := l.entries[l.off : l.off+n]
	var freed int64
	for i := range dead {
		freed += int64(dead[i].payloadLen())
	}
	l.bytes.Add(-freed)
	clear(dead) // release frame references
	l.off += n
	l.base += uint64(n)
	if l.off >= len(l.entries)-l.off && l.off >= compactThreshold {
		live := copy(l.entries, l.entries[l.off:])
		clear(l.entries[live:])
		l.entries = l.entries[:live]
		l.off = 0
	}
	l.releaseSpaceLocked()
}

// compactThreshold is the minimum dead-prefix length before dropHeadLocked
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

// Bytes returns the payload bytes currently buffered across both tiers:
// the total retransmission backlog. It is two atomic loads, for the callers
// that poll it; Stats has the memory and disk shares.
func (l *SendLog) Bytes() int64 {
	b := l.bytes.Load()
	if sp := l.spill; sp != nil {
		b += sp.spilled.Load()
	}
	return b
}

// LogStats is one reading of a send log: every field is taken under a single
// hold of the log's mutex, so the fields describe the same instant.
type LogStats struct {
	// Base is the oldest retained sequence across both tiers (Head+1 when
	// nothing is buffered); Head the highest assigned sequence (0 if none).
	Base uint64 `json:"base"`
	Head uint64 `json:"head"`
	// Entries and Bytes size the whole retransmission backlog, memory plus
	// disk. MemoryBytes is the in-memory share, the quantity CapBytes bounds.
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	MemoryBytes int64 `json:"memoryBytes"`
	// SpilledBytes and SpilledSegments describe the live on-disk segments;
	// SpillReadbackBytes is the cumulative payload served back from them.
	// SpillDegraded is set while the disk tier cannot write and the log runs
	// as if it had no directory: bounded memory, blocking appends, no loss.
	// All zero without FlowConfig.SpillDir.
	SpilledBytes       int64 `json:"spilledBytes"`
	SpilledSegments    int64 `json:"spilledSegments"`
	SpillReadbackBytes int64 `json:"spillReadbackBytes"`
	SpillDegraded      bool  `json:"spillDegraded"`
	// CapBytes is FlowConfig.MaxBytes (0 = unbounded); Full the admission
	// latch; Waiting the appenders blocked on it right now.
	CapBytes int64 `json:"capBytes"`
	Full     bool  `json:"full"`
	Waiting  int   `json:"waiting"`
	// BlockedAppends and ShedAppends count the appends that had to wait and
	// the ones rejected with ErrBackpressure. Under a transport they are the
	// node's stabilizer_transport_backpressure_total counters, which a
	// registry keeps across an in-process restart of the node.
	BlockedAppends int64 `json:"blockedAppends"`
	ShedAppends    int64 `json:"shedAppends"`
}

// Stats reads the log once. It is for snapshots, gauges and sweeps, not for
// a data path: it takes the central mutex (and the disk tier's).
func (l *SendLog) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.next.Load() - 1
	s := LogStats{
		Base:           l.base,
		Head:           head,
		MemoryBytes:    l.bytes.Load(),
		CapBytes:       l.flow.MaxBytes,
		Full:           l.full.Load(),
		Waiting:        l.waiting,
		BlockedAppends: l.blocked.Value(),
		ShedAppends:    l.shed.Value(),
	}
	if sp := l.spill; sp != nil {
		if first, ok := sp.oldest(); ok {
			s.Base = first
		}
		s.SpilledBytes = sp.spilled.Load()
		s.SpilledSegments = sp.segCount.Load()
		s.SpillReadbackBytes = sp.readback.Load()
		s.SpillDegraded = sp.degraded.Load()
	}
	s.Entries = int(head + 1 - s.Base)
	s.Bytes = s.MemoryBytes + s.SpilledBytes
	return s
}

// SetSpillWriteFault makes every subsequent spill segment write fail with
// cause — the fault-injection hook for disk-full and similar persistent
// failures. Appends at the cap block while the fault is set; nil clears it
// and spilling resumes on the next append over the watermark.
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

// Close wakes all blocked appenders with ErrLogClosed and stops the
// spiller (on-disk segments are left in place for recovery).
func (l *SendLog) Close() {
	l.mu.Lock()
	l.closed.Store(true)
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
