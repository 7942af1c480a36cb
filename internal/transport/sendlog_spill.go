package transport

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"stabilizer/internal/storage/segment"
	"stabilizer/internal/wire"
)

// The spill tier turns the bounded in-memory send log into the hot tail of
// a two-tier log: [diskOldest, memBase) lives in epoch-numbered segment
// files on disk, [memBase, next) in memory. The spiller goroutine migrates
// the cold merged prefix downward when the admission watermark latches;
// readers cross the disk→memory boundary transparently inside the same
// batched drain calls the links already use. Sequences stay gapless across
// the boundary: a segment is registered (and its entries dropped from
// memory) only after its file is fsynced, and successive segments are
// contiguous by construction. A segment record's body is an entry's wire Data
// frame, written as the log holds it and served back as it was read.

// spillSegmentBytes bounds each segment file's payload (4 MiB: large enough
// to amortize open/sync, small enough that truncation reclaims disk
// promptly). A spill pass stops at the low watermark first, so the bound
// binds only when MaxBytes is above twice this.
const spillSegmentBytes = 4 << 20

const (
	spillSegPrefix = "spill-"
	spillSegSuffix = ".seg"
)

// spillSegment is one sealed, fsynced segment file holding the contiguous
// sequence range [first, last].
type spillSegment struct {
	path  string
	first uint64
	last  uint64
	bytes int64 // payload bytes written (dead prefixes included until delete)
}

// spillState is the disk tier of a SendLog with a SpillDir. Lock order: l.mu
// may be held when taking sp.mu, never the reverse — disk reads run under
// sp.mu alone so they cannot stall appends, and the truncate/registration
// paths that need both take l.mu first.
type spillState struct {
	dir      string
	segBytes int64

	mu    sync.Mutex
	segs  []spillSegment // ascending, contiguous ranges
	trunc uint64         // highest reclaimed sequence (mirror of l.reclaimed)
	epoch uint64         // number for the next segment file

	// Cached sequential reader: the common case is one lagging peer
	// draining the tier in order, so keep its position instead of reopening
	// per call, and a one-entry peek: the entry a batch read last but could
	// not take (over its byte budget, or taken by a one-frame readiness
	// probe) is the first the next batch asks for.
	rd     *segment.Reader
	rdSeg  int    // index into segs of rd's file
	rdNext uint64 // next sequence rd will yield
	peek   LogEntry
	peekOK bool

	spilled  atomic.Int64 // payload bytes across live segments
	segCount atomic.Int64
	readback atomic.Int64 // cumulative payload bytes served from disk
	degraded atomic.Bool  // spill writes currently failing

	faultMu sync.Mutex
	fault   error

	kick      chan struct{} // buffered(1): wake the spiller
	done      chan struct{} // closed when the spiller exits
	closeOnce sync.Once

	// Spiller-goroutine-only scratch.
	batch []LogEntry
}

func newSpillState(flow FlowConfig) (*spillState, error) {
	if err := os.MkdirAll(flow.SpillDir, 0o755); err != nil {
		return nil, fmt.Errorf("transport: spill dir: %w", err)
	}
	segBytes := flow.segBytes
	if segBytes <= 0 {
		segBytes = spillSegmentBytes
	}
	sp := &spillState{
		dir:      flow.SpillDir,
		segBytes: segBytes,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if err := sp.recover(); err != nil {
		return nil, err
	}
	return sp, nil
}

// recover rebuilds the segment chain from the files left by a previous
// incarnation: segments are replayed in epoch order and kept while they form
// one contiguous, CRC-intact sequence chain. A torn tail truncates that
// segment's range (crash mid-spill); everything after the first break is
// unreachable through a gapless stream and is deleted.
func (sp *spillState) recover() error {
	entries, err := os.ReadDir(sp.dir)
	if err != nil {
		return fmt.Errorf("transport: spill recover: %w", err)
	}
	type segFile struct {
		epoch uint64
		path  string
	}
	var files []segFile
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, spillSegPrefix) || !strings.HasSuffix(name, spillSegSuffix) {
			continue
		}
		epStr := strings.TrimSuffix(strings.TrimPrefix(name, spillSegPrefix), spillSegSuffix)
		ep, err := strconv.ParseUint(epStr, 10, 64)
		if err != nil {
			continue // not ours
		}
		files = append(files, segFile{epoch: ep, path: filepath.Join(sp.dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].epoch < files[j].epoch })

	broken := false
	for _, f := range files {
		if f.epoch >= sp.epoch {
			sp.epoch = f.epoch + 1
		}
		if broken {
			_ = os.Remove(f.path)
			continue
		}
		seg, intact, ok := scanSpillFile(f.path)
		if !ok {
			// Empty or unreadable from the first record: nothing usable,
			// and anything after it cannot chain.
			broken = true
			_ = os.Remove(f.path)
			continue
		}
		if n := len(sp.segs); n > 0 && seg.first != sp.segs[n-1].last+1 {
			broken = true // chain gap: later epochs are unreachable
			_ = os.Remove(f.path)
			continue
		}
		sp.segs = append(sp.segs, seg)
		sp.spilled.Add(seg.bytes)
		if !intact {
			broken = true // torn tail: this segment ends the chain
		}
	}
	sp.segCount.Store(int64(len(sp.segs)))
	return nil
}

// scanSpillFile replays one segment file, returning its contiguous intact
// range. intact is false when the file ends in a torn or corrupt record
// (the returned range still covers the intact prefix); ok is false when no
// record is usable.
func scanSpillFile(path string) (seg spillSegment, intact, ok bool) {
	seg.path = path
	r, err := segment.OpenReader(path)
	if err != nil {
		return seg, false, false
	}
	defer r.Close()
	intact = true
	for {
		body, err := r.Next()
		if err != nil {
			return seg, intact, ok // clean EOF keeps intact=true
		}
		e, decOK := spillEntry(body)
		if !decOK || (ok && e.Seq != seg.last+1) {
			// Undecodable or discontiguous record: treat as a torn tail.
			return seg, false, ok
		}
		if !ok {
			seg.first = e.Seq
			ok = true
		}
		seg.last = e.Seq
		seg.bytes += int64(e.payloadLen())
	}
}

// spillEntry reads a segment record body back as a log entry. A body is
// accepted only when it is exactly one whole Data frame, so a record of any
// other layout is never served.
func spillEntry(body []byte) (LogEntry, bool) {
	var d wire.Data
	if n := wire.DecodeDataFrame(body, &d); n == 0 || n != len(body) {
		return LogEntry{}, false
	}
	return LogEntry{Seq: d.Seq, Frame: body}, true
}

func (sp *spillState) setFault(cause error) {
	sp.faultMu.Lock()
	sp.fault = cause
	sp.faultMu.Unlock()
}

func (sp *spillState) loadFault() error {
	sp.faultMu.Lock()
	defer sp.faultMu.Unlock()
	return sp.fault
}

// oldest returns the oldest live on-disk sequence (reclaimed prefixes of
// the first segment excluded). ok is false when the disk tier is empty.
func (sp *spillState) oldest() (uint64, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.oldestLocked()
}

func (sp *spillState) oldestLocked() (uint64, bool) {
	if len(sp.segs) == 0 {
		return 0, false
	}
	first := sp.segs[0].first
	if sp.trunc+1 > first {
		first = sp.trunc + 1
	}
	return first, true
}

// nextSegPathLocked reserves the next epoch number. Caller holds sp.mu.
func (sp *spillState) nextSegPathLocked() string {
	p := filepath.Join(sp.dir, fmt.Sprintf("%s%08d%s", spillSegPrefix, sp.epoch, spillSegSuffix))
	sp.epoch++
	return p
}

// discardAllLocked drops every recovered segment (used when a checkpoint
// makes the recovered chain unsequenceable). Called before the log is
// shared, so no locking.
func (sp *spillState) discardAllLocked() {
	for _, s := range sp.segs {
		_ = os.Remove(s.path)
	}
	sp.segs = nil
	sp.spilled.Store(0)
	sp.segCount.Store(0)
}

// truncate reclaims every on-disk sequence <= seq: whole segments below the
// watermark are deleted; a segment straddling it keeps its file until its
// last sequence is reclaimed (readers skip the dead prefix via trunc).
// Caller holds l.mu.
func (sp *spillState) truncate(seq uint64) {
	sp.mu.Lock()
	if seq > sp.trunc {
		sp.trunc = seq
	}
	removed := 0
	var victims []string
	for removed < len(sp.segs) && sp.segs[removed].last <= seq {
		sp.spilled.Add(-sp.segs[removed].bytes)
		victims = append(victims, sp.segs[removed].path)
		removed++
	}
	if removed > 0 {
		sp.segs = sp.segs[:copy(sp.segs, sp.segs[removed:])]
		sp.segCount.Store(int64(len(sp.segs)))
		if sp.rd != nil {
			if sp.rdSeg < removed {
				_ = sp.rd.Close()
				sp.rd = nil
			} else {
				sp.rdSeg -= removed
			}
		}
	}
	if sp.peekOK && sp.peek.Seq <= seq {
		sp.peekOK = false
	}
	sp.mu.Unlock()
	for _, p := range victims {
		_ = os.Remove(p)
	}
}

// readBatch appends entries [seq, memBase) from the disk tier to dst,
// bounded by the caller's frame and byte budgets. start is the dst length
// at the top of the caller's whole batch (for the oversize first-frame
// rule). Returns the extended dst and the next sequence to read: memBase
// once the tier has nothing more for this reader, less when the batch filled
// or the tier is wedged.
func (sp *spillState) readBatch(seq, memBase uint64, dst []LogEntry, start, maxFrames int, budget *int) ([]LogEntry, uint64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	oldest, any := sp.oldestLocked()
	if !any {
		return dst, memBase
	}
	if seq < oldest {
		seq = oldest
	}
	top := sp.segs[len(sp.segs)-1].last
	for len(dst)-start < maxFrames && seq < memBase {
		if seq > top {
			return dst, memBase // reclaimed gap between tiers
		}
		e, got := sp.nextLocked(seq)
		if !got {
			return dst, seq // wedged: stall, never gap
		}
		if len(dst) > start && e.payloadLen() > *budget {
			return dst, seq
		}
		dst = append(dst, e)
		*budget -= e.payloadLen()
		sp.readback.Add(int64(e.payloadLen()))
		seq++
	}
	return dst, seq
}

// nextLocked returns the entry at seq using the cached sequential reader,
// repositioning it when the request is not the next in line. Caller holds
// sp.mu and has established first <= seq <= top.
func (sp *spillState) nextLocked(seq uint64) (LogEntry, bool) {
	if sp.peekOK && sp.peek.Seq == seq {
		return sp.peek, true
	}
	if sp.rd == nil || sp.rdNext > seq || sp.rdSeg >= len(sp.segs) || seq > sp.segs[sp.rdSeg].last && sp.rdNext != sp.segs[sp.rdSeg].last+1 {
		// Reposition: binary-search the segment holding seq and start a
		// fresh reader at its head (records below seq are skipped).
		idx := sort.Search(len(sp.segs), func(i int) bool { return sp.segs[i].last >= seq })
		if idx == len(sp.segs) || sp.segs[idx].first > seq {
			return LogEntry{}, false
		}
		if !sp.openSegLocked(idx) {
			return LogEntry{}, false
		}
	}
	for {
		if sp.rdNext > sp.segs[sp.rdSeg].last {
			// Cross into the next segment (contiguous by construction).
			if sp.rdSeg+1 >= len(sp.segs) {
				return LogEntry{}, false
			}
			if !sp.openSegLocked(sp.rdSeg + 1) {
				return LogEntry{}, false
			}
		}
		body, err := sp.rd.Next()
		if err == io.EOF || err != nil {
			// A sealed segment ended before its recorded range: disk
			// corruption after the seal. Wedge rather than fabricate a
			// gap; the node's Explain names what it holds up.
			sp.dropReaderLocked()
			return LogEntry{}, false
		}
		e, ok := spillEntry(body)
		if !ok || e.Seq != sp.rdNext {
			sp.dropReaderLocked()
			return LogEntry{}, false
		}
		// The segment reader hands out a fresh allocation per record, so
		// the frame is safe to retain and share.
		sp.rdNext++
		if e.Seq == seq {
			sp.peek, sp.peekOK = e, true
			return e, true
		}
		// e.Seq < seq: skipping the dead or already-consumed prefix.
	}
}

func (sp *spillState) openSegLocked(idx int) bool {
	if sp.rd != nil {
		_ = sp.rd.Close()
		sp.rd = nil
	}
	rd, err := segment.OpenReader(sp.segs[idx].path)
	if err != nil {
		return false
	}
	sp.rd, sp.rdSeg, sp.rdNext = rd, idx, sp.segs[idx].first
	sp.peekOK = false
	return true
}

func (sp *spillState) dropReaderLocked() {
	if sp.rd != nil {
		_ = sp.rd.Close()
		sp.rd = nil
	}
	sp.peekOK = false
}

// kickSpill wakes the spiller without blocking (coalescing with a pending
// wakeup). Safe under l.mu.
func (l *SendLog) kickSpill() {
	select {
	case l.spill.kick <- struct{}{}:
	default:
	}
}

// spiller is the background migration goroutine: each wakeup drains the
// cold merged prefix into segment files until the admission latch clears.
func (l *SendLog) spiller() {
	sp := l.spill
	defer func() {
		sp.mu.Lock()
		sp.dropReaderLocked()
		sp.mu.Unlock()
		close(sp.done)
	}()
	for range sp.kick {
		for l.spillOnce() {
		}
	}
}

// spillOnce migrates one segment's worth of the cold prefix to disk.
// Returns true when it spilled and more work may remain.
//
// The segment file is written outside every lock and registered only after
// l.mu is re-taken, so between those two points a spill-*.seg exists on disk
// that no reader, truncation or SpilledSegments count knows about. If the
// range was reclaimed meanwhile (l.base > last) the file is stillborn and is
// removed right there; if the log closed, likewise. No path leaves it
// behind, but a directory listing taken inside the window sees it.
func (l *SendLog) spillOnce() bool {
	sp := l.spill
	if sp.loadFault() != nil {
		sp.degraded.Store(true)
		return false // disk faulted: appends block at the cap until cleared
	}

	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return false
	}
	l.mergeLocked()
	if !l.overLocked() {
		l.mu.Unlock()
		return false
	}
	live := len(l.entries) - l.off
	if live == 0 {
		l.mu.Unlock()
		return false
	}
	// Spill down to the low watermark, one segment's worth at a time.
	needBytes := l.bytes.Load() - l.flow.lowBytes()
	count := 0
	var bytes int64
	for count < live && bytes < sp.segBytes && bytes < needBytes {
		bytes += int64(l.entries[l.off+count].payloadLen())
		count++
	}
	sp.batch = append(sp.batch[:0], l.entries[l.off:l.off+count]...)
	first := l.base
	sp.mu.Lock()
	path := sp.nextSegPathLocked()
	sp.mu.Unlock()
	l.mu.Unlock()

	// Write and seal the segment outside every lock: appends, truncation
	// and reads all proceed while the cold copy streams to disk (the
	// entries are still in memory and still visible).
	err := writeSpillSegment(path, sp, sp.batch)
	if err != nil {
		_ = os.Remove(path)
		sp.degraded.Store(true)
		return false
	}
	sp.degraded.Store(false)
	last := first + uint64(count) - 1

	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		_ = os.Remove(path)
		return false
	}
	if l.base > last {
		// The whole range was reclaimed while we wrote: the segment was
		// stillborn.
		l.mu.Unlock()
		_ = os.Remove(path)
		return true
	}
	sp.mu.Lock()
	sp.segs = append(sp.segs, spillSegment{path: path, first: first, last: last, bytes: bytes})
	sp.spilled.Add(bytes)
	sp.segCount.Store(int64(len(sp.segs)))
	if l.reclaimed > sp.trunc {
		sp.trunc = l.reclaimed // a concurrent truncate may have eaten a prefix
	}
	sp.mu.Unlock()
	// Only now — with the segment durable and registered — do the entries
	// leave memory, so no reader ever finds a hole between the tiers.
	l.dropHeadLocked(int(last - l.base + 1))
	l.mu.Unlock()
	clear(sp.batch) // release frame references from the scratch buffer
	return true
}

func writeSpillSegment(path string, sp *spillState, batch []LogEntry) error {
	w, err := segment.OpenWriter(path, false)
	if err != nil {
		return err
	}
	if f := sp.loadFault(); f != nil {
		w.SetWriteFault(f)
	}
	for i := range batch {
		if err := w.Append(batch[i].Frame); err != nil {
			_ = w.Close()
			return err
		}
	}
	if err := w.Sync(); err != nil {
		_ = w.Close()
		return err
	}
	return w.Close()
}
