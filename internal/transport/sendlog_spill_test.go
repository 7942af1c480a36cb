package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stabilizer/internal/storage/segment"
	"stabilizer/internal/wire"
)

// spillPayload is the deterministic, sequence-derived payload used across
// the spill tests: any delivered entry can be checked byte-for-byte against
// ground truth without keeping a copy.
func spillPayload(seq uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seq*131 + uint64(i)*7 + 13)
	}
	return p
}

// checkSpillEntry checks an entry from either tier against ground truth: its
// frame must be byte-identical to what AppendFrame encodes for it.
func checkSpillEntry(t *testing.T, e LogEntry, payloadLen int) {
	t.Helper()
	want := wire.AppendFrame(nil, &wire.Data{Seq: e.Seq, SentUnixNano: int64(e.Seq*1000 + 7), Payload: spillPayload(e.Seq, payloadLen)})
	if !bytes.Equal(e.Frame, want) {
		t.Fatalf("seq %d frame differs from AppendFrame's across the tier boundary:\n%x\nvs\n%x", e.Seq, e.Frame, want)
	}
}

// drainSpillLog drains the log from seq via the batched read path, checking
// that the stream is gapless and byte-identical to ground truth, and
// returns the next undrained sequence.
func drainSpillLog(t *testing.T, l *SendLog, seq uint64, payloadLen int) uint64 {
	t.Helper()
	for {
		batch := l.TryNextBatch(seq, nil, 32, 1<<20)
		if len(batch) == 0 {
			return seq
		}
		for _, e := range batch {
			if e.Seq != seq {
				t.Fatalf("gap in drained stream: got seq %d, want %d", e.Seq, seq)
			}
			checkSpillEntry(t, e, payloadLen)
			seq++
		}
	}
}

func spillSegFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), "spill-") && strings.HasSuffix(de.Name(), ".seg") {
			out = append(out, filepath.Join(dir, de.Name()))
		}
	}
	return out
}

// TestSpillBoundedMemoryGaplessReadback is the core spill-tier contract: a
// backlog several times the memory cap spills to disk, memory stays under
// cap-plus-one-payload at every step, and the batched drain returns the
// entire stream gapless and byte-identical across the disk->memory boundary.
func TestSpillBoundedMemoryGaplessReadback(t *testing.T) {
	const (
		payloadLen = 64
		total      = 500
		capBytes   = 8 << 10
	)
	flow := FlowConfig{
		MaxBytes: capBytes,
		SpillDir: t.TempDir(),
		segBytes: 2 << 10,
	}
	l, err := newSendLogFlow(1, flow, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var sent int64
	for i := 0; i < total; i++ {
		seq := uint64(i + 1)
		if _, err := l.Append(spillPayload(seq, payloadLen), int64(seq*1000+7)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		sent += payloadLen
		if mem := l.Stats().MemoryBytes; mem > capBytes+payloadLen {
			t.Fatalf("after append %d: memory %d exceeds cap %d + one payload", seq, mem, capBytes)
		}
	}
	if got := l.Bytes(); got != sent {
		t.Fatalf("total backlog Bytes() = %d, want %d (memory+disk)", got, sent)
	}
	if l.Stats().SpilledBytes == 0 || l.Stats().SpilledSegments == 0 {
		t.Fatalf("no spill despite %d bytes against a %d cap (spilled=%d segs=%d)",
			sent, capBytes, l.Stats().SpilledBytes, l.Stats().SpilledSegments)
	}
	if next := drainSpillLog(t, l, 1, payloadLen); next != total+1 {
		t.Fatalf("drained through seq %d, want %d", next-1, total)
	}
	if l.Stats().SpillReadbackBytes == 0 {
		t.Fatal("drain crossed the disk tier but SpillReadbackBytes is 0")
	}
	if l.Stats().Entries != total {
		t.Fatalf("Entries = %d, want %d (nothing truncated)", l.Stats().Entries, total)
	}
}

// TestSpillSingleEntryReads exercises one-frame batch reads against the disk
// tier (the link's readiness probe).
func TestSpillSingleEntryReads(t *testing.T) {
	const payloadLen = 64
	flow := FlowConfig{MaxBytes: 1 << 10, SpillDir: t.TempDir()}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 100; i++ {
		if _, err := l.Append(spillPayload(uint64(i), payloadLen), int64(uint64(i)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().SpilledSegments == 0 {
		t.Fatal("expected spilled segments")
	}
	// Seq 1 now lives on disk; a probe must serve it, twice over.
	for i := 0; i < 2; i++ {
		e, ok := tryNext(l, 1)
		if !ok || e.Seq != 1 {
			t.Fatalf("probe %d at 1 = (%v, %v), want disk-tier entry 1", i, e.Seq, ok)
		}
		checkSpillEntry(t, e, payloadLen)
	}
	// And sequential one-frame reads must walk the whole stream gapless.
	for seq := uint64(1); seq <= 100; seq++ {
		e, ok := tryNext(l, seq)
		if !ok || e.Seq != seq {
			t.Fatalf("read at %d = (%v, %v)", seq, e.Seq, ok)
		}
		checkSpillEntry(t, e, payloadLen)
	}
}

// TestSpillTruncate: reclaim below the cursor horizon deletes dead segment
// files, partially-reclaimed segments keep serving their live suffix, and
// a full reclaim empties the tier.
func TestSpillTruncate(t *testing.T) {
	const payloadLen = 64
	dir := t.TempDir()
	flow := FlowConfig{MaxBytes: 1 << 10, SpillDir: dir, segBytes: 512}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const total = 200
	for i := 1; i <= total; i++ {
		if _, err := l.Append(spillPayload(uint64(i), payloadLen), int64(uint64(i)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().SpilledSegments < 2 {
		t.Fatalf("want >= 2 segments, got %d", l.Stats().SpilledSegments)
	}
	files := len(spillSegFiles(t, dir))

	// Truncate into the middle of the spilled range: some files die, the
	// rest of the stream stays gapless from the new base.
	l.TruncateThrough(total / 2)
	if got := len(spillSegFiles(t, dir)); got >= files {
		t.Fatalf("truncate reclaimed no segment files (%d -> %d)", files, got)
	}
	if base := l.Stats().Base; base != total/2+1 {
		t.Fatalf("Base() = %d after TruncateThrough(%d)", base, total/2)
	}
	if next := drainSpillLog(t, l, l.Stats().Base, payloadLen); next != total+1 {
		t.Fatalf("post-truncate drain ended at %d, want %d", next-1, total)
	}

	// Full reclaim: the disk tier empties and every file is gone.
	l.TruncateThrough(total)
	if l.Stats().SpilledBytes != 0 || l.Stats().SpilledSegments != 0 {
		t.Fatalf("after full truncate: spilled=%d segs=%d, want 0,0", l.Stats().SpilledBytes, l.Stats().SpilledSegments)
	}
	// The spiller may still be inside its stillborn-segment window (see
	// spillOnce): a file it wrote for a range this truncation reclaimed, not
	// yet removed. Nothing leaks, so the directory must empty once it
	// quiesces.
	for stop := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := spillSegFiles(t, dir)
		if len(got) == 0 {
			break
		}
		if time.Now().After(stop) {
			t.Fatalf("segment files survive full truncation: %v", got)
		}
	}
	if l.Stats().Entries != 0 {
		t.Fatalf("Entries = %d after full truncation", l.Stats().Entries)
	}
}

// TestSpillRecovery: Close and reopen the same directory. The recovered
// log re-anchors sequencing after the highest durable entry and serves the
// recovered backlog from disk exactly as if it had just been spilled; new
// appends extend the same gapless stream.
func TestSpillRecovery(t *testing.T) {
	const payloadLen = 64
	dir := t.TempDir()
	flow := FlowConfig{MaxBytes: 4 << 10, SpillDir: dir, segBytes: 1 << 10}
	l, err := newSendLogFlow(1, flow, 2)
	if err != nil {
		t.Fatal(err)
	}
	const total = 300
	for i := 1; i <= total; i++ {
		if _, err := l.Append(spillPayload(uint64(i), payloadLen), int64(uint64(i)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().SpilledSegments == 0 {
		t.Fatal("expected spill before close")
	}
	l.Close() // waits for the spiller: the directory is quiescent

	l2, err := newSendLogFlow(1, flow, 2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer l2.Close()
	if base := l2.Stats().Base; base != 1 {
		t.Fatalf("recovered Base() = %d, want 1", base)
	}
	recovered := uint64(l2.Stats().Entries)
	if recovered == 0 {
		t.Fatal("recovered log is empty")
	}
	// Only a contiguous durable prefix survives a restart (in-memory tail
	// entries die with the process — that is the spill tier's contract: the
	// *spilled* backlog is durable).
	if next := drainSpillLog(t, l2, 1, payloadLen); next != recovered+1 {
		t.Fatalf("recovered drain ended at %d, want %d", next-1, recovered)
	}
	// New appends continue the stream with no gap and no reuse.
	seq, err := l2.Append(spillPayload(recovered+1, payloadLen), int64((recovered+1)*1000+7))
	if err != nil || seq != recovered+1 {
		t.Fatalf("post-recovery append = (%d, %v), want seq %d", seq, err, recovered+1)
	}
	if next := drainSpillLog(t, l2, recovered+1, payloadLen); next != recovered+2 {
		t.Fatalf("post-recovery drain ended at %d", next-1)
	}
}

// TestSpillRecoveryTornTail simulates a crash mid-spill: the last segment
// file loses its tail. Recovery must keep the intact prefix, never serve a
// torn record, and re-anchor sequencing after the last intact entry.
func TestSpillRecoveryTornTail(t *testing.T) {
	const payloadLen = 64
	dir := t.TempDir()
	flow := FlowConfig{MaxBytes: 1 << 10, SpillDir: dir, segBytes: 1 << 10}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 150; i++ {
		if _, err := l.Append(spillPayload(uint64(i), payloadLen), int64(uint64(i)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	files := spillSegFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("need >= 2 segment files, got %d", len(files))
	}
	// Tear the tail of the last (highest-epoch) segment: chop one byte, so
	// exactly the final record's CRC fails.
	last := files[len(files)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatalf("recover from torn tail: %v", err)
	}
	defer l2.Close()
	recovered := uint64(l2.Stats().Entries)
	if recovered == 0 {
		t.Fatal("torn tail destroyed the whole chain")
	}
	if next := drainSpillLog(t, l2, 1, payloadLen); next != recovered+1 {
		t.Fatalf("drain ended at %d, want %d", next-1, recovered)
	}
}

// TestSpillRecoveryOldRecordLayout upgrades in place: a spill directory left
// by a build whose record bodies were seq | sent | payload, not Data frames.
// No such body is a whole Data frame, so recovery discards the chain — the
// file goes, nothing is served, and sequencing starts at the caller's
// firstSeq — instead of misparsing it.
func TestSpillRecoveryOldRecordLayout(t *testing.T) {
	const payloadLen = 64
	dir := t.TempDir()
	path := filepath.Join(dir, "spill-00000000.seg")
	w, err := segment.OpenWriter(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 20; seq++ {
		body := binary.BigEndian.AppendUint64(nil, seq)
		body = binary.BigEndian.AppendUint64(body, seq*1000+7)
		if err := w.Append(append(body, spillPayload(seq, payloadLen)...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := newSendLogFlow(1, FlowConfig{MaxBytes: 1 << 10, SpillDir: dir}, 1)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer l.Close()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("old-layout segment kept (stat err %v)", err)
	}
	if st := l.Stats(); st.Entries != 0 || st.SpilledSegments != 0 || st.SpilledBytes != 0 {
		t.Fatalf("old-layout chain recovered: %+v", st)
	}
	if e, ok := tryNext(l, 1); ok {
		t.Fatalf("served seq %d from an old-layout segment", e.Seq)
	}
	seq, err := l.Append(spillPayload(1, payloadLen), 1007)
	if err != nil || seq != 1 {
		t.Fatalf("first append after discard = (%d, %v), want seq 1", seq, err)
	}
	if next := drainSpillLog(t, l, 1, payloadLen); next != 2 {
		t.Fatalf("drain ended at %d, want 1", next-1)
	}
}

// TestSpillRecoveryChainGap: a missing middle segment (manual deletion,
// disk loss) must not let recovery serve a stream with a hole — everything
// after the gap is discarded.
func TestSpillRecoveryChainGap(t *testing.T) {
	const payloadLen = 64
	dir := t.TempDir()
	flow := FlowConfig{MaxBytes: 1 << 10, SpillDir: dir, segBytes: 512}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if _, err := l.Append(spillPayload(uint64(i), payloadLen), int64(uint64(i)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	files := spillSegFiles(t, dir)
	if len(files) < 3 {
		t.Fatalf("need >= 3 segment files, got %d", len(files))
	}
	if err := os.Remove(files[1]); err != nil {
		t.Fatal(err)
	}

	l2, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	next := drainSpillLog(t, l2, 1, payloadLen)
	// Everything served must have been contiguous from 1 (drainSpillLog
	// checks); the chain must stop before the hole.
	if got := len(spillSegFiles(t, dir)); got >= len(files)-1 {
		t.Fatalf("files after the gap were not discarded (%d files remain)", got)
	}
	if next < 2 {
		t.Fatal("even the pre-gap prefix was lost")
	}
}

// TestSpillCheckpointAheadDiscards: when the caller's checkpoint starts the
// log beyond the recovered chain (so a sequence gap would separate disk
// from new appends), the stale chain is discarded rather than served.
func TestSpillCheckpointAheadDiscards(t *testing.T) {
	const payloadLen = 64
	dir := t.TempDir()
	flow := FlowConfig{MaxBytes: 1 << 10, SpillDir: dir}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if _, err := l.Append(spillPayload(uint64(i), payloadLen), int64(uint64(i)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := newSendLogFlow(10_000, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Stats().SpilledBytes != 0 || l2.Stats().SpilledSegments != 0 {
		t.Fatalf("stale chain kept: spilled=%d segs=%d", l2.Stats().SpilledBytes, l2.Stats().SpilledSegments)
	}
	if got := spillSegFiles(t, dir); len(got) != 0 {
		t.Fatalf("stale segment files kept: %v", got)
	}
	seq, err := l2.Append([]byte("x"), 1)
	if err != nil || seq != 10_000 {
		t.Fatalf("append after discard = (%d, %v), want seq 10000", seq, err)
	}
}

// TestSpillWriteFaultDegradesToBlock: a failing disk must not lose data or
// unbound memory — the log degrades to memory-only semantics (appends over
// the watermark stall) until the fault clears, then spilling resumes and
// the stranded appenders complete.
func TestSpillWriteFaultDegradesToBlock(t *testing.T) {
	const payloadLen = 64
	const capBytes = 1 << 10
	flow := FlowConfig{MaxBytes: capBytes, SpillDir: t.TempDir()}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	diskFault := errors.New("injected: no space left on device")
	l.SetSpillWriteFault(diskFault)

	// Fill to the watermark: these appends stay in memory.
	n := 0
	for l.Stats().MemoryBytes+payloadLen <= capBytes {
		n++
		if _, err := l.Append(spillPayload(uint64(n), payloadLen), int64(uint64(n)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	// The next append must block: the spiller cannot free memory.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := l.AppendCtx(ctx, spillPayload(uint64(n+1), payloadLen), int64(uint64(n+1)*1000+7)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("append over watermark with faulted disk = %v, want DeadlineExceeded", err)
	}
	if l.Stats().SpilledBytes != 0 {
		t.Fatalf("spilled %d bytes through a faulted disk", l.Stats().SpilledBytes)
	}
	if !l.Stats().SpillDegraded {
		t.Fatal("SpillDegraded() = false while the disk fault is active")
	}
	if mem := l.Stats().MemoryBytes; mem > capBytes+payloadLen {
		t.Fatalf("memory %d exceeds cap under fault", mem)
	}

	// Clear the fault: the stranded appender completes and spilling resumes.
	l.SetSpillWriteFault(nil)
	done := make(chan error, 1)
	go func() {
		_, err := l.Append(spillPayload(uint64(n+1), payloadLen), int64(uint64(n+1)*1000+7))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append after fault cleared: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append still blocked after the fault cleared")
	}
	if next := drainSpillLog(t, l, 1, payloadLen); next != uint64(n+2) {
		t.Fatalf("drain after fault ended at %d, want %d", next-1, n+1)
	}
}

// TestSpillConfigValidation: a spill directory without a byte cap is a
// configuration error (there is no watermark to trigger spilling), and a
// spill directory that cannot be created fails the constructor instead of
// yielding a log without its disk tier.
func TestSpillConfigValidation(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSendLogFlow(1, FlowConfig{MaxBytes: 1 << 20, SpillDir: filepath.Join(blocker, "sub")}); err == nil {
		t.Fatal("uncreatable spill dir accepted")
	}
	if _, err := newSendLogFlow(1, FlowConfig{SpillDir: t.TempDir()}, 1); err == nil {
		t.Fatal("spill directory without any cap accepted")
	}
}

// TestSpillManySegmentsEpochNaming sanity-checks the on-disk layout: epoch
// numbers grow monotonically and survive recovery (a recovered log never
// reuses an epoch, so a crashed writer's file cannot be overwritten).
func TestSpillManySegmentsEpochNaming(t *testing.T) {
	const payloadLen = 64
	dir := t.TempDir()
	flow := FlowConfig{MaxBytes: 512, SpillDir: dir, segBytes: 256}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 64; i++ {
		if _, err := l.Append(spillPayload(uint64(i), payloadLen), int64(uint64(i)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	before := spillSegFiles(t, dir)
	if len(before) < 2 {
		t.Fatalf("want several segment files, got %d", len(before))
	}
	l2, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	base := uint64(l2.Stats().Entries) + 1
	for i := 0; i < 64; i++ {
		seq := base + uint64(i)
		if _, err := l2.Append(spillPayload(seq, payloadLen), int64(seq*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	after := spillSegFiles(t, dir)
	if len(after) <= len(before) {
		t.Fatalf("no new segments after recovery (%d -> %d)", len(before), len(after))
	}
	// Names sort lexicographically == numerically (zero-padded): the new
	// epochs must all land after the recovered ones.
	for i := 1; i < len(after); i++ {
		if after[i-1] >= after[i] {
			t.Fatalf("epoch ordering violated: %s >= %s", after[i-1], after[i])
		}
	}
	if next := drainSpillLog(t, l2, 1, payloadLen); next < base {
		t.Fatalf("drain ended at %d", next-1)
	}
}

// TestSpillOversizeFirstFrame: an entry bigger than the batch byte budget
// must still be delivered as the sole frame of its batch (same rule as the
// in-memory path), from the disk tier.
func TestSpillOversizeFirstFrame(t *testing.T) {
	flow := FlowConfig{MaxBytes: 2 << 10, SpillDir: t.TempDir()}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := make([]byte, 4<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := l.Append(big, 1); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 40; i++ {
		if _, err := l.Append(spillPayload(uint64(i), 64), int64(uint64(i)*1000+7)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().SpilledBytes == 0 {
		t.Fatal("expected spill")
	}
	batch := l.TryNextBatch(1, nil, 32, 1024) // budget smaller than entry 1
	if len(batch) != 1 || batch[0].Seq != 1 {
		t.Fatalf("oversize first frame: got %d frames, first seq %d", len(batch), batch[0].Seq)
	}
	if !bytes.Equal(batch[0].Frame, wire.AppendFrame(nil, &wire.Data{Seq: 1, SentUnixNano: 1, Payload: big})) {
		t.Fatal("oversize frame corrupted through the disk tier")
	}
	// The next batch resumes right after it.
	batch = l.TryNextBatch(2, nil, 8, 1<<20)
	if len(batch) == 0 || batch[0].Seq != 2 {
		t.Fatalf("batch after oversize frame starts at %v", batch)
	}
}

// TestSpillCloseUnblocksSpillAppenders: Close while appenders are stalled
// behind a faulted spill tier must wake them with ErrLogClosed and reap the
// spiller goroutine (satellite of the Close-vs-blocked-append fix).
func TestSpillCloseUnblocksSpillAppenders(t *testing.T) {
	const payloadLen = 64
	flow := FlowConfig{MaxBytes: 512, SpillDir: t.TempDir()}
	l, err := newSendLogFlow(1, flow, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.SetSpillWriteFault(errors.New("wedged disk"))
	n := 0
	for l.Stats().MemoryBytes+payloadLen <= 512 {
		n++
		if _, err := l.Append(spillPayload(uint64(n), payloadLen), 1); err != nil {
			t.Fatal(err)
		}
	}
	const blocked = 4
	errs := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		go func(i int) {
			_, err := l.Append(spillPayload(uint64(n+1+i), payloadLen), 1)
			errs <- err
		}(i)
	}
	// Wait until all of them are provably parked on the space latch.
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Waiting < blocked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d appenders blocked", l.Stats().Waiting, blocked)
		}
		time.Sleep(time.Millisecond)
	}
	l.Close() // also waits for the spiller goroutine to exit
	for i := 0; i < blocked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrLogClosed) {
				t.Fatalf("blocked appender woke with %v, want ErrLogClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked appender leaked past Close")
		}
	}
	if got := l.Stats().Waiting; got != 0 {
		t.Fatalf("Waiting() = %d after Close", got)
	}
}
