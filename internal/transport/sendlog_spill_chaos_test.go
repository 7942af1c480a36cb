package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"stabilizer/internal/wire"
)

// chaosSpillPayload is the seeded harness's ground truth: payload bytes and
// length are pure functions of the sequence number, so after any crash —
// even one that re-anchors the log and re-assigns sequence numbers — a
// surviving entry either matches f(seq) exactly or the disk tier corrupted
// it. No copy of the stream is needed.
func chaosSpillPayload(seq uint64) []byte {
	return spillPayload(seq, 48+int(seq%7)*16)
}

// spillChaosConfig is the harness's log shape: a tiny memory cap over tiny
// segments so every burst crosses the spill watermark and every crash lands
// on a multi-segment chain.
func spillChaosConfig(dir string) FlowConfig {
	return FlowConfig{
		MaxBytes: 4 << 10,
		SpillDir: dir,
		segBytes: 1 << 10,
	}
}

// TestSpillCrashScheduleGroundTruth is invariant 9's crash matrix as a
// seeded schedule driven directly against one tiered SendLog: random
// interleavings of append bursts, partial reader drains (so crashes land
// mid-read-back as well as mid-spill), reclamation, disk-write fault
// windows, and crashes — a crash closes the log, then mutilates the newest
// segment (torn tail, whole file lost, or clean) before recovery reopens
// the same directory. After every step the drained stream must stay
// strictly sequential and byte-identical to f(seq); at the end the log must
// drain to empty with zero gaps. Each seed replays deterministically.
func TestSpillCrashScheduleGroundTruth(t *testing.T) {
	seeds := []int64{1, 2, 3}
	ops := 60
	if os.Getenv("STABILIZER_CHAOS_FULL") != "" {
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		ops = 300
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runSpillCrashSchedule(t, seed, ops)
		})
	}
}

func runSpillCrashSchedule(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := spillChaosConfig(dir)

	log, err := newSendLogFlow(1, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { log.Close() }()

	cursor := log.Stats().Base // next sequence the simulated peer expects
	faultOn := false
	everSpilled := false
	crashes := 0
	var readback int64

	// verifyNext drains up to m entries from the cursor, checking each
	// against ground truth. Returns on the first not-ready.
	verifyNext := func(m int) {
		for i := 0; i < m; i++ {
			e, ok := tryNext(log, cursor)
			if !ok {
				return
			}
			if e.Seq != cursor {
				t.Fatalf("seed %d: reader at %d got seq %d — gap or duplicate across the tier boundary", seed, cursor, e.Seq)
			}
			want := wire.AppendFrame(nil, &wire.Data{Seq: e.Seq, SentUnixNano: int64(e.Seq*1000 + 7), Payload: chaosSpillPayload(e.Seq)})
			if !bytes.Equal(e.Frame, want) {
				t.Fatalf("seed %d: seq %d differs from ground truth (%d bytes vs %d)", seed, e.Seq, len(e.Frame), len(want))
			}
			cursor++
		}
	}

	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // append burst
			n := 1 + rng.Intn(40)
			if faultOn {
				// Degraded to memory-only semantics: once memory fills, an
				// append can only time out. Keep bursts small and bounded.
				n = 1 + rng.Intn(5)
			}
			for i := 0; i < n; i++ {
				seq := log.NextSeq()
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				got, err := log.AppendCtx(ctx, chaosSpillPayload(seq), int64(seq*1000+7))
				cancel()
				if err != nil {
					if faultOn && errors.Is(err, context.DeadlineExceeded) {
						break // memory full under a disk fault: correct refusal
					}
					t.Fatalf("seed %d: append seq %d: %v", seed, seq, err)
				}
				if got != seq {
					t.Fatalf("seed %d: predicted seq %d but Append assigned %d", seed, seq, got)
				}
			}
			if log.Stats().SpilledBytes > 0 {
				everSpilled = true
			}
		case 4, 5: // partial drain, so crashes land mid-read-back
			verifyNext(1 + rng.Intn(80))
		case 6: // reclaim the delivered prefix
			if cursor > log.Stats().Base {
				log.TruncateThrough(cursor - 1)
			}
		case 7: // toggle the disk-write fault window
			if faultOn {
				log.SetSpillWriteFault(nil)
			} else {
				log.SetSpillWriteFault(errors.New("injected disk fault"))
			}
			faultOn = !faultOn
		case 8, 9: // crash: close, mutilate the newest segment, recover
			readback += log.Stats().SpillReadbackBytes
			log.Close()
			if files := spillSegFiles(t, dir); len(files) > 0 {
				path := files[len(files)-1]
				switch rng.Intn(3) {
				case 0: // torn tail: the crash landed mid-segment-write
					if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
						chop := int64(1 + rng.Intn(24))
						if chop > fi.Size() {
							chop = fi.Size()
						}
						if err := os.Truncate(path, fi.Size()-chop); err != nil {
							t.Fatal(err)
						}
					}
				case 1: // the newest segment never made it to disk
					if err := os.Remove(path); err != nil {
						t.Fatal(err)
					}
				case 2: // clean crash: disk intact, memory tier lost
				}
			}
			log, err = newSendLogFlow(1, cfg, 2)
			if err != nil {
				t.Fatalf("seed %d: recovery after crash %d: %v", seed, crashes, err)
			}
			// The peer re-syncs from the recovered base. Sequences above
			// the recovered tail will be re-assigned to new payloads, but
			// ground truth is f(seq), so re-assignment is byte-invisible.
			cursor = log.Stats().Base
			faultOn = false
			crashes++
		}
	}

	// Quiesce and drain to empty: the surviving stream must be complete.
	if faultOn {
		log.SetSpillWriteFault(nil)
	}
	verifyNext(int(log.NextSeq() - cursor))
	if cursor != log.NextSeq() {
		t.Fatalf("seed %d: final drain stuck at %d, log next is %d", seed, cursor, log.NextSeq())
	}
	readback += log.Stats().SpillReadbackBytes
	if cursor > log.Stats().Base {
		log.TruncateThrough(cursor - 1)
	}
	if log.Stats().Entries != 0 || log.Bytes() != 0 || log.Stats().SpilledBytes != 0 {
		t.Fatalf("seed %d: after full drain+reclaim: len=%d bytes=%d spilled=%d",
			seed, log.Stats().Entries, log.Bytes(), log.Stats().SpilledBytes)
	}
	if !everSpilled {
		t.Fatalf("seed %d: schedule never spilled — harness did not exercise the disk tier", seed)
	}
	if crashes > 0 && readback == 0 {
		t.Logf("seed %d: note: %d crashes but no disk read-back observed", seed, crashes)
	}
	t.Logf("seed %d: ops=%d crashes=%d readback=%d final_next=%d", seed, ops, crashes, readback, log.NextSeq())
}
