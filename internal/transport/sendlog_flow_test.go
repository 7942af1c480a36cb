package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fillToCap appends payload-sized entries until the log's bytes reach its
// cap. Admission checks run before each append, so every append here is
// admitted (bytes were still under the cap); the NEXT append is the first
// one the latch can refuse. Full() stays false until that admission check —
// the latch is maintained at admission time, not recomputed per read.
func fillToCap(t *testing.T, l *SendLog, payload int) int {
	t.Helper()
	n := 0
	for l.Bytes() < l.Stats().CapBytes {
		if _, err := l.Append(make([]byte, payload), 0); err != nil {
			t.Fatalf("append %d while under cap: %v", n, err)
		}
		n++
		if n > 10_000 {
			t.Fatal("cap never reached")
		}
	}
	return n
}

// TestAppendCtxAdmission is the one admission path, case by case: what an
// append does is decided by where the log stands against its cap and by the
// context the call carries — nothing else. Below the cap every context
// succeeds untouched. At the cap the context is how long the caller waits:
// nil until space frees, a deadline until it passes, a cancellation until it
// lands, an already-done context not at all; a context that ends yields an
// error that is both ErrBackpressure and the context's own, counted as shed
// (and as blocked too when the append had parked first).
func TestAppendCtxAdmission(t *testing.T) {
	bg := context.Background()
	doneCtx, cancelDone := context.WithCancel(bg)
	cancelDone()
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		// release ends the wait at the cap from outside: "truncate" frees
		// space, "cancel" cancels ctx; "" leaves the context to end it.
		release       string
		cause         error // nil: the append goes through once space frees
		blocked, shed int64
	}{
		{"nil ctx", func() (context.Context, context.CancelFunc) { return nil, func() {} },
			"truncate", nil, 1, 0},
		{"deadline", func() (context.Context, context.CancelFunc) { return context.WithTimeout(bg, 30*time.Millisecond) },
			"", context.DeadlineExceeded, 1, 1},
		{"cancelled mid-wait", func() (context.Context, context.CancelFunc) { return context.WithCancel(bg) },
			"cancel", context.Canceled, 1, 1},
		{"done on entry", func() (context.Context, context.CancelFunc) { return doneCtx, func() {} },
			"", context.Canceled, 0, 1},
	}
	for _, tc := range cases {
		for _, atCap := range []bool{false, true} {
			name := tc.name + "/below cap"
			if atCap {
				name = tc.name + "/at cap"
			}
			t.Run(name, func(t *testing.T) {
				l := flowLog(t, FlowConfig{MaxBytes: 4 << 10})
				defer l.Close()
				ctx, cancel := tc.ctx()
				defer cancel()

				wantCause, wantBlocked, wantShed := tc.cause, tc.blocked, tc.shed
				filled := 0
				if atCap {
					filled = fillToCap(t, l, 256)
				} else {
					wantCause, wantBlocked, wantShed = nil, 0, 0
				}

				done := make(chan error, 1)
				go func() {
					_, err := l.AppendCtx(ctx, make([]byte, 256), 0)
					done <- err
				}()
				if atCap && tc.release != "" {
					waitUntil(t, 5*time.Second, func() bool { return l.Stats().Waiting == 1 })
					if !l.Stats().Full {
						t.Fatal("an append is parked but the latch is clear")
					}
					if tc.release == "cancel" {
						cancel()
					} else {
						l.TruncateThrough(uint64(filled)) // to the low watermark and below
					}
				}
				var err error
				select {
				case err = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("append never returned")
				}

				if wantCause == nil {
					if err != nil {
						t.Fatalf("append: %v, want success", err)
					}
				} else if !errors.Is(err, ErrBackpressure) || !errors.Is(err, wantCause) || !errors.Is(err, ctx.Err()) {
					t.Fatalf("append: err=%v, want one that is ErrBackpressure and %v", err, wantCause)
				}
				// blocked counts exactly the appends that parked (waiting++
				// sits beside it), so an unmoved counter is an append that
				// never showed up in Stats().Waiting.
				st := l.Stats()
				if st.BlockedAppends != wantBlocked {
					t.Fatalf("blocked = %d, want %d", st.BlockedAppends, wantBlocked)
				}
				if st.ShedAppends != wantShed {
					t.Fatalf("shed = %d, want %d", st.ShedAppends, wantShed)
				}
				if st.Waiting != 0 {
					t.Fatalf("waiting = %d after the append returned, want 0", st.Waiting)
				}
			})
		}
	}
}

// TestFlowHysteresis pins the watermark latch, driven by appends that never
// wait (their context is done on entry) so nothing but truncation itself
// keeps Full() current: once full, small truncations above the low watermark
// must NOT re-admit appends (that would flap at the cap boundary); only
// dropping to the low watermark — half the cap — clears the latch.
func TestFlowHysteresis(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxBytes: 4 << 10})
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fillToCap(t, l, 256)
	// First refused append engages the latch.
	if _, err := l.AppendCtx(ctx, make([]byte, 256), 0); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("append at cap: err=%v, want ErrBackpressure", err)
	}

	// Free one entry: 256 bytes below cap, far above the 2 KiB low mark.
	l.TruncateThrough(1)
	if !l.Stats().Full {
		t.Fatal("latch cleared above the low watermark")
	}
	if _, err := l.AppendCtx(ctx, make([]byte, 256), 0); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("append above low watermark: err=%v, want ErrBackpressure", err)
	}

	// Drop to the low watermark: the latch must clear, with no appender
	// waiting for it.
	for seq := uint64(2); l.Stats().Full && seq <= uint64(l.Stats().Entries)+8; seq++ {
		l.TruncateThrough(seq)
	}
	if l.Stats().Full {
		t.Fatal("latch never cleared at the low watermark")
	}
	if got := l.Bytes(); got != 2<<10 {
		t.Fatalf("latch cleared at %d bytes, want the 2 KiB low watermark", got)
	}
	if _, err := l.AppendCtx(ctx, make([]byte, 256), 0); err != nil {
		t.Fatalf("append after latch cleared: %v", err)
	}
	if got := l.Stats().BlockedAppends; got != 0 {
		t.Fatalf("blocked appends = %d, want 0: no append here may wait", got)
	}
}

// TestFlowDiskTierFollowsSpillDir: the directory decides where the backlog
// lives — a disk tier exists exactly when SpillDir is set. (A directory
// without a byte cap is refused: TestSpillConfigValidation.)
func TestFlowDiskTierFollowsSpillDir(t *testing.T) {
	for _, flow := range []FlowConfig{{}, {MaxBytes: 1 << 10}, {MaxBytes: 1 << 10, segBytes: 512}} {
		l := flowLog(t, flow)
		if l.spill != nil {
			t.Fatalf("%+v built a disk tier without a directory", flow)
		}
		l.Close()
	}
	dir := t.TempDir()
	l := flowLog(t, FlowConfig{MaxBytes: 1 << 10, SpillDir: dir})
	if l.spill == nil || l.spill.dir != dir {
		t.Fatal("SpillDir did not build a disk tier there")
	}
	l.Close()
}

func TestFlowCloseUnblocksWaiters(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxBytes: 1 << 10})
	fillToCap(t, l, 256)

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = l.AppendCtx(context.Background(), make([]byte, 256), 0)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	l.Close()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrLogClosed) {
			t.Fatalf("waiter %d: err=%v, want ErrLogClosed", i, err)
		}
	}
}

// TestFlowCloseDuringBlockedAppendCtx pins down the terminal-error contract
// of Close racing a blocked AppendCtx: every appender parked on the space
// latch — with or without a context — must wake promptly with ErrLogClosed
// (never hang, never succeed, never return a nil error), the waiter count
// must drain to zero, and the log must stay terminally closed for new
// appends. Unlike TestFlowCloseUnblocksWaiters this waits until every
// appender is provably parked (no sleep-and-hope) and closes from a
// concurrent goroutine, so the wakeup path itself is what's under test.
func TestFlowCloseDuringBlockedAppendCtx(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxBytes: 1 << 10})
	fillToCap(t, l, 256)

	const waiters = 8
	errs := make(chan error, waiters)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < waiters; i++ {
		go func(i int) {
			var err error
			if i%2 == 0 {
				_, err = l.AppendCtx(ctx, make([]byte, 256), 0)
			} else {
				_, err = l.AppendCtx(nil, make([]byte, 256), 0) // no-deadline flavor
			}
			errs <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Waiting < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d appenders parked", l.Stats().Waiting, waiters)
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrLogClosed) {
				t.Fatalf("blocked appender woke with %v, want ErrLogClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked appender never woke after Close")
		}
	}
	<-closed
	if got := l.Stats().Waiting; got != 0 {
		t.Fatalf("Waiting() = %d after Close, want 0", got)
	}
	// Terminal: appends after Close fail immediately, blocked or not.
	if _, err := l.Append([]byte("late"), 0); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after Close = %v, want ErrLogClosed", err)
	}
	l.Close() // idempotent
}
