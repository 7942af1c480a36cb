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
	for l.Bytes() < l.Flow().MaxBytes {
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

func TestFlowFailFastShedsAtCap(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxBytes: 4 << 10, Mode: FlowFail})
	defer l.Close()
	fillToCap(t, l, 256)
	if _, err := l.Append(make([]byte, 256), 0); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("append at cap: err=%v, want ErrBackpressure", err)
	}
	if got := l.ShedAppends(); got != 1 {
		t.Fatalf("shed appends = %d, want 1", got)
	}
	if got := l.BlockedAppends(); got != 0 {
		t.Fatalf("blocked appends = %d, want 0 in fail-fast mode", got)
	}
}

func TestFlowBlockResumesOnTruncate(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxBytes: 4 << 10, Mode: FlowBlock})
	defer l.Close()
	n := fillToCap(t, l, 256)

	done := make(chan error, 1)
	go func() {
		_, err := l.AppendCtx(context.Background(), make([]byte, 256), 0)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("append completed through a full log: err=%v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if l.Waiting() != 1 {
		t.Fatalf("waiting = %d, want 1", l.Waiting())
	}

	// Truncating below the low watermark must wake the blocked append.
	l.TruncateThrough(uint64(n))
	if err := <-done; err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if got := l.BlockedAppends(); got != 1 {
		t.Fatalf("blocked appends = %d, want 1", got)
	}
}

// TestFlowHysteresis pins the watermark latch: once full, small truncations
// above the low watermark must NOT re-admit appends (that would flap at the
// cap boundary); only dropping to the low watermark clears the latch.
func TestFlowHysteresis(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxBytes: 4 << 10, LowFrac: 0.5, Mode: FlowFail})
	defer l.Close()
	fillToCap(t, l, 256)
	// First refused append engages the latch.
	if _, err := l.Append(make([]byte, 256), 0); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("append at cap: err=%v, want ErrBackpressure", err)
	}

	// Free one entry: 256 bytes below cap, far above the 2 KiB low mark.
	l.TruncateThrough(1)
	if !l.Full() {
		t.Fatal("latch cleared above the low watermark")
	}
	if _, err := l.Append(make([]byte, 256), 0); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("append above low watermark: err=%v, want ErrBackpressure", err)
	}

	// Drop to the low watermark: the latch must clear.
	for seq := uint64(2); l.Full() && seq <= uint64(l.Len())+8; seq++ {
		l.TruncateThrough(seq)
	}
	if l.Full() {
		t.Fatal("latch never cleared at the low watermark")
	}
	if _, err := l.Append(make([]byte, 256), 0); err != nil {
		t.Fatalf("append after latch cleared: %v", err)
	}
}

func TestFlowBlockHonorsContextCancel(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxBytes: 4 << 10, Mode: FlowBlock})
	defer l.Close()
	fillToCap(t, l, 256)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := l.AppendCtx(ctx, make([]byte, 256), 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled append: err=%v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked append ignored context cancellation")
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("canceled append returned after %v, want prompt", el)
	}
	if l.Waiting() != 0 {
		t.Fatalf("waiting = %d after cancel, want 0", l.Waiting())
	}
}

func TestFlowCloseUnblocksWaiters(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxBytes: 1 << 10, Mode: FlowBlock})
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
	l := flowLog(t, FlowConfig{MaxBytes: 1 << 10, Mode: FlowBlock})
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
	for l.Waiting() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d appenders parked", l.Waiting(), waiters)
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
	if got := l.Waiting(); got != 0 {
		t.Fatalf("Waiting() = %d after Close, want 0", got)
	}
	// Terminal: appends after Close fail immediately, blocked or not.
	if _, err := l.Append([]byte("late"), 0); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after Close = %v, want ErrLogClosed", err)
	}
	l.Close() // idempotent
}

func TestFlowEntryCap(t *testing.T) {
	l := flowLog(t, FlowConfig{MaxEntries: 4, Mode: FlowFail})
	defer l.Close()
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte("x"), 0); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := l.Append([]byte("x"), 0); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("append past entry cap: err=%v, want ErrBackpressure", err)
	}
}
