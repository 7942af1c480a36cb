package testbed

import (
	"context"
	"time"
)

// Loop is a goroutine started by Every.
type Loop struct {
	stop   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc
}

// Every calls fn once per period on a goroutine of its own until the loop is
// stopped or fn returns false. It is the pump (fn appends a message), the
// sweep (fn checks invariants) and any other periodic actor of a run. Like
// the ticker under it, a call that outlasts the period drops the ticks it
// slept through instead of bursting afterwards.
func Every(period time.Duration, fn func(ctx context.Context) bool) *Loop {
	ctx, cancel := context.WithCancel(context.Background())
	l := &Loop{stop: make(chan struct{}), done: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
				// A tick that fired beside the stop loses to it.
				select {
				case <-l.stop:
					return
				default:
				}
				if !fn(ctx) {
					return
				}
			}
		}
	}()
	return l
}

// Stop ends the loop and waits for a call in flight to return. A call still
// running after grace has its context cancelled — how a pump blocked on a
// full send log is freed — and Stop then reports false; grace ≤ 0 waits
// without limit. Stop is called once.
func (l *Loop) Stop(grace time.Duration) bool {
	close(l.stop)
	defer l.cancel()
	if grace <= 0 {
		<-l.done
		return true
	}
	t := time.NewTimer(grace)
	defer t.Stop()
	select {
	case <-l.done:
		return true
	case <-t.C:
		l.cancel()
		<-l.done
		return false
	}
}

// Paced calls send(i) for i in [0, n), the i-th no earlier than due(i) after
// the first call. A sender that falls behind catches up rather than stretch
// the schedule: every due time is measured from the start, not from the
// previous send. The first error ends the run.
func Paced(n int, due func(i int) time.Duration, send func(i int) error) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(due(i))); d > 0 {
			time.Sleep(d)
		}
		if err := send(i); err != nil {
			return err
		}
	}
	return nil
}

// AtRate is the due function of a fixed rate of perSec sends per second.
func AtRate(perSec float64) func(i int) time.Duration {
	return func(i int) time.Duration {
		return time.Duration(float64(i) / perSec * float64(time.Second))
	}
}

// awaitPoll is how often Await re-evaluates its condition.
const awaitPoll = 2 * time.Millisecond

// Await polls cond until it holds or timeout has passed, and returns whether
// it held; cond runs at least once.
func Await(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(awaitPoll)
	}
	return true
}
