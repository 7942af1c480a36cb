package emunet

import (
	"io"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestShapedArrivalIsOnTime: a round trip over a shaped memory link takes the
// configured round trip and little more. On Linux an arrival's wait ends on
// a kernel timer, so the median excess stays under 300 µs; elsewhere the
// runtime timer's quantum of about a millisecond per leg is logged only.
// Each round also times the same two legs on the runtime timer alone, as a
// shaped link waited before it had a kernel timer: a stalled host slows both
// alike, so a median over the bound fails only if the round trip also lost
// to the runtime timer in more than a third of the rounds. An arrival woken
// by the runtime timer alone won at most 31 of 50 (2 cores, go1.24).
func TestShapedArrivalIsOnTime(t *testing.T) {
	const (
		oneWay = 5 * time.Millisecond
		pings  = 50
	)
	m := NewMatrix()
	m.SetSymmetric(1, 2, Link{OneWayLatency: oneWay})
	n := NewMemNetwork(m)
	defer n.Close()
	l, err := n.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := n.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 64)
	fired := make(chan struct{})
	excess := make([]time.Duration, pings)
	beat := 0 // rounds whose round trip beat the runtime timer's two legs
	for i := range excess {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		excess[i] = time.Since(t0) - 2*oneWay
		t0 = time.Now()
		for range 2 {
			time.AfterFunc(oneWay, func() { fired <- struct{}{} })
			<-fired
		}
		if excess[i] < time.Since(t0)-2*oneWay {
			beat++
		}
	}
	slices.Sort(excess)
	med := excess[pings/2]
	if excess[0] < 0 {
		t.Fatalf("a round trip took %v less than the configured %v", -excess[0], 2*oneWay)
	}
	t.Logf("median excess over the %v round trip: %v; beat the runtime timer in %d of %d rounds", 2*oneWay, med, beat, pings)
	if runtime.GOOS == "linux" && med > 300*time.Microsecond && beat < pings*2/3 {
		t.Fatalf("median excess over the %v round trip is %v, want at most 300µs (p90 %v), and it beat the runtime timer in only %d of %d rounds",
			2*oneWay, med, excess[pings*9/10], beat, pings)
	}
}

// pendingArrival returns a queue whose one unit arrives 1 ms from now, and
// returns once that arrival's runtime timer has most likely fired, so its
// wait's last stretch is under way: it parks on a second queue's arrival at
// half that. (Elsewhere than Linux there is no last stretch, and the timer is
// still armed.) It reports the unit's arrival time.
func pendingArrival(t *testing.T) (*memQueue, time.Time) {
	t.Helper()
	q := newMemQueue(&schedule{link: Link{OneWayLatency: time.Millisecond}})
	half := newMemQueue(&schedule{link: Link{OneWayLatency: time.Millisecond / 2}})
	if _, err := q.write([][]byte{{1}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := half.write([][]byte{{1}}, false); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	at := q.s.units[q.s.head].at
	q.mu.Unlock()
	if _, err := half.read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	return q, at
}

// TestArrivalCloseWhileWaitIsPending: a reading end that closes while an
// arrival's wait is under way gets nothing fired into it. The fire that its
// Stop was too late for finds the timer gone, leaves the emptied queue as
// Close left it, and ends.
func TestArrivalCloseWhileWaitIsPending(t *testing.T) {
	for i := 0; i < 20; i++ {
		q, at := pendingArrival(t)
		q.close(&q.r)
		time.Sleep(time.Until(at) + 2*time.Millisecond)
		q.mu.Lock()
		s := q.s
		if q.timer != nil || s.units != nil || s.inFlight != 0 || q.n != 0 || q.bufs != nil {
			t.Fatalf("after Close and the arrival: timer %v, %d units, %d in flight, %d held; want all gone",
				q.timer, len(s.units), s.inFlight, q.n)
		}
		q.mu.Unlock()
		if _, err := q.read(make([]byte, 1)); err != net.ErrClosed {
			t.Fatalf("read after Close = %v, want net.ErrClosed", err)
		}
	}
}

// TestArrivalRearmWhileWaitIsPending: an arrival timer stopped and replaced
// while its wait is under way (the unit now arrives 20 ms later) fires
// nothing into the queue: the replacement stays armed past the first
// arrival time, and a read gets the unit at the later one.
func TestArrivalRearmWhileWaitIsPending(t *testing.T) {
	late := 0 // stops that came after the runtime timer had fired
	for i := 0; i < 20; i++ {
		q, _ := pendingArrival(t)
		q.mu.Lock()
		s := q.s
		if q.timer == nil { // a stall made the unit arrive already
			q.mu.Unlock()
			continue
		}
		if !q.timer.Stop() {
			late++
		}
		q.timer = nil
		at := time.Now().Add(20 * time.Millisecond)
		s.units[s.head].at = at
		q.armArrival()
		rearmed := q.timer
		q.mu.Unlock()

		time.Sleep(5 * time.Millisecond)
		q.mu.Lock()
		armed := q.timer
		q.mu.Unlock()
		if armed != rearmed {
			t.Fatalf("round %d: the stopped timer's fire replaced the re-armed timer %p with %p", i, rearmed, armed)
		}
		if _, err := q.read(make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		if early := time.Until(at); early > 0 {
			t.Fatalf("round %d: read the unit %v before its re-armed arrival", i, early)
		}
	}
	t.Logf("%d of 20 stops came after the runtime timer had fired", late)
}
