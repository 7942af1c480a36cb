//go:build linux

package emunet

import (
	"os"
	"sync"
	"testing"
	"time"
)

// TestArrivalTimerfdsAreBounded: however many arrival waits overlap, the
// timerfds left open once they are over are at most the free list's bound.
// Four times that many waits end at one instant 50 ms away, so all of them
// hold a timerfd at once, and the process then holds no more descriptors
// than before, plus what the free list had room for.
func TestArrivalTimerfdsAreBounded(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	// Descriptors already on the free list are counted in before and may
	// not be counted twice.
	before, room := fds(), maxFreeTimerfds-len(freeTimerfds)
	const waits = 4 * maxFreeTimerfds
	var wg sync.WaitGroup
	wg.Add(waits)
	at := time.Now().Add(50 * time.Millisecond)
	for i := 0; i < waits; i++ {
		go func() {
			defer wg.Done()
			sleepUntil(at)
		}()
	}
	wg.Wait()
	if n := fds(); n > before+room {
		t.Fatalf("%d descriptors open after %d overlapping waits, %d before with %d on the free list: more than its bound %d",
			n, waits, before, maxFreeTimerfds-room, maxFreeTimerfds)
	}
}
