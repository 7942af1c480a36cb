package transport

import (
	"sync"
	"testing"
	"time"

	"stabilizer/internal/wire"
)

// noHeartbeat is a heartbeat period no test outlives: whatever arrives was
// not delivered by a heartbeat.
const noHeartbeat = time.Hour

// ackFramesTo reads how many ACK frames tr has written toward peer.
func ackFramesTo(tr *Transport, peer int) int64 { return tr.peers[peer].ackSent.Value() }

func (r *recorder) appCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.apps)
}

// parkLinks brings every outgoing link of node self up and waits until its
// writer has nothing left to write: an app message to each peer proves the
// connection, and only the writer empties the link's doorbell. Once the
// message has arrived, an empty bell means the writer has taken every ring
// and found nothing more: it is parked in waitWork or on its way there. From
// here on a link writes only when something wakes it.
func parkLinks(t *testing.T, h *harness, self int) {
	t.Helper()
	tr := h.trs[self-1]
	for _, lk := range tr.linkList {
		if err := tr.SendApp(lk.peer, &wire.App{ID: 1, From: uint16(self)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, lk := range tr.linkList {
		lk := lk
		waitUntil(t, 5*time.Second, func() bool {
			return h.recs[lk.peer-1].appCount() > 0 && len(lk.bell) == 0
		})
	}
}

// A report about origin 2 goes to node 2 at once and to nobody else: the
// links to 3 and 4 stay parked and write no frame for it. Each carries it in
// the first write it makes for another reason — behind an app message on one,
// behind a data frame on the other — as one ACK frame in that write.
func TestReportWakesOnlyItsOriginsLink(t *testing.T) {
	h := startHarnessEvery(t, 4, noHeartbeat)
	parkLinks(t, h, 1)
	n1 := h.trs[0]

	n1.QueueAck(wire.Ack{Origin: 2, By: 1, Type: 1, Seq: 5})
	waitUntil(t, 5*time.Second, func() bool { return h.recs[1].maxAck(2, 1, 1) == 5 })
	time.Sleep(50 * time.Millisecond) // absence has no event to wait on
	for _, peer := range []int{3, 4} {
		if got := h.recs[peer-1].maxAck(2, 1, 1); got != 0 {
			t.Fatalf("bystander %d holds the report (%d) with nothing else written to it", peer, got)
		}
		if f := ackFramesTo(n1, peer); f != 0 {
			t.Fatalf("idle link to %d wrote %d ACK frame(s) for a report about origin 2", peer, f)
		}
	}

	// ACK frames precede app frames in a write, and the peer handles a
	// connection's frames in order: once the app message is in, so is the
	// report.
	if err := n1.SendApp(3, &wire.App{ID: 2, From: 1}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return h.recs[2].appCount() == 2 })
	if got := h.recs[2].maxAck(2, 1, 1); got != 5 {
		t.Fatalf("report did not ride the app message's write to 3: have %d, want 5", got)
	}

	// Control rides behind the data batch, so the report lands after the
	// data frame; what pins it to that write is that nothing else woke the
	// link and exactly one ACK frame went out.
	if _, err := h.logs[0].Append([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	n1.NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return h.recs[3].maxAck(2, 1, 1) == 5 })
	for _, peer := range []int{2, 3, 4} {
		if f := ackFramesTo(n1, peer); f != 1 {
			t.Fatalf("link to %d wrote %d ACK frames for one report, want 1", peer, f)
		}
	}
}

// On links nothing else writes to, a report about a foreign origin arrives
// with the next heartbeat.
func TestDeferredReportRidesTheHeartbeat(t *testing.T) {
	const heartbeat = 200 * time.Millisecond
	h := startHarnessEvery(t, 3, heartbeat)
	parkLinks(t, h, 1)
	start := time.Now()
	h.trs[0].QueueAck(wire.Ack{Origin: 2, By: 1, Type: 1, Seq: 3})
	waitUntil(t, 5*time.Second, func() bool { return h.recs[2].maxAck(2, 1, 1) == 3 })
	if d := time.Since(start); d > 2*heartbeat {
		t.Fatalf("bystander got the report after %v, want within two heartbeats (%v)", d, 2*heartbeat)
	}
}

// Several goroutines raise reports about one peer, or append to the send log,
// while its link keeps going idle. There is no heartbeat to paper over a lost
// wake-up: each round's highest sequence must arrive on the strength of
// QueueAck's or NotifyData's wake alone.
func TestConcurrentReportsNeverLoseTheWakeup(t *testing.T) {
	const writers, rounds = 4, 150
	for _, tc := range []struct {
		name string
		// raise is one writer's contribution to a round; held reads how far
		// the peer has got.
		raise func(t *testing.T, h *harness, seq uint64)
		held  func(h *harness) uint64
	}{
		{"report",
			func(_ *testing.T, h *harness, seq uint64) {
				h.trs[0].QueueAck(wire.Ack{Origin: 2, By: 1, Type: 1, Seq: seq})
			},
			func(h *harness) uint64 { return h.recs[1].maxAck(2, 1, 1) }},
		{"data",
			func(t *testing.T, h *harness, _ uint64) {
				if _, err := h.logs[0].Append([]byte("x"), 0); err != nil {
					t.Error(err)
				}
				h.trs[0].NotifyData()
			},
			func(h *harness) uint64 { return h.trs[1].RecvLast(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := startHarnessEvery(t, 2, noHeartbeat)
			parkLinks(t, h, 1)
			for r := 0; r < rounds; r++ {
				var wg sync.WaitGroup
				for w := 1; w <= writers; w++ {
					wg.Add(1)
					go func(seq uint64) {
						defer wg.Done()
						tc.raise(t, h, seq)
					}(uint64(r*writers + w))
				}
				wg.Wait()
				want := uint64((r + 1) * writers)
				deadline := time.Now().Add(5 * time.Second)
				for tc.held(h) != want {
					if time.Now().After(deadline) {
						t.Fatalf("round %d: peer holds %d, want %d: a wake-up was lost", r, tc.held(h), want)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		})
	}
}
