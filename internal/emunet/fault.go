package emunet

import (
	"fmt"
	"time"
)

// Fault is what a fault injector has engaged on one direction of a directed
// node pair of a MemNetwork (SetFault). The zero Fault engages nothing.
type Fault struct {
	// Cut holds back every byte not yet readable when it engaged: nothing
	// more becomes readable on the direction, so its writer blocks at the
	// direction's bound as behind a full socket, and a dial in that
	// direction fails with ErrLinkCut. What was held flows on once it heals.
	Cut bool
	// Delay is extra one-way delay on the bytes written while it is
	// engaged: an offset on their arrival, FIFO order kept.
	Delay time.Duration
	// Pace slows the direction's reads: a read takes at most paceChunk
	// bytes, and only Pace after the previous one that took bytes (or after
	// the pace engaged).
	Pace time.Duration
}

// paceChunk is the most a read takes under a pace, which caps the paced
// direction's rate at paceChunk bytes per Fault.Pace.
const paceChunk = 4 << 10

// fault is the Fault engaged on a memQueue and what it keeps of the reads,
// guarded by the queue's mu.
type fault struct {
	Fault
	// held is, under Cut, how many bytes a read may still take: those
	// readable when the cut engaged and not read since.
	held int
	// paced is, under Pace, when a read last took bytes or the pace engaged.
	paced time.Time
}

// limit is how many of the ready bytes a read may take now. A pace that
// holds them returns 0 and when it lets go.
func (f *fault) limit(ready int) (int, time.Time) {
	if f.Cut {
		ready = min(ready, f.held)
	}
	if f.Pace > 0 && ready > 0 {
		if next := f.paced.Add(f.Pace); time.Now().Before(next) {
			return 0, next
		}
		ready = min(ready, paceChunk)
	}
	return ready, time.Time{}
}

// took records a read of k bytes.
func (f *fault) took(k int) {
	f.held -= k
	if f.Pace > 0 {
		f.paced = time.Now()
	}
}

// setFault engages f on the direction in place of what was engaged, and wakes
// its parked calls to look again.
func (q *memQueue) setFault(f Fault) {
	q.mu.Lock()
	defer q.mu.Unlock()
	old := q.fault
	if f == (Fault{}) {
		q.fault = nil
	} else {
		if old == nil {
			old = &fault{}
		}
		nf := *old
		nf.Fault = f
		if f.Cut && !old.Cut {
			nf.held = q.n
			if q.s != nil {
				nf.held = q.arrived()
			}
		}
		if f.Pace > 0 && old.Pace == 0 {
			nf.paced = time.Now()
		}
		q.fault = &nf
	}
	if f.Delay > 0 && q.s == nil {
		q.s = &schedule{spikeOnly: true}
	}
	if q.s != nil {
		q.s.spike = f.Delay
		q.arrived() // drops a spike's schedule with nothing left in flight
	}
	q.wakeAll()
}

// sever closes both of the direction's ends.
func (q *memQueue) sever() {
	q.close(&q.r)
	q.close(&q.w)
}

// SetFault engages f on the from → to direction of every live connection
// between the two nodes, whichever of them dialed, and of every connection
// dialed between them later, in place of the Fault engaged before. The zero
// Fault clears it.
func (n *MemNetwork) SetFault(from, to int, f Fault) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := [2]int{from, to}
	if f == (Fault{}) {
		delete(n.faults, p)
	} else {
		n.faults[p] = f
	}
	for q := range n.live[p] {
		q.setFault(f)
	}
}

// Sever closes both ends of every live connection between a and b: their
// calls, parked or future, fail, a write parked mid-frame included.
func (n *MemNetwork) Sever(a, b int) {
	n.mu.Lock()
	var qs []*memQueue
	for _, p := range [][2]int{{a, b}, {b, a}} {
		for q := range n.live[p] {
			qs = append(qs, q)
		}
	}
	n.mu.Unlock()
	for _, q := range qs {
		q.sever()
	}
}

// track lists the dialed connection's two directions under their pairs and
// engages on each the Fault engaged on its pair, unless its dialing
// direction is cut. Caller holds mu.
func (n *MemNetwork) track(c *memConn) error {
	out := c.out.dir
	if n.faults[out].Cut {
		return fmt.Errorf("%w: %d->%d", ErrLinkCut, out[0], out[1])
	}
	for _, q := range []*memQueue{c.out, c.in} {
		set := n.live[q.dir]
		if set == nil {
			set = make(map[*memQueue]struct{})
			n.live[q.dir] = set
		}
		set[q] = struct{}{}
		q.net = n
		if f, ok := n.faults[q.dir]; ok {
			q.setFault(f)
		}
	}
	return nil
}

// forget drops a direction whose reading end has closed: no fault can change
// what it delivers any more, and a sever finds its writing end failed.
func (n *MemNetwork) forget(q *memQueue) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if set := n.live[q.dir]; set != nil {
		delete(set, q)
		if len(set) == 0 {
			delete(n.live, q.dir)
		}
	}
}
