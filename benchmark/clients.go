package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"stabilizer"
	"stabilizer/apps/wankv"
	"stabilizer/internal/kvstore"
	"stabilizer/internal/optrace"
	"stabilizer/internal/predlib"
)

// span is the benchmark's own record of one client operation, keyed like
// the flight recorder's events by (origin, seq). Times are wall-clock Unix
// nanoseconds so they line up with the recorder's stamps: every node runs
// in this process and reads the same clock.
type span struct {
	origin int
	seq    uint64
	kind   opKind
	// start: the client calls Send (or Put). submitted: that call returns.
	// end: the wait returns (streams: the producer sees the frontier cover
	// the message).
	start, submitted, end int64
}

// recorder collects what one client goroutine observes. Clients never share
// a recorder; lan-kv-sync's two are merged afterwards.
type recorder struct {
	begin     time.Time
	attempted int
	failed    int
	firstErr  error
	latMS     [numKinds][]float64
	submitUS  []float64
	applyUS   []float64
	points    []point
	spans     []span // kept only when keepSpans
	keepSpans bool
	// frontier is the newest frontier this client has read per predicate;
	// problems are output-check violations.
	frontier map[string]uint64
	problems []string
}

func newRecorder(keepSpans bool) *recorder {
	return &recorder{begin: time.Now(), keepSpans: keepSpans, frontier: map[string]uint64{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) problemf(format string, args ...any) {
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// mark records that done operations have completed by now. Readings closer
// than a millisecond apart are merged; force keeps the reading regardless.
func (r *recorder) mark(now time.Time, done uint64, force bool) {
	t := now.Sub(r.begin)
	if n := len(r.points); !force && n > 0 && t-r.points[n-1].t < time.Millisecond {
		return
	}
	r.points = append(r.points, point{t: t, n: done})
}

// observeFrontier reads key's frontier on n the way a client would and
// checks it never moves backwards and covers seq, which a wait just
// reported stable.
func (r *recorder) observeFrontier(n *stabilizer.Node, key string, seq uint64) uint64 {
	f, err := n.StabilityFrontier(key)
	if err != nil {
		r.problemf("read %s frontier: %v", key, err)
		return 0
	}
	if f < seq {
		r.problemf("%s frontier %d does not cover sequence %d reported stable", key, f, seq)
	}
	if f < r.frontier[key] {
		r.problemf("%s frontier moved backwards: %d after %d", key, f, r.frontier[key])
	}
	r.frontier[key] = f
	return f
}

// sendWait is one synchronous write: Send, then WaitFor on kind's predicate.
func (r *recorder) sendWait(n *stabilizer.Node, payload []byte, kind opKind) {
	key := kindPredicate[kind]
	r.attempted++
	start := time.Now()
	seq, err := n.Send(payload)
	submitted := time.Now()
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		err = n.WaitFor(ctx, seq, key)
		cancel()
	}
	end := time.Now()
	if err != nil {
		r.fail(fmt.Errorf("send+wait %s: %w", key, err))
		return
	}
	r.latMS[kind] = append(r.latMS[kind], ms(end.Sub(start)))
	r.submitUS = append(r.submitUS, us(submitted.Sub(start)))
	r.observeFrontier(n, key, seq)
	if r.keepSpans {
		r.spans = append(r.spans, span{n.Self(), seq, kind, start.UnixNano(), submitted.UnixNano(), end.UnixNano()})
	}
}

// runWANSync is the closed-loop client of wan-sync: one write under each of
// three predicates, then one quorum read, over and over.
func (c *cluster) runWANSync(r *recorder, in inputs, until time.Time) {
	n := c.cl.Node(c.w.senders[0])
	var done uint64
	r.mark(time.Now(), 0, true)
	for cycle := 0; time.Now().Before(until); cycle++ {
		for i, kind := range []opKind{kindOne, kindMajReg, kindAll} {
			r.sendWait(n, in.payloads[(cycle*3+i)%len(in.payloads)], kind)
		}
		r.attempted++
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		val, _, err := c.reader.Read(ctx, c.quorumKey)
		cancel()
		switch {
		case err != nil:
			r.fail(fmt.Errorf("quorum read: %w", err))
		case !bytes.Equal(val, c.quorumVal):
			r.problemf("quorum read returned %d bytes that are not the bytes written", len(val))
		default:
			r.latMS[kindQRead] = append(r.latMS[kindQRead], ms(time.Since(start)))
		}
		// One reading per cycle: the four operations of a cycle take very
		// different times, whole cycles do not.
		done += 4
		r.mark(time.Now(), done, true)
	}
}

// runStream is the producer of the stream workloads: it sends as fast as it
// can while at most window messages are not yet AllWNodes-stable, and
// learns of stability the way it learns it may send again, by waiting on
// the frontier.
func (c *cluster) runStream(r *recorder, in inputs, until time.Time) {
	const key = predlib.AllWNodesKey
	n := c.cl.Node(c.w.senders[0])
	window := uint64(c.w.window)
	base := n.NextSeq() - 1 // everything before this phase is already stable
	stable, last := base, base
	// pending holds the sampled messages not yet seen stable, oldest first.
	var pending []span
	head := 0
	refresh := func(covered uint64, force bool) {
		stable = r.observeFrontier(n, key, covered)
		now := time.Now()
		r.mark(now, stable-base, force)
		for ; head < len(pending) && pending[head].seq <= stable; head++ {
			sp := pending[head]
			sp.end = now.UnixNano()
			r.latMS[kindAll] = append(r.latMS[kindAll], float64(sp.end-sp.start)/1e6)
			if r.keepSpans {
				r.spans = append(r.spans, sp)
			}
		}
		if head == len(pending) {
			pending, head = pending[:0], 0
		}
	}
	waitFor := func(seq uint64) bool {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		err := n.WaitFor(ctx, seq, key)
		cancel()
		if err != nil {
			r.fail(fmt.Errorf("stream wait for %d: %w", seq, err))
			return false
		}
		return true
	}
	r.mark(time.Now(), 0, true)
	for i := 0; ; i++ {
		if last-stable >= window {
			if !waitFor(last + 1 - window) {
				return
			}
			refresh(last+1-window, false)
		}
		start := time.Now()
		if !start.Before(until) {
			break
		}
		r.attempted++
		seq, err := n.Send(in.payloads[i%len(in.payloads)])
		if err != nil {
			r.fail(fmt.Errorf("stream send: %w", err))
			return
		}
		last = seq
		if optrace.SampledAt(c.w.sampleEvery, n.Self(), seq) {
			submitted := time.Now()
			r.submitUS = append(r.submitUS, us(submitted.Sub(start)))
			pending = append(pending, span{n.Self(), seq, kindAll, start.UnixNano(), submitted.UnixNano(), 0})
		}
	}
	if last > stable && waitFor(last) {
		refresh(last, true)
	}
}

// kvWrite is a client's most recent write, which its next read checks.
type kvWrite struct {
	key string
	val []byte
	put wankv.PutResult
}

// runKV is one of lan-kv-sync's two closed-loop clients: seven PutWait
// (timed as its two halves, Put and WaitStable) under AllWNodes, then a
// read of its own last write on the other client's mirror.
func (c *cluster) runKV(r *recorder, in inputs, client int, done *atomic.Uint64, until time.Time) {
	self, other := c.w.senders[client], c.w.senders[1-client]
	order := in.keyOrder[client]
	var last kvWrite
	r.mark(time.Now(), done.Load(), true)
	for i := 0; time.Now().Before(until); i++ {
		r.attempted++
		ok := false
		if i%8 == 7 {
			ok = r.readOwnWrite(c.stores[other], self, last)
		} else {
			w := kvWrite{key: in.keys[order[i%len(order)]], val: in.payloads[i%len(in.payloads)]}
			if ok = r.putWait(c.stores[self], c.applied[self], &w); ok {
				last = w
			}
		}
		if ok {
			r.mark(time.Now(), done.Add(1), false)
		}
	}
	r.mark(time.Now(), done.Load(), true) // a reading past the deadline closes the last window
}

// putWait writes w and waits for it to be AllWNodes-stable.
func (r *recorder) putWait(store *wankv.Store, applied *applyStamps, w *kvWrite) bool {
	const key = predlib.AllWNodesKey
	self := store.Node().Self()
	start := time.Now()
	res, err := store.Put(w.key, w.val)
	submitted := time.Now()
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		err = store.WaitStable(ctx, res.Seq, key)
		cancel()
	}
	end := time.Now()
	if err != nil {
		r.fail(fmt.Errorf("put+wait on node %d: %w", self, err))
		return false
	}
	w.put = res
	r.latMS[kindAll] = append(r.latMS[kindAll], ms(end.Sub(start)))
	r.submitUS = append(r.submitUS, us(submitted.Sub(start)))
	if at, ok := applied.get(res.Version); ok {
		r.applyUS = append(r.applyUS, float64(at-start.UnixNano())/1e3)
	}
	r.observeFrontier(store.Node(), key, res.Seq)
	if r.keepSpans {
		r.spans = append(r.spans, span{self, res.Seq, kindAll, start.UnixNano(), submitted.UnixNano(), end.UnixNano()})
	}
	return true
}

// readOwnWrite reads w back from another node's mirror of origin once that
// mirror has applied it, and checks the version is not older than the one
// written.
func (r *recorder) readOwnWrite(mirror *wankv.Store, origin int, w kvWrite) bool {
	at := mirror.Node().Self()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	err := mirror.WaitApplied(ctx, origin, w.put.Seq)
	cancel()
	if err == nil {
		var v kvstore.Version
		if v, err = mirror.GetFrom(origin, w.key); err == nil {
			switch {
			case v.Num < w.put.Version:
				r.problemf("node %d returned %s at version %d after WaitApplied, older than the %d written", at, w.key, v.Num, w.put.Version)
			case v.Num == w.put.Version && !bytes.Equal(v.Value, w.val):
				r.problemf("node %d returned other bytes for %s version %d", at, w.key, v.Num)
			}
		}
	}
	if err != nil {
		r.fail(fmt.Errorf("read own write on node %d: %w", at, err))
		return false
	}
	r.latMS[kindReadCheck] = append(r.latMS[kindReadCheck], ms(time.Since(start)))
	return true
}
