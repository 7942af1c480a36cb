package faultinject

import (
	"fmt"
	"net"
	"sync"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
)

// ErrLinkCut is returned by the dial hook while the dialed direction is cut.
var ErrLinkCut = fmt.Errorf("faultinject: link cut")

// pair is a directed (from, to) link.
type pair [2]int

// Injector applies faults to a live fabric. Install its Hook on an emunet
// network; every dialed connection is then wrapped in an injectable Conn
// whose reads and writes the injector can stall, delay, or sever at any
// moment — including mid-frame.
//
// Cut state is refcounted per directed pair so overlapping faults compose:
// a link stays cut until every fault holding it heals.
type Injector struct {
	mu     sync.Mutex
	cond   sync.Cond
	cut    map[pair]int             // stall refcount per directed pair
	delay  map[pair][]time.Duration // extra write delays (stack; max applies)
	slow   map[pair][]time.Duration // per-chunk read delays (stack; max applies)
	conns  map[pair]map[*Conn]struct{}
	closed bool

	injected *metrics.CounterVec
	active   *metrics.Gauge
}

// New creates an injector publishing fault counters into reg (nil uses a
// private registry): stabilizer_faults_injected_total{kind} and
// stabilizer_faults_active.
func New(reg *metrics.Registry) *Injector {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	in := &Injector{
		cut:   make(map[pair]int),
		delay: make(map[pair][]time.Duration),
		slow:  make(map[pair][]time.Duration),
		conns: make(map[pair]map[*Conn]struct{}),
		injected: reg.CounterVec("stabilizer_faults_injected_total",
			"Fault events injected, by fault kind.", "kind"),
		active: reg.Gauge("stabilizer_faults_active",
			"Fault effects currently engaged (cut directions plus delayed directions)."),
	}
	in.cond.L = &in.mu
	return in
}

// Hook returns the dial-path hook to install via SetConnHook. Dials in a
// cut direction fail with ErrLinkCut (a dropped SYN, surfaced fast so the
// transport's backoff drives retry); successful dials return an injectable
// wrapper registered with the injector.
func (in *Injector) Hook() emunet.ConnHook {
	return func(from, to int, conn net.Conn) (net.Conn, error) {
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.closed {
			return nil, net.ErrClosed
		}
		if in.cut[pair{from, to}] > 0 {
			return nil, fmt.Errorf("%w: %d->%d", ErrLinkCut, from, to)
		}
		c := &Conn{inj: in, from: from, to: to, base: conn}
		set := in.conns[pair{from, to}]
		if set == nil {
			set = make(map[*Conn]struct{})
			in.conns[pair{from, to}] = set
		}
		set[c] = struct{}{}
		return c, nil
	}
}

// RecordFault bumps the injected-fault counter for kind. The Runner calls
// it once per applied event; direct Injector users may call it themselves.
func (in *Injector) RecordFault(k Kind) { in.injected.With(k.String()).Inc() }

// CutLink cuts the directed from→to traffic: writes carrying it stall,
// reads carrying it stall, and new dials in that direction fail. Refcounted;
// every CutLink needs a matching HealLink.
func (in *Injector) CutLink(from, to int) {
	in.mu.Lock()
	if in.cut[pair{from, to}] == 0 {
		in.active.Add(1)
	}
	in.cut[pair{from, to}]++
	in.mu.Unlock()
	in.cond.Broadcast()
}

// HealLink releases one CutLink of the directed from→to traffic. Stalled
// operations resume; the stalled bytes then flow (TCP retransmission after
// the blackhole lifts).
func (in *Injector) HealLink(from, to int) {
	in.mu.Lock()
	if n := in.cut[pair{from, to}]; n > 1 {
		in.cut[pair{from, to}] = n - 1
	} else if n == 1 {
		delete(in.cut, pair{from, to})
		in.active.Add(-1)
	}
	in.mu.Unlock()
	in.cond.Broadcast()
}

// Sever closes every live injected connection between a and b (both
// directions). Stalled reads and writes on those connections fail
// immediately with net.ErrClosed — a mid-frame connection kill.
func (in *Injector) Sever(a, b int) {
	in.mu.Lock()
	victims := in.takeConnsLocked(pair{a, b}, pair{b, a})
	in.mu.Unlock()
	in.cond.Broadcast()
	for _, c := range victims {
		c.kill()
	}
}

// Flap severs both directions of the a↔b link without leaving it cut:
// transports may redial immediately and resend through the reconnect
// handshake.
func (in *Injector) Flap(a, b int) {
	in.RecordFault(KindFlap)
	in.Sever(a, b)
}

// Blackhole engages a one-way blackhole on from→to. Existing connections
// stall silently (no error, no progress) and dials from→to fail until
// HealBlackhole.
func (in *Injector) Blackhole(from, to int) {
	in.RecordFault(KindBlackhole)
	in.CutLink(from, to)
}

// HealBlackhole lifts a one-way blackhole.
func (in *Injector) HealBlackhole(from, to int) { in.HealLink(from, to) }

// Partition isolates set from the rest of the 1..n cluster: every directed
// link crossing the boundary is cut and every live crossing connection is
// severed, so the cut surfaces immediately instead of waiting for traffic.
func (in *Injector) Partition(set []int, n int) {
	in.RecordFault(KindPartition)
	inside := make(map[int]bool, len(set))
	for _, s := range set {
		inside[s] = true
	}
	for a := 1; a <= n; a++ {
		for b := 1; b <= n; b++ {
			if a != b && inside[a] != inside[b] {
				in.CutLink(a, b)
			}
		}
	}
	for _, a := range set {
		for b := 1; b <= n; b++ {
			if !inside[b] {
				in.Sever(a, b)
			}
		}
	}
}

// HealPartition reverses Partition for the same set and cluster size.
func (in *Injector) HealPartition(set []int, n int) {
	inside := make(map[int]bool, len(set))
	for _, s := range set {
		inside[s] = true
	}
	for a := 1; a <= n; a++ {
		for b := 1; b <= n; b++ {
			if a != b && inside[a] != inside[b] {
				in.HealLink(a, b)
			}
		}
	}
}

// Spike adds d of extra one-way delay to the directed from→to link until
// ClearSpike: to writes on from's connections to to, and to reads on to's
// connections to from, which carry what from writes back. Overlapping spikes
// compose: the largest applies.
func (in *Injector) Spike(from, to int, d time.Duration) {
	in.RecordFault(KindLatencySpike)
	in.mu.Lock()
	if len(in.delay[pair{from, to}]) == 0 {
		in.active.Add(1)
	}
	in.delay[pair{from, to}] = append(in.delay[pair{from, to}], d)
	in.mu.Unlock()
}

// ClearSpike removes one Spike(from, to, d).
func (in *Injector) ClearSpike(from, to int, d time.Duration) {
	in.mu.Lock()
	ds := in.delay[pair{from, to}]
	for i, v := range ds {
		if v == d {
			ds = append(ds[:i], ds[i+1:]...)
			break
		}
	}
	if len(ds) == 0 {
		delete(in.delay, pair{from, to})
		in.active.Add(-1)
	} else {
		in.delay[pair{from, to}] = ds
	}
	in.mu.Unlock()
}

// SlowReceiver throttles reads of from→to traffic on the connections the
// injector wraps, which are the dialed ones: each read chunk pays d of extra
// delay until ClearSlowReceiver. Overlapping throttles compose: the largest
// applies. In a cluster that slows to's reads of its own dialed connection to
// from, which carries from's heartbeat echoes and the reports from writes back
// about to's lone messages. It does not slow from's data stream to to: that
// arrives on the connection from dialed, whose accepting end is not wrapped.
// ROADMAP item 13 holds the fix, a throttle on the accepting end's reads.
func (in *Injector) SlowReceiver(from, to int, d time.Duration) {
	in.RecordFault(KindSlowReceiver)
	in.mu.Lock()
	if len(in.slow[pair{from, to}]) == 0 {
		in.active.Add(1)
	}
	in.slow[pair{from, to}] = append(in.slow[pair{from, to}], d)
	in.mu.Unlock()
}

// ClearSlowReceiver removes one SlowReceiver(from, to, d).
func (in *Injector) ClearSlowReceiver(from, to int, d time.Duration) {
	in.mu.Lock()
	ds := in.slow[pair{from, to}]
	for i, v := range ds {
		if v == d {
			ds = append(ds[:i], ds[i+1:]...)
			break
		}
	}
	if len(ds) == 0 {
		delete(in.slow, pair{from, to})
		in.active.Add(-1)
	} else {
		in.slow[pair{from, to}] = ds
	}
	in.mu.Unlock()
}

// HealAll lifts every cut, spike and receive throttle (severed connections
// stay dead — their transports redial). Faults cease; convergence checking
// may begin.
func (in *Injector) HealAll() {
	in.mu.Lock()
	n := int64(len(in.cut) + len(in.delay) + len(in.slow))
	in.cut = make(map[pair]int)
	in.delay = make(map[pair][]time.Duration)
	in.slow = make(map[pair][]time.Duration)
	in.active.Add(-n)
	in.mu.Unlock()
	in.cond.Broadcast()
}

// Close heals everything and severs every live injected connection. New
// dials through the hook fail afterwards.
func (in *Injector) Close() {
	in.mu.Lock()
	in.closed = true
	n := int64(len(in.cut) + len(in.delay) + len(in.slow))
	in.cut = make(map[pair]int)
	in.delay = make(map[pair][]time.Duration)
	in.slow = make(map[pair][]time.Duration)
	in.active.Add(-n)
	pairs := make([]pair, 0, len(in.conns))
	for p := range in.conns {
		pairs = append(pairs, p)
	}
	victims := in.takeConnsLocked(pairs...)
	in.mu.Unlock()
	in.cond.Broadcast()
	for _, c := range victims {
		c.kill()
	}
}

// takeConnsLocked removes and returns the live conns of the given pairs.
// Caller holds in.mu.
func (in *Injector) takeConnsLocked(pairs ...pair) []*Conn {
	var out []*Conn
	for _, p := range pairs {
		for c := range in.conns[p] {
			c.severed = true
			out = append(out, c)
		}
		delete(in.conns, p)
	}
	return out
}

// unregister drops a closed conn from the registry and wakes any of its
// operations stalled in a fault gate (they fail with net.ErrClosed).
func (in *Injector) unregister(c *Conn) {
	in.mu.Lock()
	c.closed = true
	if set := in.conns[pair{c.from, c.to}]; set != nil {
		delete(set, c)
		if len(set) == 0 {
			delete(in.conns, pair{c.from, c.to})
		}
	}
	in.mu.Unlock()
	in.cond.Broadcast()
}

// gateWrite blocks while the conn's forward direction is cut, then returns
// the extra write delay currently engaged. An error means the conn was
// severed or the injector closed.
func (in *Injector) gateWrite(c *Conn) (time.Duration, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.cut[pair{c.from, c.to}] > 0 && !c.severed && !c.closed && !in.closed {
		in.cond.Wait()
	}
	if c.severed || c.closed || in.closed {
		return 0, net.ErrClosed
	}
	return maxOf(in.delay[pair{c.from, c.to}]), nil
}

// quiet reports whether no fault would hold a write on c now: its forward
// direction is neither cut nor spiked, and c and the injector are live.
func (in *Injector) quiet(c *Conn) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := pair{c.from, c.to}
	return in.cut[p] == 0 && len(in.delay[p]) == 0 && !c.severed && !c.closed && !in.closed
}

// readSpike returns the spike engaged on the conn's reverse direction, the
// traffic its reads carry.
func (in *Injector) readSpike(c *Conn) time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return maxOf(in.delay[pair{c.to, c.from}])
}

// maxOf is the largest of a stack of delays (zero for none): overlapping
// faults of one kind compose by the largest.
func maxOf(ds []time.Duration) time.Duration {
	var d time.Duration
	for _, v := range ds {
		if v > d {
			d = v
		}
	}
	return d
}

// gateRead blocks while the conn's reverse direction (the traffic its reads
// carry) is cut, then returns the per-chunk receive throttle currently
// engaged on that direction.
func (in *Injector) gateRead(c *Conn) (time.Duration, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.cut[pair{c.to, c.from}] > 0 && !c.severed && !c.closed && !in.closed {
		in.cond.Wait()
	}
	if c.severed || c.closed || in.closed {
		return 0, net.ErrClosed
	}
	return maxOf(in.slow[pair{c.to, c.from}]), nil
}
