package faultinject

import (
	"sync"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
)

// pair is a directed (from, to) link.
type pair [2]int

// Injector applies faults to a live memory fabric. Each fault is a state of
// the fabric's directions (emunet.Fault): after every change the injector
// hands the directed pair's effective state to the fabric, which applies it
// to the pair's live connections, whichever end dialed, at once, mid-frame
// included, and to the connections dialed later.
//
// Cut state is refcounted per directed pair so overlapping faults compose:
// a link stays cut until every fault holding it heals. Spikes and receive
// throttles stack: the largest engaged applies.
type Injector struct {
	net *emunet.MemNetwork

	mu    sync.Mutex
	cut   map[pair]int             // cut refcount per directed pair
	delay map[pair][]time.Duration // spikes engaged (stack; max applies)
	slow  map[pair][]time.Duration // receive throttles engaged (stack; max applies)

	injected *metrics.CounterVec
	active   *metrics.Gauge
}

// New creates an injector for net, publishing fault counters into reg (nil
// uses a private registry): stabilizer_faults_injected_total{kind} and
// stabilizer_faults_active.
func New(net *emunet.MemNetwork, reg *metrics.Registry) *Injector {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Injector{
		net:   net,
		cut:   make(map[pair]int),
		delay: make(map[pair][]time.Duration),
		slow:  make(map[pair][]time.Duration),
		injected: reg.CounterVec("stabilizer_faults_injected_total",
			"Fault events injected, by fault kind.", "kind"),
		active: reg.Gauge("stabilizer_faults_active",
			"Fault effects currently engaged (cut directions plus delayed directions)."),
	}
}

// push hands p's effective state to the fabric. Caller holds in.mu, so the
// fabric sees a pair's changes in the order they were made.
func (in *Injector) push(p pair) {
	in.net.SetFault(p[0], p[1], emunet.Fault{
		Cut:   in.cut[p] > 0,
		Delay: maxOf(in.delay[p]),
		Pace:  maxOf(in.slow[p]),
	})
}

// RecordFault bumps the injected-fault counter for kind. The Runner calls
// it once per applied event; direct Injector users may call it themselves.
func (in *Injector) RecordFault(k Kind) { in.injected.With(k.String()).Inc() }

// CutLink cuts the directed from→to traffic: nothing more becomes readable
// on it, its writers block once its bound is full, and new dials in that
// direction fail. Refcounted; every CutLink needs a matching HealLink.
func (in *Injector) CutLink(from, to int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cut[pair{from, to}] == 0 {
		in.active.Add(1)
	}
	in.cut[pair{from, to}]++
	in.push(pair{from, to})
}

// HealLink releases one CutLink of the directed from→to traffic. What the
// cut held flows on (TCP retransmission after the blackhole lifts).
func (in *Injector) HealLink(from, to int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n := in.cut[pair{from, to}]; n > 1 {
		in.cut[pair{from, to}] = n - 1
	} else if n == 1 {
		delete(in.cut, pair{from, to})
		in.active.Add(-1)
	}
	in.push(pair{from, to})
}

// Sever closes both ends of every live connection between a and b. Their
// reads and writes, parked ones included, fail at once: a mid-frame
// connection kill.
func (in *Injector) Sever(a, b int) { in.net.Sever(a, b) }

// Flap severs both directions of the a↔b link without leaving it cut:
// transports may redial immediately and resend through the reconnect
// handshake.
func (in *Injector) Flap(a, b int) {
	in.RecordFault(KindFlap)
	in.Sever(a, b)
}

// Blackhole engages a one-way blackhole on from→to (CutLink): existing
// connections deliver nothing more that way, with no error, and dials from→to
// fail until HealBlackhole.
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

// Spike adds d of extra one-way delay to the directed from→to traffic until
// ClearSpike: the bytes written on it meanwhile arrive d later, whichever
// end of their connection dialed, in order. Overlapping spikes compose: the
// largest applies.
func (in *Injector) Spike(from, to int, d time.Duration) {
	in.RecordFault(KindLatencySpike)
	in.engage(in.delay, pair{from, to}, d)
}

// ClearSpike removes one Spike(from, to, d).
func (in *Injector) ClearSpike(from, to int, d time.Duration) {
	in.release(in.delay, pair{from, to}, d)
}

// SlowReceiver throttles to's reads of the from→to traffic until
// ClearSlowReceiver, whichever end of their connection dialed: a read takes
// at most a 4 KiB chunk, each d after the one before. Overlapping throttles
// compose: the largest applies.
func (in *Injector) SlowReceiver(from, to int, d time.Duration) {
	in.RecordFault(KindSlowReceiver)
	in.engage(in.slow, pair{from, to}, d)
}

// ClearSlowReceiver removes one SlowReceiver(from, to, d).
func (in *Injector) ClearSlowReceiver(from, to int, d time.Duration) {
	in.release(in.slow, pair{from, to}, d)
}

// engage pushes d onto p's stack in m.
func (in *Injector) engage(m map[pair][]time.Duration, p pair, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(m[p]) == 0 {
		in.active.Add(1)
	}
	m[p] = append(m[p], d)
	in.push(p)
}

// release removes one d from p's stack in m.
func (in *Injector) release(m map[pair][]time.Duration, p pair, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	ds := m[p]
	for i, v := range ds {
		if v == d {
			ds = append(ds[:i], ds[i+1:]...)
			break
		}
	}
	if len(ds) == 0 {
		if _, ok := m[p]; ok {
			delete(m, p)
			in.active.Add(-1)
		}
	} else {
		m[p] = ds
	}
	in.push(p)
}

// HealAll lifts every cut, spike and receive throttle (severed connections
// stay dead — their transports redial). Faults cease; convergence checking
// may begin.
func (in *Injector) HealAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	engaged := make(map[pair]bool)
	for _, m := range []map[pair][]time.Duration{in.delay, in.slow} {
		for p := range m {
			engaged[p] = true
		}
	}
	for p := range in.cut {
		engaged[p] = true
	}
	in.active.Add(-int64(len(in.cut) + len(in.delay) + len(in.slow)))
	in.cut = make(map[pair]int)
	in.delay = make(map[pair][]time.Duration)
	in.slow = make(map[pair][]time.Duration)
	for p := range engaged {
		in.push(p)
	}
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
