package main

import (
	"sort"
	"time"

	"stabilizer"
	"stabilizer/internal/predlib"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlWANSync     = "wan-sync"
	wlStreamSmall = "lan-stream-small"
	wlStreamLarge = "lan-stream-large"
	wlKVSync      = "lan-kv-sync"
)

// workload is the fixed shape of one benchmark workload; the seed only
// fills in payload bytes and key order (see generate).
type workload struct {
	name string
	// shaped selects the EC2Matrix fabric; otherwise links are unshaped.
	shaped       bool
	payloadBytes int
	// window bounds the stream workloads' messages not yet AllWNodes-stable.
	window int
	// senders are the nodes that originate traffic, one client goroutine
	// each; all six Table III predicates are registered on every one.
	senders []int
	// sampleEvery thins per-message latency samples and client spans, and
	// is the flight recorder's SampleEvery in the traced phase.
	sampleEvery int
	// traceRing is the recorder's per-node ring size, traceTail how far
	// back from the end of the traced phase a ring of that size still holds
	// every event of an operation (0: the whole phase), and traceOps how
	// many operations are read back.
	traceRing int
	traceTail time.Duration
	traceOps  int
}

var workloads = []*workload{
	{name: wlWANSync, shaped: true, payloadBytes: 1 << 10, senders: []int{1},
		sampleEvery: 1, traceRing: 1 << 15, traceOps: 300},
	{name: wlStreamSmall, payloadBytes: 64, window: 4096, senders: []int{1},
		sampleEvery: 64, traceRing: 1 << 16, traceTail: 100 * time.Millisecond, traceOps: 100},
	{name: wlStreamLarge, payloadBytes: 8 << 10, window: 512, senders: []int{1},
		sampleEvery: 64, traceRing: 1 << 16, traceTail: 100 * time.Millisecond, traceOps: 100},
	{name: wlKVSync, payloadBytes: 128, senders: []int{1, 3},
		sampleEvery: 1, traceRing: 1 << 16, traceTail: 100 * time.Millisecond, traceOps: 100},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opKind is one kind of client operation; latencies are kept per kind.
type opKind int

const (
	// kindOne, kindMajReg and kindAll are Send (or Put) followed by a wait
	// on OneWNode, MajorityRegions and AllWNodes.
	kindOne opKind = iota
	kindMajReg
	kindAll
	// kindQRead is one quorum.KV.Read (wan-sync).
	kindQRead
	// kindReadCheck is WaitApplied + GetFrom on the other client's mirror
	// (lan-kv-sync).
	kindReadCheck
	numKinds
)

var kindNames = [numKinds]string{"one", "majreg", "all", "qread", "readcheck"}

// kindPredicate is the Table III predicate a kind waits on ("" for reads).
var kindPredicate = [numKinds]string{
	kindOne:    predlib.OneWNodeKey,
	kindMajReg: predlib.MajorityRegionsKey,
	kindAll:    predlib.AllWNodesKey,
}

// Quorum shape of the wan-sync read: reader and member node 1, the other
// two members in Oregon and Ohio, key written once by node 2.
var (
	quorumMembers = []int{1, 7, 8}
	quorumWriter  = 2
)

const quorumNr, quorumNw = 2, 2

// matrix is the link matrix the workload's fabric is shaped by, nil when it
// is unshaped.
func (w *workload) matrix() *stabilizer.Matrix {
	if w.shaped {
		return stabilizer.EC2Matrix()
	}
	return nil
}

// floors returns, per kind, the configured round trip that decides it for
// the workload's (first) client.
func (w *workload) floors() [numKinds]time.Duration {
	var f [numKinds]time.Duration
	m, topo := w.matrix(), stabilizer.EC2Topology(w.senders[0])
	for k := opKind(0); k < numKinds; k++ {
		f[k] = floorRTT(m, topo, w.senders[0], k)
	}
	return f
}

// rtt is the configured round trip between two nodes (0 on a nil matrix).
func rtt(m *stabilizer.Matrix, a, b int) time.Duration {
	if m == nil {
		return 0
	}
	return m.Get(a, b).OneWayLatency + m.Get(b, a).OneWayLatency
}

// kthSmallest returns the k-th smallest (1-based) of ds.
func kthSmallest(ds []time.Duration, k int) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[k-1]
}

// floorRTT is the round trip of the link that decides kind for a client on
// node self, read from the matrix: the part of a wait that is the wire's
// and not the library's. It is 0 on an unshaped fabric.
func floorRTT(m *stabilizer.Matrix, topo *stabilizer.Topology, self int, kind opKind) time.Duration {
	if m == nil {
		return 0
	}
	var peers []time.Duration
	regionBest := map[string]time.Duration{}
	selfRegion := topo.Nodes[self-1].Region
	for i, n := range topo.Nodes {
		id := i + 1
		if id == self {
			continue
		}
		d := rtt(m, self, id)
		peers = append(peers, d)
		if n.Region == selfRegion {
			continue
		}
		if best, ok := regionBest[n.Region]; !ok || d < best {
			regionBest[n.Region] = d
		}
	}
	switch kind {
	case kindOne:
		return kthSmallest(peers, 1)
	case kindAll:
		return kthSmallest(peers, len(peers))
	case kindMajReg:
		// A region acknowledges with its fastest node; a majority of the
		// remote regions is the (len/2+1)-th fastest of those.
		var regions []time.Duration
		for _, d := range regionBest {
			regions = append(regions, d)
		}
		return kthSmallest(regions, len(regions)/2+1)
	case kindQRead:
		// The reader's own replica answers at once; the read returns with
		// the (Nr-1)-th fastest remote member.
		var members []time.Duration
		for _, id := range quorumMembers {
			if id != self {
				members = append(members, rtt(m, self, id))
			}
		}
		return kthSmallest(members, quorumNr-1)
	}
	return 0
}
