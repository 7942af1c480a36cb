package testbed

import (
	"sort"
	"sync"
	"time"
)

// Series is a set of latency samples.
type Series []time.Duration

// Avg is the mean sample (0 for an empty series).
func (s Series) Avg() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s {
		sum += v
	}
	return sum / time.Duration(len(s))
}

// Percentile is the sample at rank p·(len-1), p in [0, 1].
func (s Series) Percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	cp := make(Series, len(s))
	copy(cp, s)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[int(p*float64(len(cp)-1))]
}

// Max is the largest sample.
func (s Series) Max() time.Duration {
	var m time.Duration
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// Stamps records, per sequence number, when a message was sent and when each
// of a set of keyed frontiers (one per predicate) first covered it. The two
// sides are stamped independently and reconciled on read, because a frontier
// monitor can fire before the sender has got round to recording the send.
type Stamps struct {
	mu     sync.Mutex
	sent   []time.Time // index seq-1
	stable map[string]*firstStable
}

type firstStable struct {
	at      []time.Time // index seq-1
	covered uint64
}

func grow(s []time.Time, n uint64) []time.Time {
	for uint64(len(s)) < n {
		s = append(s, time.Time{})
	}
	return s
}

// Sent stamps sequences first..last as sent at the given time.
func (s *Stamps) Sent(first, last uint64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent = grow(s.sent, last)
	for seq := first; seq <= last; seq++ {
		s.sent[seq-1] = at
	}
}

// Stable stamps every sequence up to frontier that key's frontier had not
// covered before; it is the body of a MonitorStabilityFrontier callback.
func (s *Stamps) Stable(key string, frontier uint64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stable == nil {
		s.stable = make(map[string]*firstStable)
	}
	f := s.stable[key]
	if f == nil {
		f = &firstStable{}
		s.stable[key] = f
	}
	f.at = grow(f.at, frontier)
	for seq := f.covered + 1; seq <= frontier; seq++ {
		f.at[seq-1] = at
	}
	if frontier > f.covered {
		f.covered = frontier
	}
}

// Latency is the time from seq's send to key's frontier first covering it;
// false while either side is unstamped.
func (s *Stamps) Latency(key string, seq uint64) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.stable[key]
	if f == nil || seq == 0 || seq > uint64(len(f.at)) || seq > uint64(len(s.sent)) {
		return 0, false
	}
	se, st := s.sent[seq-1], f.at[seq-1]
	if se.IsZero() || st.IsZero() {
		return 0, false
	}
	return st.Sub(se), true
}

// Latencies collects Latency over first..last, skipping unstamped sequences.
func (s *Stamps) Latencies(key string, first, last uint64) Series {
	var out Series
	for seq := first; seq <= last; seq++ {
		if d, ok := s.Latency(key, seq); ok {
			out = append(out, d)
		}
	}
	return out
}
