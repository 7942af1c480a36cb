package frontier

import "time"

// Lag is the stall rule, written once: how long a frontier has sat still
// below the head of the stream it trails. Core's stall monitor keeps one per
// predicate and the adaptive controller one per key.
type Lag struct {
	frontier uint64
	since    time.Time
}

// Observe takes one reading and returns how long the frontier has been at
// this value with messages outstanding. The clock restarts whenever the
// frontier moves and whenever nothing is outstanding (frontier >= head), so
// the first message after a quiet spell gets a full deadline.
func (l *Lag) Observe(frontier, head uint64, now time.Time) time.Duration {
	if frontier != l.frontier || frontier >= head || l.since.IsZero() {
		l.frontier, l.since = frontier, now
	}
	return now.Sub(l.since)
}
