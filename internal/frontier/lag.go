package frontier

import "time"

// lag is the stall rule, written once: how long a frontier has sat still
// below the head of the stream it trails. Each registered predicate holds
// one, so it starts fresh at Register; State and States observe it, and every
// reader of a stall (core's sweep, its Explain and Snapshot, the adaptive
// controller) reads it through them.
type lag struct {
	frontier uint64
	since    time.Time
}

// observe takes one reading and returns how long the frontier has been at
// this value with messages outstanding. The clock restarts whenever the
// frontier moves and whenever nothing is outstanding (frontier >= head), so
// the first message after a quiet spell gets a full deadline. Readers take
// their clock before the registry lock, so a reading may arrive a hair older
// than the last one; it then reads zero rather than negative.
func (l *lag) observe(frontier, head uint64, now time.Time) time.Duration {
	if frontier != l.frontier || frontier >= head || l.since.IsZero() {
		l.frontier, l.since = frontier, now
	}
	if d := now.Sub(l.since); d > 0 {
		return d
	}
	return 0
}
