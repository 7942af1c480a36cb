package frontier

import (
	"sync"

	"stabilizer/internal/dsl"
)

// Table is the message ACK recorder (paper Fig. 1): for every
// (WAN node, stability type) it keeps the highest acknowledged sequence
// number. Control information is monotonic — a newer value overwrites an
// older one, and stale updates are ignored — which is what lets the data
// plane coalesce and batch stability reports freely.
//
// Table implements dsl.Source.
type Table struct {
	n  int
	mu sync.RWMutex
	// rows is indexed by stability-type id; a row is a per-node counter
	// slice (slot i holds node i+1's counter) and nil while the type has
	// never been recorded. Ids are 1–3 and 16 upward, so the slice stays
	// short and no read or update hashes anything.
	rows [][]uint64
}

var _ dsl.Source = (*Table)(nil)

// NewTable creates a recorder for n WAN nodes.
func NewTable(n int) *Table {
	return &Table{n: n}
}

// ensureRow returns typ's row, materializing it (zero-initialized) on first
// use. Caller holds t.mu for writing.
func (t *Table) ensureRow(typ uint16) []uint64 {
	if int(typ) >= len(t.rows) {
		t.rows = append(t.rows, make([][]uint64, int(typ)+1-len(t.rows))...)
	}
	if t.rows[typ] == nil {
		t.rows[typ] = make([]uint64, t.n)
	}
	return t.rows[typ]
}

// N returns the number of WAN nodes tracked.
func (t *Table) N() int { return t.n }

// Update records that node has acknowledged stability typ up to seq.
// It returns true when the counter advanced (stale and duplicate reports
// return false). Out-of-range nodes are ignored.
func (t *Table) Update(node int, typ uint16, seq uint64) bool {
	if node < 1 || node > t.n {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.ensureRow(typ)
	if seq <= row[node-1] {
		return false
	}
	row[node-1] = seq
	return true
}

// UpdateAll advances every existing stability-type row for node to at least
// seq, reporting whether any counter moved. It implements the paper's
// completeness rule: all stability properties hold trivially at the node
// that originated a message, so the origin's own counters advance the
// moment a sequence number is assigned.
func (t *Table) UpdateAll(node int, seq uint64) bool {
	if node < 1 || node > t.n {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	advanced := false
	for _, row := range t.rows {
		if row != nil && row[node-1] < seq {
			row[node-1] = seq
			advanced = true
		}
	}
	return advanced
}

// EnsureType materializes the row for typ (zero-initialized) so that
// UpdateAll covers it, and pre-sets node's own counter to seq.
func (t *Table) EnsureType(typ uint16, node int, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.ensureRow(typ)
	if node >= 1 && node <= t.n && row[node-1] < seq {
		row[node-1] = seq
	}
}

// NoteReceived records, under one lock, everything node by learns from
// holding origin's stream through seq: the well-known rows exist, origin's
// own counter stands at seq or beyond in every row (the completeness rule
// applied remotely — the origin trivially holds every stability property of
// what it sent), and by has received through seq. Because the counters are
// monotone watermarks, one call with a run's last sequence stands for the
// whole run.
func (t *Table) NoteReceived(origin, by int, seq uint64) {
	if origin < 1 || origin > t.n || by < 1 || by > t.n {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureRow(TypePersisted)
	t.ensureRow(TypeDelivered)
	received := t.ensureRow(TypeReceived)
	for _, row := range t.rows {
		if row != nil && row[origin-1] < seq {
			row[origin-1] = seq
		}
	}
	if received[by-1] < seq {
		received[by-1] = seq
	}
}

// Value implements dsl.Source: the highest sequence node has acknowledged
// for typ, or zero if nothing was recorded.
func (t *Table) Value(node int, typ uint16) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return unlockedView{t}.Value(node, typ)
}

// Snapshot returns a deep copy of the table, keyed by type id.
func (t *Table) Snapshot() map[uint16][]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[uint16][]uint64)
	for typ, row := range t.rows {
		if row != nil {
			out[uint16(typ)] = append([]uint64(nil), row...)
		}
	}
	return out
}

// Restore overwrites the table from a snapshot (primary restart, §III-E).
// Rows sized differently from the table are ignored.
func (t *Table) Restore(snap map[uint16][]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for typ, row := range snap {
		if len(row) != t.n {
			continue
		}
		copy(t.ensureRow(typ), row)
	}
}

// EvalLocked evaluates prog under a single read lock, avoiding per-load
// locking on the critical path.
func (t *Table) EvalLocked(prog *dsl.Program) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return prog.Eval(unlockedView{t})
}

// unlockedView reads the table without taking locks; only valid while the
// caller holds t.mu.
type unlockedView struct{ t *Table }

var _ dsl.Source = unlockedView{}

// Value implements dsl.Source.
func (v unlockedView) Value(node int, typ uint16) uint64 {
	rows := v.t.rows
	if node < 1 || node > v.t.n || int(typ) >= len(rows) || rows[typ] == nil {
		return 0
	}
	return rows[typ][node-1]
}
