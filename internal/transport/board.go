package transport

import (
	"sync/atomic"

	"stabilizer/internal/wire"
)

// reportColumn holds the newest report of one (by, typ) pair about every
// origin (cell i is origin i+1). A node reports its own observations, of a
// handful of stability types: a board has a few columns, found by scanning.
type reportColumn struct {
	by, typ uint16
	cells   []atomic.Uint64
}

// board is the node's stability reports, kept once per node rather than once
// per link. Reports are monotone watermarks, so a cell only ever rises and a
// reader that finds it above what its connection has carried knows all there
// is to send. Writers take no lock: raise is one compare-and-swap and one
// version bump, and each link compares the cells against its own sent vector
// on its own goroutine (link.takeReports).
type board struct {
	n int
	// cols is append-only and copy-on-write: a column, once published, keeps
	// its index and its cells for good, so links index their sent vectors by
	// column position.
	cols atomic.Pointer[[]reportColumn]
	// version moves after every cell that rises. A link that finds it where
	// its last scan read it has nothing new to look for.
	version atomic.Uint64
}

func newBoard(n int) *board {
	b := &board{n: n}
	b.cols.Store(new([]reportColumn))
	return b
}

func (b *board) columns() []reportColumn { return *b.cols.Load() }

// column returns the (by, typ) column, publishing it on first use.
func (b *board) column(by, typ uint16) *reportColumn {
	for {
		old := b.cols.Load()
		for i := range *old {
			if c := &(*old)[i]; c.by == by && c.typ == typ {
				return c
			}
		}
		cols := append((*old)[:len(*old):len(*old)], reportColumn{by: by, typ: typ, cells: make([]atomic.Uint64, b.n)})
		if b.cols.CompareAndSwap(old, &cols) {
			return &cols[len(cols)-1]
		}
	}
}

// raise lifts a's cell to a.Seq and reports whether it rose; a stale or
// repeated report changes nothing. The version moves after the cell, and a
// scan reads the version before the cells, so a scan that misses the cell
// also reads the older version and the link scans again. Caller has
// range-checked a.Origin.
func (b *board) raise(a wire.Ack) bool {
	cell := &b.column(a.By, a.Type).cells[a.Origin-1]
	for {
		cur := cell.Load()
		if a.Seq <= cur {
			return false
		}
		if cell.CompareAndSwap(cur, a.Seq) {
			b.version.Add(1)
			return true
		}
	}
}

// reportsBack is an accepted connection's record of the reports about its
// peer that it has written back (serveIncoming): carried[c] is the newest
// value of board column c about the peer. It is the connection's own and
// shared with no link, so a report may go both ways; a duplicate is a
// watermark repeated. ack is the frame each report is encoded from, reused.
// The connection's reader alone touches it.
type reportsBack struct {
	carried []uint64
	ack     wire.Ack
}

// appendAbout frames, behind buf, every report on b about origin newer than
// what the connection has carried, raises carried to match and returns how
// many it framed.
func (rb *reportsBack) appendAbout(buf []byte, b *board, origin int) ([]byte, int) {
	n := 0
	for ci, c := range b.columns() {
		if ci == len(rb.carried) {
			rb.carried = append(rb.carried, 0)
		}
		if seq := c.cells[origin-1].Load(); seq > rb.carried[ci] {
			rb.carried[ci] = seq
			rb.ack = wire.Ack{Origin: uint16(origin), By: c.by, Type: c.typ, Seq: seq}
			buf = wire.AppendFrame(buf, &rb.ack)
			n++
		}
	}
	return buf, n
}
