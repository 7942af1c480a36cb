// Package frontier implements Stabilizer's control plane state: the
// monotonic ACK recorder table (paper Fig. 1), the stability-type registry,
// and the predicate registry that re-evaluates stability frontier
// predicates as control information streams in, releasing waitfor() callers
// and firing monitor callbacks.
package frontier

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Well-known stability types (paper §III-A: received, persisted, delivered).
// Application-defined types ("verified", "countersigned", ...) get ids from
// 16 upward.
const (
	TypeReceived  uint16 = 1
	TypePersisted uint16 = 2
	TypeDelivered uint16 = 3

	firstCustomType uint16 = 16
)

// Errors returned by the registries.
var (
	ErrTypeExists    = errors.New("frontier: stability type already registered")
	ErrTypeUnknown   = errors.New("frontier: unknown stability type")
	ErrPredExists    = errors.New("frontier: predicate key already registered")
	ErrPredUnknown   = errors.New("frontier: unknown predicate key")
	ErrTooManyTypes  = errors.New("frontier: stability type space exhausted")
	ErrBadTypeName   = errors.New("frontier: malformed stability type name")
	ErrWaitCancelled = errors.New("frontier: wait cancelled")
	ErrClosed        = errors.New("frontier: registry closed")
)

// Types maps stability-type names to compact numeric ids used on the wire
// and in compiled predicates. The three well-known types are pre-registered.
type Types struct {
	mu     sync.RWMutex
	byName map[string]uint16
	byID   map[uint16]string
	next   uint16
}

// NewTypes returns a registry with received, persisted and delivered
// pre-registered.
func NewTypes() *Types {
	t := &Types{
		byName: make(map[string]uint16),
		byID:   make(map[uint16]string),
		next:   firstCustomType,
	}
	for name, id := range map[string]uint16{
		"received":  TypeReceived,
		"persisted": TypePersisted,
		"delivered": TypeDelivered,
	} {
		t.byName[name] = id
		t.byID[id] = name
	}
	return t
}

// Register adds an application-defined stability type and returns its id.
func (t *Types) Register(name string) (uint16, error) {
	if !validTypeName(name) {
		return 0, fmt.Errorf("%w: %q", ErrBadTypeName, name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byName[name]; dup {
		return 0, fmt.Errorf("%w: %q", ErrTypeExists, name)
	}
	if t.next == 0 { // wrapped
		return 0, ErrTooManyTypes
	}
	id := t.next
	t.next++
	t.byName[name] = id
	t.byID[id] = name
	return id, nil
}

// Lookup resolves a type name to its id.
func (t *Types) Lookup(name string) (uint16, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrTypeUnknown, name)
	}
	return id, nil
}

// Name resolves a type id to its name; unknown ids render numerically.
func (t *Types) Name(id uint16) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n, ok := t.byID[id]; ok {
		return n
	}
	return fmt.Sprintf("type(%d)", id)
}

// IDs returns all registered type ids, ascending.
func (t *Types) IDs() []uint16 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]uint16, 0, len(t.byID))
	for id := range t.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func validTypeName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
