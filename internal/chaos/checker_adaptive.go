package chaos

import (
	"sync"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/core"
)

// AttachAdaptive subscribes to an adaptive controller's transition stream
// and enforces the flap half of invariant 10: consecutive transitions are
// at least minDwell apart, every transition moves exactly one rung, and the
// direction label matches the move. It returns the hook's cancel func.
func (c *Checker) AttachAdaptive(ctrl *adaptive.Controller, minDwell time.Duration) func() {
	var mu sync.Mutex
	var last time.Time
	var have bool
	return ctrl.OnTransition(func(tr adaptive.Transition) {
		if tr.To != tr.From+1 && tr.To != tr.From-1 {
			c.Violatef("adaptive transition skips rungs: %q %d->%d", tr.Predicate, tr.From, tr.To)
		}
		if (tr.Direction == adaptive.DirectionDown && tr.To != tr.From+1) ||
			(tr.Direction == adaptive.DirectionUp && tr.To != tr.From-1) {
			c.Violatef("adaptive direction mislabeled: %q %d->%d labeled %q",
				tr.Predicate, tr.From, tr.To, tr.Direction)
		}
		mu.Lock()
		defer mu.Unlock()
		if have && tr.At.Sub(last) < minDwell {
			c.Violatef("adaptive flap: %q transitions %v apart, MinDwell is %v",
				tr.Predicate, tr.At.Sub(last), minDwell)
		}
		last, have = tr.At, true
	})
}

// CheckAdaptiveHonesty sweeps the guarantee half of invariant 10: no
// controller the scenario started on node n may report a rung stronger
// (lower index) than the predicate actually installed in n's registry. The
// reported rung is re-read around the registry read; a mismatch means a
// transition is in flight and the sample is skipped — the honesty ordering
// inside the controller makes the remaining samples race-free in both
// directions. A nil n (crashed) is skipped.
func (c *Checker) CheckAdaptiveHonesty(n *core.Node, ctrls ...*adaptive.Controller) {
	if n == nil {
		return
	}
	for _, ctrl := range ctrls {
		r1 := ctrl.RungIndex()
		v, err := n.Explain(ctrl.Key())
		r2 := ctrl.RungIndex()
		if err != nil || r1 != r2 {
			continue
		}
		idx := ctrl.Ladder().IndexOfSource(v.Source)
		if idx == -1 {
			c.Violatef("adaptive honesty: node %d predicate %q installed source %q is not a ladder rung",
				n.Self(), ctrl.Key(), v.Source)
			continue
		}
		if r1 < idx {
			c.Violatef("adaptive honesty: node %d predicate %q reports rung %d but only rung %d (weaker) is installed",
				n.Self(), ctrl.Key(), r1, idx)
		}
	}
}
