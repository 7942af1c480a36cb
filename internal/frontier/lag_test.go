package frontier

import (
	"testing"
	"time"
)

// stuck reads key's stall clock against head at now.
func stuck(t *testing.T, reg *Registry, key string, head uint64, now time.Time) time.Duration {
	t.Helper()
	st, err := reg.State(key, head, now)
	if err != nil {
		t.Fatal(err)
	}
	return st.Stuck
}

// TestStateIdleThenInFlightIsNotAStall: a quiet spell longer than any
// deadline does not count against the first message sent after it — the stall
// clock restarts at every reading that finds nothing outstanding, so the
// message's clock runs from the last such reading.
func TestStateIdleThenInFlightIsNotAStall(t *testing.T) {
	reg, table, _ := newTestRegistry(t, 3)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	for node := 1; node <= 3; node++ {
		report(reg, table, node, 5)
	}
	reg.Flush()
	const every = 15 * time.Second
	now := time.Unix(40_000, 0)
	for i := 0; i < 40; i++ { // ten minutes idle: everything sent is stable
		if d := stuck(t, reg, "p", 5, now); d != 0 {
			t.Fatalf("idle reading %d: stuck %v with nothing outstanding", i, d)
		}
		now = now.Add(every)
	}
	if d := stuck(t, reg, "p", 6, now); d != every { // one message in flight
		t.Fatalf("one message in flight after ten idle minutes reads stuck %v, want %v", d, every)
	}
	if d := stuck(t, reg, "p", 6, now.Add(45*time.Second)); d != every+45*time.Second {
		t.Fatalf("45s later the frontier reads stuck %v, want %v", d, every+45*time.Second)
	}
	// The frontier moving restarts the clock, even with messages outstanding.
	for node := 1; node <= 3; node++ {
		report(reg, table, node, 6)
	}
	reg.Flush()
	if d := stuck(t, reg, "p", 7, now.Add(time.Minute)); d != 0 {
		t.Fatalf("a frontier that just moved reads stuck %v", d)
	}
}

// TestStateRemoveRegisterStartsAFreshStuck: the stall clock belongs to the
// registered predicate, so Remove takes it along and a Register of the same
// key starts from zero, however long the old one had been stuck.
func TestStateRemoveRegisterStartsAFreshStuck(t *testing.T) {
	reg, _, _ := newTestRegistry(t, 3)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(50_000, 0)
	stuck(t, reg, "p", 10, t0)
	if d := stuck(t, reg, "p", 10, t0.Add(time.Minute)); d != time.Minute {
		t.Fatalf("stuck %v after a minute below the head, want 1m", d)
	}
	if err := reg.Remove("p"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	if d := stuck(t, reg, "p", 10, t0.Add(2*time.Minute)); d != 0 {
		t.Fatalf("a re-registered key inherited stuck %v", d)
	}
	if d := stuck(t, reg, "p", 10, t0.Add(3*time.Minute)); d != time.Minute {
		t.Fatalf("re-registered key: stuck %v a minute on, want 1m", d)
	}
	// States reads the same clock State does.
	states := reg.States(10, t0.Add(4*time.Minute))
	if len(states) != 1 || states[0].Stuck != 2*time.Minute {
		t.Fatalf("States = %+v, want p stuck 2m", states)
	}
}
