package chaos

import (
	"os"
	"strconv"
	"testing"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/optrace"
	"stabilizer/internal/transport"
)

// defaultSoakSeed is the pinned CI seed. Every failure message carries the
// seed; re-run any fault schedule with
//
//	STABILIZER_CHAOS_SEED=<seed> go test -run TestChaosSoak ./internal/chaos
const defaultSoakSeed = 20260806

// failSeeded fails a seeded scenario with the one hint they all share. It
// says what the seed does and does not pin: a failure that came from how the
// host scheduled goroutines and timers will not come back with the seed.
func failSeeded(t *testing.T, what string, seed int64, err error) {
	t.Helper()
	t.Fatalf("%s failed — re-run the same fault schedule with STABILIZER_CHAOS_SEED=%d (the seed pins faults, jitter and backoff; goroutine and timer interleaving is the host's):\n%v",
		what, seed, err)
}

func soakSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("STABILIZER_CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad STABILIZER_CHAOS_SEED=%q: %v", v, err)
		}
		return s
	}
	return defaultSoakSeed
}

func TestChaosSoak(t *testing.T) {
	seed := soakSeed(t)
	o := Options{
		Seed: seed,
		Logf: t.Logf,
	}
	o.Cluster.Trace = optrace.Config{SampleEvery: 4, RingSize: 1 << 15}
	switch {
	case os.Getenv("STABILIZER_CHAOS_FULL") != "":
		o.Horizon = 12 * time.Second
	case testing.Short():
		o.Horizon = 1500 * time.Millisecond
	}
	rep, err := Soak(o)
	if err != nil {
		if rep != nil {
			t.Logf("schedule (fingerprint %s):\n%s", rep.Schedule.Fingerprint(), rep.Schedule)
		}
		failSeeded(t, "chaos soak", seed, err)
	}
	if kinds := rep.Schedule.Kinds(); len(kinds) < 3 {
		t.Fatalf("seed %d: schedule exercised only %d fault kinds (%v), want >= 3:\n%s",
			seed, len(kinds), kinds, rep.Schedule)
	}
	for s, head := range rep.Heads {
		if head == 0 {
			t.Fatalf("seed %d: sender %d never sent anything", seed, s)
		}
	}
	t.Logf("chaos soak passed: seed=%d fingerprint=%s heads=%v deliveries=%d kinds=%v",
		seed, rep.Schedule.Fingerprint(), rep.Heads, rep.Deliveries, rep.Schedule.Kinds())
}

// TestSoakScheduleReplayIsIdentical pins the acceptance requirement that
// re-running with the same seed reproduces the identical fault schedule,
// using the exact generator configuration Soak itself uses.
func TestSoakScheduleReplayIsIdentical(t *testing.T) {
	o := Options{Seed: soakSeed(t)}.withDefaults()
	a := faultinject.Generate(o.Seed, o.genConfig())
	b := faultinject.Generate(o.Seed, o.genConfig())
	if a.String() != b.String() {
		t.Fatalf("seed %d: replayed schedule differs:\n%s\n--- vs ---\n%s", o.Seed, a, b)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("seed %d: fingerprints differ: %s vs %s", o.Seed, a.Fingerprint(), b.Fingerprint())
	}
}

// flowSoakOptions is the flow-capped soak configuration: every node's send
// log capped with blocking admission control, stall checks on, and
// auto-reclaim enabled (bounded memory requires truncation) — which in turn
// requires excluding crash_restart from the schedule.
func flowSoakOptions(seed int64) Options {
	var kinds []faultinject.Kind
	for _, k := range faultinject.AllKinds() {
		if k != faultinject.KindCrashRestart {
			kinds = append(kinds, k)
		}
	}
	return Options{
		Seed:  seed,
		Kinds: kinds,
		Cluster: core.Config{
			Flow:  transport.FlowConfig{MaxBytes: 16 << 10},
			Trace: optrace.Config{SampleEvery: 1, RingSize: 1 << 14},
		},
		StallAfter:  300 * time.Millisecond,
		AutoReclaim: true,
	}
}

// TestChaosSoakFlow is the bounded-memory soak: random faults (crashes
// excluded) against flow-capped nodes, with the checker's bounded-memory and
// degraded-mode-honesty invariants armed alongside the original four.
func TestChaosSoakFlow(t *testing.T) {
	seed := soakSeed(t)
	o := flowSoakOptions(seed)
	o.Logf = t.Logf
	switch {
	case os.Getenv("STABILIZER_CHAOS_FULL") != "":
		o.Horizon = 12 * time.Second
	case testing.Short():
		o.Horizon = 1500 * time.Millisecond
	}
	rep, err := Soak(o)
	if err != nil {
		if rep != nil {
			t.Logf("schedule (fingerprint %s):\n%s", rep.Schedule.Fingerprint(), rep.Schedule)
		}
		failSeeded(t, "flow soak", seed, err)
	}
	for _, k := range rep.Schedule.Kinds() {
		if k == faultinject.KindCrashRestart {
			t.Fatalf("seed %d: flow soak schedule contains crash_restart:\n%s", seed, rep.Schedule)
		}
	}
	t.Logf("flow soak passed: seed=%d fingerprint=%s heads=%v deliveries=%d kinds=%v",
		seed, rep.Schedule.Fingerprint(), rep.Heads, rep.Deliveries, rep.Schedule.Kinds())
}

func TestSoakRejectsCrashWithAutoReclaim(t *testing.T) {
	if _, err := Soak(Options{Seed: 1, AutoReclaim: true}); err == nil {
		t.Fatal("Soak accepted auto-reclaim with crash_restart events in the schedule")
	}
}

// TestFlowDemo runs the bounded-memory acceptance scenario end to end: cap
// hit, stall blamed on exactly the blackholed peer, the reclaim fallback
// restores progress without passing a healthy receiver, memory stays bounded
// throughout.
func TestFlowDemo(t *testing.T) {
	seed := soakSeed(t)
	o := FlowOptions{Seed: seed, Logf: t.Logf}
	if testing.Short() {
		o.Horizon = 1200 * time.Millisecond
	}
	rep, err := FlowDemo(o)
	if err != nil {
		failSeeded(t, "flow demo", seed, err)
	}
	if rep.BlockedAppends == 0 || rep.FallbackHead == 0 || rep.Head <= rep.FallbackHead {
		t.Fatalf("degraded path not exercised: blocked=%d fallbackHead=%d head=%d",
			rep.BlockedAppends, rep.FallbackHead, rep.Head)
	}
	if rep.StuckVerdicts == 0 {
		t.Fatalf("no sweep found a verdict stuck past %v", flowStallAfter)
	}
	t.Logf("flow demo passed: seed=%d fingerprint=%s victim=%d head=%d fallbackHead=%d maxLogBytes=%d blocked=%d stuck=%d",
		seed, rep.Schedule.Fingerprint(), rep.Victim, rep.Head, rep.FallbackHead,
		rep.MaxLogBytes, rep.BlockedAppends, rep.StuckVerdicts)
}

// TestFlowDemoScheduleReplayIsIdentical pins the acceptance requirement that
// the same seed reproduces the flow demo's fault plan byte for byte.
func TestFlowDemoScheduleReplayIsIdentical(t *testing.T) {
	o := FlowOptions{Seed: soakSeed(t)}
	a, b := o.Schedule(), o.Schedule()
	if a.String() != b.String() {
		t.Fatalf("seed %d: replayed schedule differs:\n%s\n--- vs ---\n%s", o.Seed, a, b)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("seed %d: fingerprints differ: %s vs %s", o.Seed, a.Fingerprint(), b.Fingerprint())
	}
	if v1, v2 := o.Victim(), o.Victim(); v1 != v2 {
		t.Fatalf("seed %d: victim choice not deterministic: %d vs %d", o.Seed, v1, v2)
	}
}

func TestCheckerViolationCap(t *testing.T) {
	c := NewChecker(2, []int{1})
	for i := 0; i < maxViolations+5; i++ {
		c.Violatef("synthetic violation %d", i)
	}
	v := c.Violations()
	if len(v) != maxViolations+1 {
		t.Fatalf("got %d violation lines, want %d capped + 1 overflow marker", len(v), maxViolations+1)
	}
}
