package chaos

import (
	"strings"
	"testing"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/metrics"
)

// TestAdaptiveDemo runs the closed-loop consistency acceptance scenario
// under a blackhole: the histogram goes silent, the stall detector steps
// the ladder down within one SLO long-window, and the controller climbs
// back to the strongest rung after the heal plus cooldown — with invariant
// 10 (guarantee honesty, hysteresis, release consistency) checked
// throughout.
func TestAdaptiveDemo(t *testing.T) {
	seed := soakSeed(t)
	rep, err := AdaptiveDemo(AdaptiveOptions{Seed: seed, Logf: t.Logf})
	if err != nil {
		failSeeded(t, "adaptive demo", seed, err)
	}
	if rep.Downgrades == 0 || rep.Upgrades == 0 || rep.ValidatedReleases == 0 {
		t.Fatalf("loop not exercised: down=%d up=%d validated=%d",
			rep.Downgrades, rep.Upgrades, rep.ValidatedReleases)
	}
	if got := rep.Transitions[0].Reason; got != "stall" {
		t.Fatalf("blackhole downgrade reason %q, want \"stall\"", got)
	}
	t.Logf("adaptive demo passed: seed=%d fingerprint=%s victim=%d head=%d down=%d up=%d validated=%d",
		seed, rep.Schedule.Fingerprint(), rep.Victim, rep.Head,
		rep.Downgrades, rep.Upgrades, rep.ValidatedReleases)
}

// TestAdaptiveDemoSpike drives the same loop through the burn detector: a
// latency spike keeps samples flowing but far past the SLO target, so the
// downgrade must carry the "slo-burn" reason instead of "stall".
func TestAdaptiveDemoSpike(t *testing.T) {
	if testing.Short() {
		t.Skip("spike variant skipped in -short; the blackhole demo covers invariant 10")
	}
	seed := soakSeed(t)
	rep, err := AdaptiveDemo(AdaptiveOptions{Seed: seed, Fault: AdaptiveFaultSpike, Logf: t.Logf})
	if err != nil {
		failSeeded(t, "adaptive spike demo", seed, err)
	}
	if got := rep.Transitions[0].Reason; got != "slo-burn" {
		t.Fatalf("spike downgrade reason %q, want \"slo-burn\"", got)
	}
	t.Logf("adaptive spike demo passed: seed=%d fingerprint=%s victim=%d down=%d up=%d validated=%d",
		seed, rep.Schedule.Fingerprint(), rep.Victim, rep.Downgrades, rep.Upgrades, rep.ValidatedReleases)
}

// TestAdaptiveDemoScheduleReplayIsIdentical pins the acceptance requirement
// that the same seed reproduces the adaptive demo's fault plan byte for
// byte, for both fault shapes.
func TestAdaptiveDemoScheduleReplayIsIdentical(t *testing.T) {
	for _, fault := range []AdaptiveFault{AdaptiveFaultBlackhole, AdaptiveFaultSpike} {
		o := AdaptiveOptions{Seed: soakSeed(t), Fault: fault}
		a, b := o.Schedule(), o.Schedule()
		if a.String() != b.String() {
			t.Fatalf("seed %d fault %s: replayed schedule differs:\n%s\n--- vs ---\n%s", o.Seed, fault, a, b)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("seed %d fault %s: fingerprints differ: %s vs %s", o.Seed, fault, a.Fingerprint(), b.Fingerprint())
		}
		if v1, v2 := o.Victim(), o.Victim(); v1 != v2 {
			t.Fatalf("seed %d fault %s: victim choice not deterministic: %d vs %d", o.Seed, fault, v1, v2)
		}
	}
}

// flapHost is a minimal adaptive.Host: swaps always succeed and nothing is
// ever stuck, so the histogram the test feeds directly marches the
// controller through transitions on a synthetic clock.
type flapHost struct{}

func (flapHost) ChangePredicate(key, source string) error { return nil }
func (flapHost) Stuck(string) (time.Duration, error)      { return 0, nil }

// TestCheckerAdaptiveFlapDetection proves the invariant-10 spacing check
// actually fires: a controller legally stepping every 30s must be flagged
// when the checker is told the hysteresis contract was one hour.
func TestCheckerAdaptiveFlapDetection(t *testing.T) {
	ladder, err := adaptive.NewLadder(
		adaptive.Rung{Name: "a", Source: "MIN($ALLWNODES)"},
		adaptive.Rung{Name: "b", Source: "KTH_MIN(3, $ALLWNODES)"},
		adaptive.Rung{Name: "c", Source: "KTH_MIN(2, $ALLWNODES)"},
	)
	if err != nil {
		t.Fatal(err)
	}
	hist := metrics.NewHistogram(metrics.LatencyOpts)
	ctrl, err := adaptive.New(flapHost{}, "p", ladder, adaptive.Config{
		Target:      time.Millisecond,
		Objective:   0.75,
		ShortWindow: time.Minute,
		LongWindow:  2 * time.Minute,
		Burn:        2,
		MinDwell:    time.Second,
		Cooldown:    time.Hour,
		StallAfter:  time.Hour,
	}, hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	c := NewChecker(1, []int{1})
	detach := c.AttachAdaptive(ctrl, time.Hour) // contract far above the real dwell
	defer detach()

	now := time.Unix(0, 0)
	for i := 0; i < 12 && len(ctrl.History()) < 2; i++ {
		for j := 0; j < 50; j++ {
			hist.Observe(int64(time.Second)) // every sample blows the SLO
		}
		now = now.Add(30 * time.Second)
		ctrl.Tick(now)
	}
	if got := len(ctrl.History()); got != 2 {
		t.Fatalf("controller recorded %d transitions, want 2", got)
	}
	vs := c.Violations()
	if len(vs) == 0 {
		t.Fatal("AttachAdaptive missed transitions closer together than the asserted MinDwell")
	}
	found := false
	for _, v := range vs {
		found = found || strings.Contains(v, "adaptive flap")
	}
	if !found {
		t.Fatalf("no flap violation among: %v", vs)
	}
}
