package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/frontier"
)

func mustLadder(t *testing.T, rungs ...adaptive.Rung) adaptive.Ladder {
	t.Helper()
	l, err := adaptive.NewLadder(rungs...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRegisterPredicatesAllOrNothing(t *testing.T) {
	c := startCluster(t, flatTopology(3), nil)
	n := c.nodes[0]

	if err := n.RegisterPredicates(map[string]string{
		"all": "MIN($ALLWNODES)",
		"maj": "KTH_MAX(2, $ALLWNODES)",
	}); err != nil {
		t.Fatalf("batch register: %v", err)
	}
	for _, key := range []string{"all", "maj"} {
		if _, err := n.Explain(key); err != nil {
			t.Fatalf("predicate %q missing after batch: %v", key, err)
		}
	}

	// One bad source: nothing from the batch lands.
	err := n.RegisterPredicates(map[string]string{
		"ok":     "MIN($ALLWNODES)",
		"broken": "MIN(",
	})
	if err == nil {
		t.Fatal("batch with a broken source succeeded")
	}
	if _, srcErr := n.Explain("ok"); srcErr == nil {
		t.Fatal("partial batch: \"ok\" registered despite sibling failure")
	}

	// One duplicate key: same, and the error is the registry's dup error.
	err = n.RegisterPredicates(map[string]string{
		"all":   "MIN($ALLWNODES)",
		"fresh": "KTH_MAX(1, $ALLWNODES)",
	})
	if !errors.Is(err, frontier.ErrPredExists) {
		t.Fatalf("dup-key batch error = %v, want ErrPredExists", err)
	}
	if _, srcErr := n.Explain("fresh"); srcErr == nil {
		t.Fatal("partial batch: \"fresh\" registered despite dup sibling")
	}

	// The reserved reclaim key is rejected up front.
	if err := n.RegisterPredicates(map[string]string{
		ReclaimPredicateKey: "MIN($ALLWNODES)",
	}); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("reserved key error = %v, want ErrReservedKey", err)
	}
}

func TestHookCancelDetaches(t *testing.T) {
	c := startCluster(t, flatTopology(3), nil)
	n := c.nodes[0]

	if err := n.RegisterPredicate("all", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	advances := make(chan string, 64)
	cancel := n.OnFrontierAdvance(func(key string, old, new uint64) {
		select {
		case advances <- key:
		default:
		}
	})
	if _, err := n.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	// The message advances two predicates, "all" and the reserved reclaim
	// one, each once. Both hook calls must be in before the cancel: they can
	// come from one drain pass, whose second call would otherwise land after
	// the channel is emptied below.
	for i := 0; i < 2; i++ {
		select {
		case <-advances:
		case <-time.After(5 * time.Second):
			t.Fatal("OnFrontierAdvance hook never fired")
		}
	}
	cancel()
	cancel() // idempotent
	for len(advances) > 0 {
		<-advances
	}
	seq, err := n.Send([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := n.WaitFor(ctx, seq, "all"); err != nil {
		t.Fatal(err)
	}
	// The frontier advanced to seq (WaitFor returned), yet the canceled
	// hook saw nothing.
	if len(advances) != 0 {
		t.Fatal("canceled OnFrontierAdvance hook still firing")
	}

	// Peer hooks: canceled before the transport could ever fire them.
	n.OnPeer(nil)() // nil fn: no-op cancel must not panic
	peerCancel := n.OnPeer(func(int, bool) { t.Error("canceled OnPeer fired") })
	peerCancel()
	peerCancel()
}

func TestStartAdaptiveLifecycle(t *testing.T) {
	c := startCluster(t, flatTopology(3), nil)
	n := c.nodes[0]
	ladder := mustLadder(t,
		adaptive.Rung{Name: "all", Source: "MIN($ALLWNODES)"},
		adaptive.Rung{Name: "majority", Source: "KTH_MAX(2, $ALLWNODES)"},
	)
	// Long windows: this test exercises wiring, not control decisions.
	cfg := adaptive.Config{Target: time.Second}

	// A rung that does not compile fails up front.
	bad := mustLadder(t,
		adaptive.Rung{Name: "ok", Source: "MIN($ALLWNODES)"},
		adaptive.Rung{Name: "broken", Source: "MIN("},
	)
	if _, err := n.StartAdaptive("stable", bad, cfg); err == nil {
		t.Fatal("ladder with a broken rung accepted")
	}

	// The refused ladder left no controller behind to hold the key.
	ctrl, err := n.StartAdaptive("stable", ladder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := n.Explain("stable"); err != nil || v.Source != "MIN($ALLWNODES)" {
		t.Fatalf("rung 0 not installed: %q, %v", v.Source, err)
	}
	if ctrl.RungIndex() != 0 {
		t.Fatalf("initial rung %d", ctrl.RungIndex())
	}

	// One controller per key.
	if _, err := n.StartAdaptive("stable", ladder, cfg); err == nil {
		t.Fatal("second controller for the same key accepted")
	}
	// Reserved key rejected.
	if _, err := n.StartAdaptive(ReclaimPredicateKey, ladder, cfg); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("reserved key error = %v", err)
	}

	// The adaptive predicate behaves like any registered predicate.
	seq, err := n.Send([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := n.WaitFor(ctx, seq, "stable"); err != nil {
		t.Fatalf("WaitFor on the adaptive predicate: %v", err)
	}

	// Node close stops the controller (idempotent with ctrl.Close).
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	ctrl.Close()
}
