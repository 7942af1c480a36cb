package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/metrics"
	"stabilizer/internal/transport"
)

// startFlowCluster is startCluster with admission control engaged and an
// optional fault injector wired into the fabric's dial path.
func startFlowCluster(t *testing.T, n int, inj *faultinject.Injector, cfg func(c *Config)) *cluster {
	t.Helper()
	topo := flatTopology(n)
	c := &cluster{net: emunet.NewMemNetwork(nil), metrics: metrics.NewRegistry()}
	if inj != nil {
		c.net.SetConnHook(inj.Hook())
	}
	for i := 1; i <= n; i++ {
		conf := Config{
			Topology:       topo.WithSelf(i),
			Network:        c.net,
			HeartbeatEvery: 10 * time.Millisecond,
			Metrics:        c.metrics,
		}
		if cfg != nil {
			cfg(&conf)
		}
		node, err := Open(conf)
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range c.nodes {
			_ = node.Close()
		}
		if inj != nil {
			inj.Close()
		}
		_ = c.net.Close()
	})
	return c
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSendBlocksAtCapResumesAfterHeal is the end-to-end admission story: a
// blackholed peer stops acking, auto-reclaim stalls, the bounded send log
// fills, Send blocks — and healing the link drains the backlog, truncates,
// and lets the blocked send complete.
func TestSendBlocksAtCapResumesAfterHeal(t *testing.T) {
	inj := faultinject.New(nil)
	c := startFlowCluster(t, 3, inj, func(conf *Config) {
		conf.Flow = transport.FlowConfig{MaxBytes: 2 << 10}
	})
	sender := c.nodes[0]

	// Warm up: make sure every link is live before cutting one, so the
	// heal path exercises gate release on an established connection
	// rather than a fresh redial.
	if _, err := sender.Send([]byte("warmup")); err != nil {
		t.Fatalf("warmup send: %v", err)
	}
	waitUntil(t, 5*time.Second, "warmup delivery", func() bool {
		return c.nodes[1].Snapshot().RecvLast[1] >= 1 && c.nodes[2].Snapshot().RecvLast[1] >= 1
	})

	inj.Blackhole(1, 3)

	const total = 12
	payload := make([]byte, 256)
	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if _, err := sender.SendCtx(context.Background(), payload); err != nil {
				done <- fmt.Errorf("send %d: %w", i, err)
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()

	// The cap is 8 payloads; with node 3 dark the reclaim frontier pins
	// and the pump must wedge before finishing.
	waitUntil(t, 5*time.Second, "send to block at the cap", func() bool {
		return sender.Snapshot().Log.BlockedAppends >= 1
	})
	if got := sent.Load(); got >= total {
		t.Fatalf("all %d sends completed through a full log", got)
	}
	if log := sender.Snapshot().Log; !log.Full {
		t.Fatalf("send log not backpressured while blocked: %+v", log)
	}
	// The verdict on reclaim must name exactly the blackholed peer.
	waitUntil(t, 5*time.Second, "reclaim held by peer 3", func() bool {
		v, err := sender.Explain(ReclaimPredicateKey)
		return err == nil && v.Stuck > 0 && len(v.Holding) == 1 && v.Holding[0].Peer == 3
	})

	inj.HealBlackhole(1, 3)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pump after heal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("pump never resumed after heal (sent %d/%d)", sent.Load(), total)
	}

	// Everyone converges and the latch clears once reclaim catches up.
	head := sender.Snapshot().Log.Head
	waitUntil(t, 10*time.Second, "receivers to drain", func() bool {
		return c.nodes[1].Snapshot().RecvLast[1] >= head && c.nodes[2].Snapshot().RecvLast[1] >= head
	})
	waitUntil(t, 10*time.Second, "backpressure to clear", func() bool {
		return !sender.Snapshot().Log.Full
	})
	waitUntil(t, 5*time.Second, "reclaim to hold nothing", func() bool {
		v, err := sender.Explain(ReclaimPredicateKey)
		return err == nil && v.Stuck == 0 && len(v.Holding) == 0
	})
}

// fillSendLog starts a 2-node cluster whose sender's 2 KiB log nothing ever
// truncates and fills it to the cap with SendCtx(ctx) calls (nil is Send).
func fillSendLog(t *testing.T, ctx context.Context) (c *cluster, payload []byte) {
	t.Helper()
	c = startFlowCluster(t, 2, nil, func(conf *Config) {
		conf.Flow = transport.FlowConfig{MaxBytes: 2 << 10}
		conf.DisableAutoReclaim = true
	})
	sender := c.nodes[0]
	payload = make([]byte, 256)
	for i := 0; i < 8; i++ {
		if _, err := sender.SendCtx(ctx, payload); err != nil {
			t.Fatalf("send %d under cap: %v", i, err)
		}
	}
	return c, payload
}

// TestSendCtxDoneContextShedsAtCap pins the no-patience end of the admission
// contract: a SendCtx whose context is already done is refused at the cap
// without waiting — the error is both ErrBackpressure and the context's —
// while below the cap the same context is never consulted.
func TestSendCtxDoneContextShedsAtCap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, payload := fillSendLog(t, ctx) // below the cap a done context sends
	sender := c.nodes[0]
	// The caller stays unblocked: every attempt at the cap fails at once
	// rather than queueing.
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err := sender.SendCtx(ctx, payload)
		if !errors.Is(err, transport.ErrBackpressure) || !errors.Is(err, context.Canceled) {
			t.Fatalf("send %d at cap: err=%v, want ErrBackpressure wrapping context.Canceled", i, err)
		}
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Fatalf("send with a done context took %v", el)
		}
	}
	log := sender.Snapshot().Log
	if log.ShedAppends != 2 || log.BlockedAppends != 0 || !log.Full {
		t.Fatalf("send log after two sheds: %+v", log)
	}
}

// TestSendCtxEndsWaitWithContext pins the bounded-patience middle: a SendCtx
// parked on a full log returns promptly once its context ends — cancelled or
// past its deadline — with an error that is both ErrBackpressure and the
// context's, counted as blocked and shed.
func TestSendCtxEndsWaitWithContext(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ctx   func() (context.Context, context.CancelFunc)
		cause error
	}{
		{"cancel", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }, context.Canceled},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, payload := fillSendLog(t, nil)
			sender := c.nodes[0]
			ctx, cancel := tc.ctx()
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := sender.SendCtx(ctx, payload)
				done <- err
			}()
			waitUntil(t, 5*time.Second, "send to block", func() bool {
				return sender.Snapshot().Log.BlockedAppends >= 1
			})
			start := time.Now()
			if tc.cause == context.Canceled {
				cancel()
			}
			select {
			case err := <-done:
				if !errors.Is(err, tc.cause) || !errors.Is(err, transport.ErrBackpressure) {
					t.Fatalf("send: err=%v, want ErrBackpressure wrapping %v", err, tc.cause)
				}
			case <-time.After(time.Second):
				t.Fatal("blocked send ignored its context")
			}
			if el := time.Since(start); el > 200*time.Millisecond {
				t.Fatalf("send returned %v after its context ended, want prompt", el)
			}
			log := sender.Snapshot().Log
			if log.ShedAppends != 1 || log.BlockedAppends != 1 {
				t.Fatalf("send log after the wait ended: %+v", log)
			}
			// The snapshot's counts are the registry's: one counter each.
			bp := c.metrics.NodeGroup("1").CounterVec("stabilizer_transport_backpressure_total", "", "outcome")
			if b, s := bp.With("blocked").Value(), bp.With("shed").Value(); b != 1 || s != 1 {
				t.Fatalf("stabilizer_transport_backpressure_total = blocked %d, shed %d, want 1 and 1", b, s)
			}
		})
	}
}
