package filebackup

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/predlib"
	"stabilizer/internal/testbed"
	"stabilizer/internal/transport"
	"stabilizer/internal/wankv"
)

type env struct {
	stores []*wankv.Store
	svc    *Service
}

func startBackupCluster(t *testing.T, opts ...Option) *env {
	t.Helper()
	bed, err := testbed.Boot(core.Config{Topology: config.EC2Topology(1)},
		testbed.Fabric{Matrix: emunet.EC2Matrix(), TimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bed.Close() })
	e := &env{}
	for _, n := range bed.Nodes() {
		e.stores = append(e.stores, wankv.New(n))
	}
	e.svc = New(e.stores[0], opts...)
	if err := e.svc.RegisterTableIII(); err != nil {
		t.Fatalf("register table III: %v", err)
	}
	if err := e.stores[0].RegisterPredicate("alldel", "MIN(($ALLWNODES-$MYWNODE).delivered)"); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBackupAndRestoreRoundTrip(t *testing.T) {
	e := startBackupCluster(t)
	data := make([]byte, 100<<10) // 100 KB = 13 chunks
	rand.New(rand.NewSource(1)).Read(data)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := e.svc.BackupWait(ctx, "report.pdf", data, predlib.AllWNodesKey)
	if err != nil {
		t.Fatalf("backup: %v", err)
	}
	if res.Chunks != 13 || res.Bytes != len(data) {
		t.Fatalf("result = %+v", res)
	}
	if res.LastSeq-res.FirstSeq != 13 { // 13 chunks + manifest - 1
		t.Fatalf("seq span = %d..%d", res.FirstSeq, res.LastSeq)
	}
	if err := e.svc.Wait(ctx, res, "alldel"); err != nil {
		t.Fatal(err)
	}

	// Restore locally and from a remote mirror.
	local, err := e.svc.Restore(1, "report.pdf")
	if err != nil || !bytes.Equal(local, data) {
		t.Fatalf("local restore: %v (match=%v)", err, bytes.Equal(local, data))
	}
	remoteSvc := New(e.stores[7]) // Ohio
	remote, err := remoteSvc.Restore(1, "report.pdf")
	if err != nil || !bytes.Equal(remote, data) {
		t.Fatalf("remote restore: %v (match=%v)", err, bytes.Equal(remote, data))
	}
}

func TestBackupEmptyFile(t *testing.T) {
	e := startBackupCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := e.svc.BackupWait(ctx, "empty", nil, predlib.OneWNodeKey)
	if err != nil {
		t.Fatalf("backup empty: %v", err)
	}
	if res.Chunks != 1 || res.Bytes != 0 {
		t.Fatalf("result = %+v", res)
	}
	if err := e.svc.Wait(ctx, res, "alldel"); err != nil {
		t.Fatal(err)
	}
	got, err := e.svc.Restore(1, "empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("restore empty = %d bytes, %v", len(got), err)
	}
}

func TestBackupExactChunkBoundary(t *testing.T) {
	e := startBackupCluster(t)
	data := make([]byte, 2*DefaultChunkSize)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := e.svc.BackupWait(ctx, "boundary", data, predlib.OneWNodeKey)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 2 {
		t.Fatalf("chunks = %d, want 2 (no empty trailing chunk)", res.Chunks)
	}
	if err := e.svc.Wait(ctx, res, "alldel"); err != nil {
		t.Fatal(err)
	}
	got, err := e.svc.Restore(1, "boundary")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restore: %v", err)
	}
}

func TestCustomChunkSize(t *testing.T) {
	e := startBackupCluster(t, WithChunkSize(1024))
	data := make([]byte, 4096+1)
	res, err := e.svc.Backup("tiny-chunks", data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 5 {
		t.Fatalf("chunks = %d, want 5", res.Chunks)
	}
}

func TestRestoreMissingFile(t *testing.T) {
	e := startBackupCluster(t)
	if _, err := e.svc.Restore(1, "never-backed-up"); !errors.Is(err, ErrNotBackedUp) {
		t.Fatalf("err = %v, want ErrNotBackedUp", err)
	}
}

func TestSLAOrderingWeakBeforeStrong(t *testing.T) {
	e := startBackupCluster(t)
	data := make([]byte, 64<<10)
	res, err := e.svc.Backup("sla-test", data)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Frontier values must be ordered weak ≥ strong at all times once
	// AllWNodes is satisfied.
	if err := e.svc.Wait(ctx, res, predlib.AllWNodesKey); err != nil {
		t.Fatal(err)
	}
	strongest, _ := e.svc.Frontier(predlib.AllWNodesKey)
	for _, weaker := range []string{predlib.OneWNodeKey, predlib.OneRegionKey, predlib.MajorityRegionsKey, predlib.MajorityWNodesKey} {
		f, err := e.svc.Frontier(weaker)
		if err != nil {
			t.Fatal(err)
		}
		if f < strongest {
			t.Fatalf("%s frontier %d below AllWNodes %d", weaker, f, strongest)
		}
	}
}

func TestChangePredicatePlumbing(t *testing.T) {
	e := startBackupCluster(t)
	if err := e.svc.ChangePredicate(predlib.AllWNodesKey, "MIN($ALLWNODES-$MYWNODE-$8)"); err != nil {
		t.Fatalf("change predicate: %v", err)
	}
	if err := e.svc.ChangePredicate("unknown-key", "MIN($1)"); err == nil {
		t.Fatal("changing unknown predicate succeeded")
	}
}

// TestBackupShedsUnderBackpressure pins the bounded-memory contract: against
// a send-log cap, an oversized backup that will not wait (its context is
// already done) surfaces ErrBackpressure through wankv.PutCtx and
// the aborted backup stays invisible to Restore (the manifest is written
// last), so shedding never leaves a corrupt file.
func TestBackupShedsUnderBackpressure(t *testing.T) {
	topo := config.EC2Topology(1)
	network := emunet.NewMemNetwork(nil)
	var nodes []*core.Node
	var stores []*wankv.Store
	for i := 1; i <= topo.N(); i++ {
		n, err := core.Open(core.Config{
			Topology: topo.WithSelf(i),
			Network:  network,
			Flow:     transport.FlowConfig{MaxBytes: 16 << 10},
			// Keep the log pinned so the test is deterministic: nothing
			// ever truncates, the cap must trip.
			DisableAutoReclaim: true,
		})
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		nodes = append(nodes, n)
		stores = append(stores, wankv.New(n))
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
		_ = network.Close()
	})
	svc := New(stores[0])

	// 64 KB of chunks against a 16 KB cap: some chunk put must shed.
	data := make([]byte, 64<<10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.BackupCtx(ctx, "too-big", data)
	if !errors.Is(err, transport.ErrBackpressure) || !errors.Is(err, context.Canceled) {
		t.Fatalf("oversized backup: err=%v, want ErrBackpressure wrapping context.Canceled", err)
	}
	if _, err := svc.Restore(1, "too-big"); !errors.Is(err, ErrNotBackedUp) {
		t.Fatalf("aborted backup visible to restore: err=%v, want ErrNotBackedUp", err)
	}
}
