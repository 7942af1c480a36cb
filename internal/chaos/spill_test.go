package chaos

import (
	"os"
	"testing"
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/transport"
)

// spillSoakOptions is invariant 9's cluster configuration: spilling send
// logs with a small memory cap, auto-reclaim on (so bounded memory is a
// live claim, not an artifact of never truncating), crash_restart excluded
// (reclaim requirement), and one backlog_partition that isolates a receiver
// until the senders' backlog — almost all of it on disk — crosses the
// threshold. Senders pump deterministic seq-derived payloads so every
// delivery is checked byte-for-byte against ground truth.
func spillSoakOptions(seed int64, dir string) Options {
	var kinds []faultinject.Kind
	for _, k := range faultinject.AllKinds() {
		if k != faultinject.KindCrashRestart {
			kinds = append(kinds, k)
		}
	}
	return Options{
		Seed:  seed,
		Kinds: kinds,
		Cluster: core.Config{Flow: transport.FlowConfig{
			MaxBytes: 64 << 10,
			SpillDir: dir,
		}},
		AutoReclaim:  true,
		PayloadBytes: 4 << 10,
		SendEvery:    time.Millisecond,
		BacklogFault: 2 << 20,
		Horizon:      2 * time.Second,
	}
}

// TestChaosSoakSpill is chaos invariant 9 end to end: under a seeded
// schedule whose centerpiece is a backlog-driven partition (the "day-long
// region outage" measured in bytes, not wall time), every node's in-memory
// send tier stays under the cap while the true backlog grows far past it
// onto disk, and after the heal every peer's delivered stream is gap-free
// FIFO and byte-identical to ground truth — invariants 1-8 still ride the
// same run. The full profile (STABILIZER_CHAOS_FULL=1) pushes the backlog
// past 1 GiB before healing; -short keeps the same shape at a few MiB.
func TestChaosSoakSpill(t *testing.T) {
	seed := soakSeed(t)
	o := spillSoakOptions(seed, t.TempDir())
	o.Logf = t.Logf
	switch {
	case os.Getenv("STABILIZER_CHAOS_FULL") != "":
		// 1 GiB of backlog needs a fat pump and a fat post-heal drain:
		// 64 KiB payloads every ms from two senders accumulate ~128 MB/s,
		// and a 4 Gbps fabric drains the gigabyte within the timeout.
		o.PayloadBytes = 64 << 10
		o.BacklogFault = 1 << 30
		o.Horizon = 30 * time.Second
		o.BandwidthBps = emunet.Mbps(4000)
		o.DrainTimeout = 180 * time.Second
	case testing.Short():
		o.Horizon = 1500 * time.Millisecond
		o.BacklogFault = 1 << 20
	}
	rep, err := Soak(o)
	if err != nil {
		if rep != nil {
			t.Logf("schedule (fingerprint %s):\n%s", rep.Schedule.Fingerprint(), rep.Schedule)
		}
		failSeeded(t, "spill soak", seed, err)
	}
	last := rep.Schedule.Events[len(rep.Schedule.Events)-1]
	if last.Kind != faultinject.KindBacklogPartition || last.Bytes != o.BacklogFault {
		t.Fatalf("seed %d: schedule missing the backlog partition event:\n%s", seed, rep.Schedule)
	}
	// A spill soak that never spilled proves nothing: require the disk
	// tier to have held more than the entire memory cap, and the post-heal
	// drain to have actually read segments back.
	if rep.PeakSpilledBytes <= o.Cluster.Flow.MaxBytes {
		t.Fatalf("seed %d: peak spill %d never meaningfully exceeded the %d memory cap — invariant 9 unexercised",
			seed, rep.PeakSpilledBytes, o.Cluster.Flow.MaxBytes)
	}
	if rep.SpillReadbackBytes == 0 {
		t.Fatalf("seed %d: backlog converged but no bytes were read back from disk", seed)
	}
	t.Logf("spill soak passed: seed=%d fingerprint=%s heads=%v deliveries=%d peakSpill=%d readback=%d",
		seed, rep.Schedule.Fingerprint(), rep.Heads, rep.Deliveries, rep.PeakSpilledBytes, rep.SpillReadbackBytes)
}
