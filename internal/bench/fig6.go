package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/emunet"
	"stabilizer/internal/filebackup"
	"stabilizer/internal/paxos"
	"stabilizer/internal/predlib"
	"stabilizer/internal/wankv"
)

// Fig6Point is one file-size row: per-consistency-model sync time.
type Fig6Point struct {
	FileBytes int
	// Times maps model name ("MajorityRegions", "MajorityWNodes",
	// "OneWNode", "PhxPaxos") to completion time.
	Times map[string]time.Duration
}

// Fig6Result reproduces Fig. 6 plus the paper's headline number: the
// average end-to-end improvement of MajorityRegions over Paxos.
type Fig6Result struct {
	Points []Fig6Point
	// ImprovementOverPaxos is the mean of
	// (paxos - majorityRegions)/paxos across file sizes (paper: 24.75%).
	ImprovementOverPaxos float64
	// PaxosVsMajorityWNodes is the mean relative gap between Paxos and
	// MajorityWNodes (paper: the two curves mostly overlap, so ~0).
	PaxosVsMajorityWNodes float64
	// PerSizeImprovement maps file size to that row's
	// (paxos - majorityRegions)/paxos.
	PerSizeImprovement map[int]float64
}

// fig6Predicates are the consistency models measured in Fig. 6.
var fig6Predicates = []string{
	predlib.MajorityRegionsKey,
	predlib.MajorityWNodesKey,
	predlib.OneWNodeKey,
}

// Fig6 runs the file-based experiment (§VI-B): one file at a time is
// synchronized from node 1 of the Fig. 2 EC2 topology, and we record the
// time until the chosen consistency model is satisfied — for three
// Stabilizer predicates and for a pipelined Multi-Paxos baseline whose
// topology-indifferent majority rule must wait for the ⌈(N+1)/2⌉-th
// fastest acknowledgment. Expected shape: Paxos ≈ MajorityWNodes (curves
// overlap), both slower than MajorityRegions, with the gap growing with
// file size; OneWNode is fastest.
func Fig6(opts Options) (*Fig6Result, error) {
	opts = opts.normalized()
	topo := config.EC2Topology(1)
	c, err := startCluster(topo, emunet.EC2Matrix(), opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	sender := c.Node(1)
	svc := filebackup.New(wankv.New(sender))
	if err := svc.RegisterTableIII(); err != nil {
		return nil, err
	}
	// Receivers run no K/V mirror: both systems are measured on their
	// network-level acknowledgment rule ("received" acks vs paxos
	// accepted watermarks), keeping the comparison symmetric.

	// Paxos baseline over the same emulated WAN. Applied entries are
	// discarded to bound memory during the 100 MB runs (PhxPaxos-style
	// deployments rely on application snapshots the same way).
	replicas := make([]*paxos.Replica, topo.N())
	for i := 1; i <= topo.N(); i++ {
		replicas[i-1] = paxos.NewReplica(paxos.NewCoreBus(c.Node(i)), paxos.WithDiscardApplied())
	}
	leader := replicas[0]
	campCtx, campCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer campCancel()
	if err := leader.Campaign(campCtx); err != nil {
		return nil, fmt.Errorf("bench: paxos campaign: %w", err)
	}

	sizes := []int{1 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20, 100 << 20}
	repeats := 3
	if opts.Short {
		sizes = []int{1 << 10, 100 << 10, 1 << 20}
		repeats = 1
	}

	res := &Fig6Result{PerSizeImprovement: make(map[int]float64, len(sizes))}
	rng := rand.New(rand.NewSource(6))
	fmt.Fprintln(opts.Out, "Fig. 6 — file synchronization completion time (ms)")
	fmt.Fprintf(opts.Out, "%12s %16s %16s %16s %16s %9s\n",
		"size(B)", "MajorityRegions", "MajorityWNodes", "OneWNode", "PhxPaxos", "MR-gain")

	var sumImp, sumWNodeGap float64
	for si, size := range sizes {
		point := Fig6Point{FileBytes: size, Times: make(map[string]time.Duration)}
		data := randomBytes(rng, size)

		for rep := 0; rep < repeats; rep++ {
			// Stabilizer: one backup, all predicate times from the
			// same send via concurrent waiters.
			times, err := measureBackup(opts, svc, fmt.Sprintf("f6-%d-%d", si, rep), data)
			if err != nil {
				return nil, err
			}
			for p, d := range times {
				point.Times[p] += d
			}
			// Paxos: pipeline the same chunks, time the last commit.
			d, err := measurePaxos(opts, leader, data)
			if err != nil {
				return nil, err
			}
			point.Times["PhxPaxos"] += d
		}
		for p := range point.Times {
			point.Times[p] /= time.Duration(repeats)
		}
		res.Points = append(res.Points, point)

		px := point.Times["PhxPaxos"].Seconds()
		mr := point.Times[predlib.MajorityRegionsKey].Seconds()
		mw := point.Times[predlib.MajorityWNodesKey].Seconds()
		var imp float64
		if px > 0 {
			imp = (px - mr) / px
			sumImp += imp
			sumWNodeGap += (px - mw) / px
		}
		res.PerSizeImprovement[size] = imp
		fmt.Fprintf(opts.Out, "%12d %16s %16s %16s %16s %8.1f%%\n",
			size,
			ms(point.Times[predlib.MajorityRegionsKey]),
			ms(point.Times[predlib.MajorityWNodesKey]),
			ms(point.Times[predlib.OneWNodeKey]),
			ms(point.Times["PhxPaxos"]),
			imp*100)
	}
	res.ImprovementOverPaxos = sumImp / float64(len(sizes))
	res.PaxosVsMajorityWNodes = sumWNodeGap / float64(len(sizes))
	fmt.Fprintf(opts.Out, "MajorityRegions improvement over Paxos: %.2f%% (paper: 24.75%%)\n",
		res.ImprovementOverPaxos*100)
	fmt.Fprintf(opts.Out, "Paxos vs MajorityWNodes gap: %.2f%% (paper: curves overlap)\n",
		res.PaxosVsMajorityWNodes*100)
	return res, nil
}

// measureBackup backs a file up once and measures, concurrently, the time
// until each Fig. 6 predicate is satisfied.
func measureBackup(opts Options, svc *filebackup.Service, name string, data []byte) (map[string]time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	start := time.Now()
	bres, err := svc.Backup(name, data)
	if err != nil {
		return nil, fmt.Errorf("bench: backup: %w", err)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  = make(map[string]time.Duration, len(fig6Predicates))
		werr error
	)
	for _, p := range fig6Predicates {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := svc.Wait(ctx, bres, p); err != nil {
				mu.Lock()
				if werr == nil {
					werr = fmt.Errorf("bench: wait %s: %w", p, err)
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			out[p] = opts.rescale(time.Since(start))
			mu.Unlock()
		}()
	}
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	return out, nil
}

// measurePaxos replicates the file's 8 KB chunks through the paxos log and
// measures the time until the final chunk commits.
func measurePaxos(opts Options, leader *paxos.Replica, data []byte) (time.Duration, error) {
	const chunk = filebackup.DefaultChunkSize
	start := time.Now()
	var last <-chan error
	for lo := 0; lo < len(data); lo += chunk {
		hi := lo + chunk
		if hi > len(data) {
			hi = len(data)
		}
		_, done, err := leader.ProposeAsync(data[lo:hi])
		if err != nil {
			return 0, fmt.Errorf("bench: paxos propose: %w", err)
		}
		last = done
	}
	if last == nil {
		return 0, nil
	}
	select {
	case err := <-last:
		if err != nil {
			return 0, fmt.Errorf("bench: paxos commit: %w", err)
		}
	case <-time.After(10 * time.Minute):
		return 0, fmt.Errorf("bench: paxos commit timed out")
	}
	return opts.rescale(time.Since(start)), nil
}
