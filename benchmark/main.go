// Command benchmark is the repository's end-to-end benchmark: what a caller
// of the stabilizer facade sees (Send → WaitFor over the EC2 WAN, streams
// and a K/V store on a saturated LAN), with per-layer probes, counts and a
// traced phase that say where the time goes. See README.md.
//
// With -workload it runs one workload and ends its standard output with one
// JSON object, the form BENCHMARK.json's consumers read. Without, it runs
// all four and prints every metric by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Every set-up idles for settle after boot (one default heartbeat period, so
// each link has a round-trip sample to size its batches from) and then runs
// the workload unmeasured for warmup. On the reference box a cluster that
// has just been idle runs at about half speed for most of a second; the
// warm-up is there to keep that out of the measurement.
const (
	settle = 500 * time.Millisecond
	warmup = time.Second
)

// setUps is how many times a run sets a cluster up before it measures on
// the last one; setup_s is the median. tracedPhase is how long each workload
// runs with the flight recorder on when the whole set is run.
const (
	setUps      = 3
	tracedPhase = 10 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload and end with its result as one JSON line")
		seed    = fs.Int64("seed", 1, "seed for payload bytes and key order")
		seconds = fs.Float64("seconds", 30, "length of each workload's measured phase")
		trace   = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics; 1 reports the per-layer metrics, splitting -seconds between an untraced and a traced phase")
		aa      = fs.Bool("aa", false, "run the whole set twice and exit non-zero if an end-to-end metric differs by more than its bound")
		smoke   = fs.Bool("smoke", false, "one second per phase and probes at 1/100 of their iterations: checks the benchmark, measures nothing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	root, err := locate()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	man, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	opt := options{seed: *seed, traced: tracedPhase, settle: settle, warmup: warmup, probeScale: 1,
		outDir: filepath.Join(root, "benchmark", "out")}
	if *smoke {
		*seconds, opt.traced = 1, time.Second
		opt.settle, opt.warmup, opt.probeScale = 100*time.Millisecond, 200*time.Millisecond, 100
	}
	measured := time.Duration(*seconds * float64(time.Second))

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		return runOne(stdout, stderr, man, w, opt, measured, *trace == 1)
	}

	opt.untraced = measured
	first, probes, ok := runSet(stdout, stderr, man, opt)
	if *aa && first != nil {
		second, probes2, ok2 := runSet(stdout, stderr, man, opt)
		if second == nil {
			return 1
		}
		agree := compareSets(stdout, man, first, second, probes, probes2)
		ok = ok && ok2 && agree
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne is single-workload mode. The last line of stdout is the result.
func runOne(stdout, stderr io.Writer, man *manifest, w *workload, opt options, seconds time.Duration, layers bool) int {
	specs := man.EndToEnd
	var probes map[string]float64
	if layers {
		specs = man.PerLayer
		// The per-layer run measures twice, once with the flight recorder
		// off (counts, call timings, the figure tracing overhead is read
		// against) and once with it on, within the same -seconds.
		opt.untraced, opt.traced = seconds/2, seconds/2
		var err error
		if probes, err = runProbes(opt.probeScale); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	} else {
		opt.untraced, opt.traced = seconds, 0
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResult(stdout, res, man, probes)
	if err := writeResult(opt.outDir, opt.seed, res, man, probes); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	values := res.e2e
	if layers {
		values = res.layer
	}
	line, err := contract(res, specs, values, probes)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.correct() {
		return 1
	}
	return 0
}

// runSet runs the probes and all four workloads once. results is nil when
// something could not run at all; ok is false when any output check failed.
func runSet(stdout, stderr io.Writer, man *manifest, opt options) (results []*result, probes map[string]float64, ok bool) {
	probes, err := runProbes(opt.probeScale)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return nil, nil, false
	}
	fmt.Fprintf(stdout, "seed %d, %v measured + %v traced per workload\n", opt.seed, opt.untraced, opt.traced)
	fmt.Fprintln(stdout, "layer probes:")
	for _, s := range man.PerLayer {
		if v, found := probes[s.Name]; found {
			fmt.Fprintf(stdout, "  %-44s %14.4f %s\n", s.Name, v, s.Unit)
		}
	}
	ok = true
	for _, w := range workloads {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return nil, nil, false
		}
		printResult(stdout, res, man, nil)
		if err := writeResult(opt.outDir, opt.seed, res, man, probes); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return nil, nil, false
		}
		for _, check := range []struct {
			specs  []metricSpec
			values []map[string]float64
		}{{man.EndToEnd, []map[string]float64{res.e2e}}, {man.PerLayer, []map[string]float64{res.layer, probes}}} {
			if _, err := contract(res, check.specs, check.values...); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				ok = false
			}
		}
		ok = ok && res.correct()
		results = append(results, res)
	}
	return results, probes, ok
}
