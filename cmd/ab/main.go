// Command ab times the working tree against a parent commit on the
// repository's benchmark: make ab PARENT=<ref> [PAIRS=10] [AA=6] [WORKLOADS=a,b].
//
// The parent is exported with git archive into .ab/<sha>/. Each side is built
// by its own benchmark/run.sh and run from its own root at BENCHMARK.json's
// run_seconds: per workload, PAIRS parent/change pairs, then AA parent/parent
// pairs, the sides taking turns at running first, each pair on a seed above
// every seed LEDGER.json records as used. It prints one row per workload, set
// and end-to-end metric and appends every run to LEDGER.json as one record.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

// record is one entry of LEDGER.json. Seeds holds inclusive ranges of the
// seeds it used; the seed draw reads nothing else of earlier records.
type record struct {
	Commit  string     `json:"commit"`
	Dirty   bool       `json:"dirty,omitempty"` // the working tree differed from commit
	Parent  string     `json:"parent"`
	Date    string     `json:"date"`
	Host    string     `json:"host"`
	Seconds int        `json:"run_seconds"`
	Seeds   [][2]int64 `json:"seeds"`
	Runs    []sample   `json:"runs"`
}

// sample is one run: the benchmark's result line and the host's steal.
type sample struct {
	Workload string  `json:"workload"`
	Set      string  `json:"set"`  // "ab" or "aa"
	Side     string  `json:"side"` // "parent", "change", or "parent2" in an A/A pair
	Seed     int64   `json:"seed"`
	Steal    float64 `json:"steal_pct"`
	Correct  bool    `json:"correct"`
	Attempt  int     `json:"attempted"`
	Failed   int     `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type spec struct {
	Name, Better string
	Bound        float64
}

const bin = ".bench_build/stabilizer-benchmark" // where run.sh builds, below its root

func run(args []string) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	ref := fs.String("parent", "", "the commit the working tree is timed against")
	pairs := fs.Int("pairs", 10, "parent/change pairs per workload")
	aa := fs.Int("aa", 6, "parent/parent pairs per workload")
	only := fs.String("workloads", "", "comma-separated workloads (default: all of BENCHMARK.json's)")
	if err := fs.Parse(args); err != nil || *ref == "" || *pairs < 1 || *aa < 0 {
		return fmt.Errorf("-parent is required, -pairs must be positive and -aa not negative (%v)", err)
	}
	out, err := sh("", `git rev-parse --show-toplevel HEAD "$1^{commit}"`, *ref)
	if err != nil {
		return err
	}
	refs := strings.Split(out, "\n")
	root, head, sha := refs[0], refs[1], refs[2]
	if _, err := sh(root, `git diff --quiet "$1" -- benchmark BENCHMARK.json &&
		test -z "$(git ls-files --others --exclude-standard benchmark)"`, sha); err != nil {
		return fmt.Errorf("benchmark/ or BENCHMARK.json differs between %s and the working tree: a pair must time one benchmark", *ref)
	}
	_, dirty := sh(root, "git diff --quiet HEAD")
	var man struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []spec `json:"end_to_end"`
	}
	var used []struct{ Seeds [][2]int64 }
	ledger := filepath.Join(root, "LEDGER.json")
	raw, err := os.ReadFile(ledger)
	manRaw, merr := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err = errors.Join(err, merr, json.Unmarshal(raw, &used), json.Unmarshal(manRaw, &man)); err != nil {
		return fmt.Errorf("reading LEDGER.json and BENCHMARK.json: %w", err)
	}
	workloads := strings.Split(*only, ",")
	if *only == "" {
		workloads = workloads[:0]
		for _, w := range man.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	seed := int64(1)
	for _, r := range used {
		for _, s := range r.Seeds {
			seed = max(seed, s[1]+1)
		}
	}
	// The parent's tree is exported once and kept. Each side's run.sh builds
	// its binary anew, which then stops at -h.
	sides := [3]string{filepath.Join(root, ".ab", sha), root, filepath.Join(root, ".ab", sha)}
	if _, err := sh(root, `test -d "$1" || { rm -rf "$1.tmp" && mkdir -p "$1.tmp" && git archive "$2" | tar -x -C "$1.tmp" &&
		mv "$1.tmp" "$1"; } || exit; for d in "$1" .; do (cd "$d" && rm -f "$3" && bash benchmark/run.sh -h; test -x "$d/$3") || exit; done`,
		sides[0], sha, bin); err != nil {
		return err
	}
	rec := record{Commit: head, Dirty: dirty != nil, Parent: sha, Date: time.Now().UTC().Format(time.RFC3339),
		Host:    fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Seconds: man.RunSeconds, Seeds: [][2]int64{{seed, seed + int64(len(workloads)*(*pairs+*aa)) - 1}}}
	fmt.Println("workload         set metric                parent      q3-q1       change  change  wins/ties pairs   failed      steal %   verdict")
	err = measure(&rec, workloads, *pairs, *aa, sides, man.EndToEnd)
	return errors.Join(err, appendRecord(ledger, raw, &rec))
}

// measure runs each workload's pairs into rec from rec's first seed on, the
// parent first in even pairs: sides[0] against sides[1], then against
// sides[2] in the A/A pairs, and reports each set as it ends. It stops at a
// run with no result line; a run that failed its checks has one, exits
// non-zero and is recorded as it reads.
func measure(rec *record, workloads []string, pairs, aa int, sides [3]string, specs []spec) error {
	seed := rec.Seeds[0][0]
	for _, w := range workloads {
		for set, n := range [2]int{pairs, aa} {
			var runs [2][]sample // the parent's and the other side's, pair by pair
			for i := 0; i < n; i, seed = i+1, seed+1 {
				for j := 0; j < 2; j++ {
					k := (i + j) % 2 // 0: the parent, 1: the other side
					side := k * (set + 1)
					cmd := exec.Command(filepath.Join(sides[side], bin), "-workload", w, "-seed", strconv.FormatInt(seed, 10),
						"-seconds", strconv.Itoa(rec.Seconds), "-trace", "0")
					cmd.Dir, cmd.Stderr = sides[side], os.Stderr
					total0, steal0 := cpuTimes()
					out, runErr := cmd.Output()
					total1, steal1 := cpuTimes()
					smp := sample{Workload: w, Set: []string{"ab", "aa"}[set], Side: []string{"parent", "change", "parent2"}[side],
						Seed: seed, Steal: 100 * float64(steal1-steal0) / math.Max(1, float64(total1-total0))}
					last := out[bytes.LastIndexByte(bytes.TrimSpace(out), '\n')+1:]
					if err := json.Unmarshal(last, &smp); err != nil || len(smp.Metrics) == 0 {
						return fmt.Errorf("%s, %s, seed %d: no result line (%v; exit: %v): %q", smp.Side, w, seed, err, runErr, last)
					}
					rec.Runs, runs[k] = append(rec.Runs, smp), append(runs[k], smp)
				}
			}
			if n > 0 {
				report(runs[0], runs[1], specs)
			}
		}
	}
	return nil
}

// cpuTimes reads the total and the stolen jiffies of all CPUs from the first
// line of /proc/stat ("cpu user nice system idle iowait irq softirq steal").
func cpuTimes() (total, steal int64) {
	raw, _ := os.ReadFile("/proc/stat") // none: steal reads 0
	f := strings.Fields(string(raw))
	for i := 1; len(f) > 8 && f[0] == "cpu" && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total, steal = total+v, v
	}
	return total, steal
}

// report prints a set's row for each end-to-end metric: the medians, the
// parent's quartile distance, judge's counts and verdict, both sides' failed
// operations and the steal range.
func report(p, c []sample, specs []spec) {
	failP, failC, steal := 0, 0, []float64{}
	for i := range p {
		failP, failC, steal = failP+p[i].Failed, failC+c[i].Failed, append(steal, p[i].Steal, c[i].Steal)
	}
	sort.Float64s(steal)
	for _, s := range specs {
		pv, cv := make([]float64, len(p)), make([]float64, len(c))
		for i := range p {
			pv[i], cv[i] = p[i].Metrics[s.Name].Value, c[i].Metrics[s.Name].Value
		}
		q1, pm, q3 := quartiles(pv)
		_, cm, _ := quartiles(cv)
		wins, ties, verdict := judge(s, pv, cv, failC > failP)
		fmt.Printf("%-16s %-3s %-15s %12.5g %10.3g %12.5g %+7.1f%% %4d/%-4d %5d %6d/%-6d %5.2f-%-5.2f %s\n", p[0].Workload, p[0].Set, s.Name,
			pm, q3-q1, cm, 100*(cm-pm)/pm, wins, ties, len(p), failP, failC, steal[0], steal[len(steal)-1], verdict)
	}
}

// judge applies the simplicity-review guide's benchmark rules to c's runs
// against p's, pair by pair. "gain": c wins nine pairs in ten or more (a tie
// counts for neither), its median is better by more than p's quartile
// distance and no more operations failed. Else "unresolved" when either
// side's quartile distance is wider than the bound (a share of p's median)
// and some run of p beats or ties one of c; "regressed" when c's median is
// worse by more than the bound; else "held".
func judge(s spec, p, c []float64, moreFailed bool) (wins, ties int, verdict string) {
	sign, worstC, bestP := 1.0, math.Inf(1), math.Inf(-1)
	if s.Better == "lower" {
		sign = -1
	}
	for i := range p {
		if d := sign * (c[i] - p[i]); d > 0 {
			wins++
		} else if d == 0 {
			ties++
		}
		worstC, bestP = math.Min(worstC, sign*c[i]), math.Max(bestP, sign*p[i])
	}
	pq1, pm, pq3 := quartiles(p)
	cq1, cm, cq3 := quartiles(c)
	gap, bound := sign*(cm-pm), s.Bound*math.Abs(pm)
	switch {
	case wins*10 >= 9*len(p) && gap > pq3-pq1 && !moreFailed:
		return wins, ties, "gain"
	case math.Max(pq3-pq1, cq3-cq1) > bound && worstC <= bestP:
		return wins, ties, "unresolved"
	case -gap > bound:
		return wins, ties, "regressed"
	}
	return wins, ties, "held"
}

// quartiles returns the first quartile, the median and the third quartile of
// xs, interpolating linearly between its order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		i, f := math.Modf(p * float64(len(s)-1))
		return s[int(i)] + f*(s[min(int(i)+1, len(s)-1)]-s[int(i)])
	}
	return at(0.25), at(0.5), at(0.75)
}

// appendRecord writes rec at the end of the ledger's array, whose bytes were
// raw, leaving every earlier record's bytes as they are.
func appendRecord(path string, raw []byte, rec *record) error {
	entry, err := json.MarshalIndent(rec, "", "  ")
	if body, ok := bytes.CutSuffix(raw, []byte("\n]\n")); ok && err == nil {
		return os.WriteFile(path, append(append(append(body, ",\n"...), entry...), "\n]\n"...), 0o644)
	}
	return fmt.Errorf("%s: cannot append to it (%v)", path, err)
}

// sh runs script with sh -c in dir and returns its output.
func sh(dir, script string, args ...string) (string, error) {
	cmd := exec.Command("sh", append([]string{"-c", script, "sh"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("%s: %v: %s", script, err, out)
	}
	return strings.TrimSpace(string(out)), nil
}
