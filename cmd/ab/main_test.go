package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The end-to-end tests run the command on a throwaway git repository whose
// benchmark/run.sh "builds" this test binary: re-executed with fakeEnv set,
// TestMain hands it to fakeBenchmark, which logs each run and prints the
// result line found in its tree.
const fakeEnv = "AB_TEST_FAKE_BENCHMARK"

func TestMain(m *testing.M) {
	if os.Getenv(fakeEnv) != "" {
		os.Exit(fakeBenchmark(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fakeBenchmark takes the benchmark's flags, appends "<tree> <workload>
// <seed> <seconds>" to $AB_TEST_LOG, and prints a line of progress and then
// the tree's file "result", as the benchmark ends its output with its result.
func fakeBenchmark(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	seconds := fs.Float64("seconds", 30, "")
	fs.Int("trace", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wd, _ := os.Getwd()
	tree := "change"
	if strings.Contains(wd, string(filepath.Separator)+".ab"+string(filepath.Separator)) {
		tree = "parent"
	}
	f, err := os.OpenFile(os.Getenv("AB_TEST_LOG"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 1
	}
	fmt.Fprintf(f, "%s %s %d %g\n", tree, *workload, *seed, *seconds)
	if err := f.Close(); err != nil {
		return 1
	}
	res, err := os.ReadFile("result")
	if err != nil {
		return 1
	}
	fmt.Printf("%s: running\n%s", *workload, res)
	return 0
}

const runSh = `#!/usr/bin/env bash
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
printf '#!/bin/sh\nexec env %s=1 "%s" "$@"\n' "$FAKE_ENV" "$FAKE_BIN" > "$root/.bench_build/stabilizer-benchmark"
chmod +x "$root/.bench_build/stabilizer-benchmark"
cd "$root"
exec "$root/.bench_build/stabilizer-benchmark" "$@"
`

func resultLine(failed int, ops float64) string {
	return fmt.Sprintf(`{"correct":true,"attempted":100,"failed":%d,"metrics":{"ops_per_s":{"value":%g,"unit":"1/s"},"setup_s":{"value":1.5,"unit":"s"}}}`+"\n", failed, ops)
}

// fixture makes a committed git repository with a benchmark manifest of two
// workloads, the fake run.sh, the given ledger and the parent's result line,
// then writes the change's result line into the working tree, and makes it
// the working directory for the rest of the test.
func fixture(t *testing.T, ledger []byte, parentResult, changeResult string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"BENCHMARK.json": `{"run_seconds": 7, "workloads": [{"name": "w1"}, {"name": "w2"}],
			"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}`,
		"benchmark/run.sh": runSh,
		"LEDGER.json":      string(ledger),
		"result":           parentResult,
		".gitignore":       ".ab/\n.bench_build/\n",
	}
	for name, body := range files {
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{{"init", "-q"}, {"add", "-A"},
		{"-c", "user.name=ab", "-c", "user.email=ab@example.com", "-c", "commit.gpgsign=false", "commit", "-qm", "parent"}} {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v: %s", args, err, out)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "result"), []byte(changeResult), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	t.Setenv("FAKE_ENV", fakeEnv)
	t.Setenv("FAKE_BIN", os.Args[0])
	t.Setenv("AB_TEST_LOG", filepath.Join(dir, ".bench_build", "runs.log"))
	return dir
}

func readLedger(t *testing.T, path string) []record {
	t.Helper()
	var recs []record
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &recs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

const smallLedger = "[\n{\"commit\": \"x\", \"seeds\": [[1, 100], [500, 520]]}\n]\n"

func TestPairsAlternateAndTheRecordCarriesEveryRun(t *testing.T) {
	dir := fixture(t, []byte(smallLedger), resultLine(0, 100), resultLine(3, 130))
	if err := run([]string{"-parent", "HEAD", "-pairs", "2", "-aa", "2"}); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, ".bench_build", "runs.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Per workload: two parent/change pairs, the parent first in the first,
	// then two A/A pairs; each pair on its own seed, above the ledger's.
	want := ""
	for i, w := range []string{"w1", "w2"} {
		s := 521 + 4*i
		want += fmt.Sprintf("parent %s %d 7\nchange %s %d 7\nchange %s %d 7\nparent %s %d 7\n", w, s, w, s, w, s+1, w, s+1)
		want += fmt.Sprintf("parent %s %d 7\nparent %s %d 7\nparent %s %d 7\nparent %s %d 7\n", w, s+2, w, s+2, w, s+3, w, s+3)
	}
	if string(log) != want {
		t.Fatalf("runs:\n%s\nwant:\n%s", log, want)
	}
	recs := readLedger(t, filepath.Join(dir, "LEDGER.json"))
	rec := recs[len(recs)-1]
	if len(recs) != 2 || len(rec.Runs) != 16 || rec.Seeds[0] != [2]int64{521, 528} || rec.Seconds != 7 || rec.Dirty != true {
		t.Fatalf("record: %d records, %d runs, seeds %v, %d s, dirty %v", len(recs), len(rec.Runs), rec.Seeds, rec.Seconds, rec.Dirty)
	}
	for _, r := range rec.Runs {
		wantFailed, wantOps := 0, 100.0
		if r.Side == "change" {
			wantFailed, wantOps = 3, 130
		}
		if r.Failed != wantFailed || r.Metrics["ops_per_s"].Value != wantOps || r.Metrics["setup_s"].Value != 1.5 || r.Attempt != 100 {
			t.Fatalf("run %+v: want failed %d and ops_per_s %g", r, wantFailed, wantOps)
		}
		if r.Set == "ab" && r.Side == "parent2" || r.Set == "aa" && r.Side == "change" {
			t.Fatalf("run %+v: side does not belong to its set", r)
		}
	}
}

func TestAppendingKeepsEarlierRecordsAndSeedsDisjoint(t *testing.T) {
	dir := fixture(t, []byte(smallLedger), resultLine(0, 100), resultLine(0, 100))
	path := filepath.Join(dir, "LEDGER.json")
	var drawn [][2]int64
	for i := 0; i < 2; i++ {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-parent", "HEAD", "-pairs", "1", "-aa", "0", "-workloads", "w2"}); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, bytes.TrimSuffix(before, []byte("\n]\n"))) {
			t.Fatalf("append %d rewrote earlier records:\n%s", i, after)
		}
		recs := readLedger(t, path)
		drawn = append(drawn, recs[len(recs)-1].Seeds[0])
	}
	if drawn[0] != [2]int64{521, 521} || drawn[1] != [2]int64{522, 522} {
		t.Fatalf("two runs drew %v", drawn)
	}
}

func TestMalformedResultLineFailsTheCommand(t *testing.T) {
	dir := fixture(t, []byte(smallLedger), resultLine(0, 100), "ops 130\n")
	err := run([]string{"-parent", "HEAD", "-pairs", "1", "-aa", "0"})
	if err == nil || !strings.Contains(err.Error(), "no result line") {
		t.Fatalf("err = %v, want a missing result line", err)
	}
	// The run before it is still on the record.
	recs := readLedger(t, filepath.Join(dir, "LEDGER.json"))
	if runs := recs[len(recs)-1].Runs; len(runs) != 1 || runs[0].Side != "parent" {
		t.Fatalf("recorded %+v, want the parent's one run", runs)
	}
}

func TestRefusesWhenTheBenchmarkDiffers(t *testing.T) {
	dir := fixture(t, []byte(smallLedger), resultLine(0, 100), resultLine(0, 100))
	for _, name := range []string{"BENCHMARK.json", "benchmark/extra.go"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-parent", "HEAD"})
		if err == nil || !strings.Contains(err.Error(), "differs") {
			t.Fatalf("with %s changed: err = %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, ".ab")); err == nil {
			t.Fatal("exported the parent before refusing")
		}
		if out, err := exec.Command("sh", "-c", "git checkout -q -- . && git clean -qf benchmark").CombinedOutput(); err != nil {
			t.Fatalf("%v: %s", err, out)
		}
	}
}

// roadmapSeeds is the hand list of used seeds that ROADMAP.md kept through
// PR 47, as it read at c801d74.
var roadmapSeeds = [][2]int64{{2525, 2527}, {2626, 2626}, {4101, 4110}, {4301, 4303}, {4401, 4402}, {4501, 4506},
	{4601, 4603}, {4701, 4704}, {4790, 4791}, {9901, 9904}, {3501, 3505}, {3511, 3515}, {9951, 9960}, {3601, 3606},
	{9971, 9971}, {3701, 3701}, {9981, 9985}, {3801, 3841}, {3851, 3891}, {3899, 3899}, {9991, 9997}, {3901, 3921},
	{9931, 9936}, {4941, 4941}, {4951, 4957}, {9401, 9422}, {4121, 4125}, {777, 779}, {4211, 4230}, {4241, 4244},
	{4251, 4271}, {4281, 4290}, {4331, 4336}, {4441, 4449}, {4451, 4457}, {4461, 4466}, {4471, 4476}, {4481, 4484},
	{9461, 9498}, {9501, 9532}, {9551, 9551}, {5, 5}, {11, 13}, {4761, 4789}, {4792, 4832}, {4851, 4866},
	{4871, 4876}, {4881, 4885}, {4891, 4895}, {4899, 4899}, {4900, 4900}, {4921, 4938}, {4961, 4964},
	{4971, 4976}, {4980, 4980}, {4981, 4981}, {4990, 4990}, {5001, 5004}, {5011, 5016}, {5021, 5028}}

// The repository's ledger holds every seed of ROADMAP's old list, and the
// draw from it returns none of them, nor any seed an earlier record used.
func TestSeedDrawSkipsEveryUsedSeed(t *testing.T) {
	ledger, err := os.ReadFile(filepath.Join("..", "..", "LEDGER.json"))
	if err != nil {
		t.Fatal(err)
	}
	used := map[int64]bool{}
	for _, r := range readLedger(t, filepath.Join("..", "..", "LEDGER.json")) {
		for _, s := range r.Seeds {
			for x := s[0]; x <= s[1]; x++ {
				used[x] = true
			}
		}
	}
	for _, s := range roadmapSeeds {
		for x := s[0]; x <= s[1]; x++ {
			if !used[x] {
				t.Fatalf("seed %d of ROADMAP's list is not in LEDGER.json", x)
			}
		}
	}
	dir := fixture(t, ledger, resultLine(0, 100), resultLine(0, 100))
	if err := run([]string{"-parent", "HEAD", "-pairs", "2", "-aa", "1", "-workloads", "w1"}); err != nil {
		t.Fatal(err)
	}
	recs := readLedger(t, filepath.Join(dir, "LEDGER.json"))
	for _, r := range recs[len(recs)-1].Runs {
		if used[r.Seed] {
			t.Fatalf("drew used seed %d", r.Seed)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{7}, 7, 7, 7},
	} {
		in := append([]float64(nil), c.xs...)
		if q1, med, q3 := quartiles(c.xs); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
		if fmt.Sprint(in) != fmt.Sprint(c.xs) {
			t.Errorf("quartiles reordered its input: %v", c.xs)
		}
	}
}

func TestJudge(t *testing.T) {
	higher := spec{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	lower := spec{Name: "wait_all_p50_ms", Better: "lower", Bound: 0.25}
	p := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	add := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	nineWins := add(p, 20)
	nineWins[3] = p[3] - 1
	eightWins := append([]float64(nil), nineWins...)
	eightWins[4] = p[4]
	for _, c := range []struct {
		name       string
		s          spec
		p, c       []float64
		moreFailed bool
		wins, ties int
		verdict    string
	}{
		{"every pair won", higher, p, add(p, 20), false, 10, 0, "gain"},
		{"nine of ten", higher, p, nineWins, false, 9, 0, "gain"},
		{"a tie counts for neither side", higher, p, eightWins, false, 8, 1, "held"},
		{"all tied", higher, p, p, false, 0, 10, "held"},
		{"a gap inside the parent's quartile distance", higher, p, add(p, 1), false, 10, 0, "held"},
		{"more operations failed", higher, p, add(p, 20), true, 10, 0, "held"},
		{"lower is better", lower, p, add(p, -20), false, 10, 0, "gain"},
		{"worse past the bound", higher, p, add(p, -40), false, 0, 0, "regressed"},
		{"worse inside the bound", lower, p, add(p, 20), false, 0, 0, "held"},
		{"spread wider than the bound", higher, []float64{50, 150, 60, 140, 70}, []float64{150, 50, 140, 60, 69}, false, 2, 0, "unresolved"},
		{"wide spread, yet every change run better", higher, []float64{10, 20, 30, 40}, []float64{41, 42, 43, 44}, true, 4, 0, "held"},
	} {
		wins, ties, verdict := judge(c.s, c.p, c.c, c.moreFailed)
		if wins != c.wins || ties != c.ties || verdict != c.verdict {
			t.Errorf("%s: judge = %d wins, %d ties, %q; want %d, %d, %q", c.name, wins, ties, verdict, c.wins, c.ties, c.verdict)
		}
	}
}
