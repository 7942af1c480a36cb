// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON record, so benchmark results can be checked in and diffed.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson             # JSON to stdout
//	go test -bench=. -benchmem ./... | benchjson -update F   # rewrite F
//	go test -bench=. -benchmem ./... | benchjson -compare F  # regression gate
//
// With -update, the parsed run is stored under "current"; an existing
// file's "baseline" section is preserved so the pre-optimization numbers
// survive regeneration. A fresh file seeds "baseline" from the first run.
//
// With -compare, nothing is written: the run on stdin is checked against
// the file's recorded "current" section (falling back to "baseline").
// Every benchmark whose name contains -match (default "StreamThroughput")
// has its -metric value (default "msgs/s") compared; regressions up to the
// blocking threshold (default 20%) print a non-blocking warning, and at or
// past it fail the command — the CI gate for performance regressions.
// Metrics whose unit ends in "/op" (ns/op, B/op, allocs/op) are
// lower-is-better; everything else (msgs/s, MB/s, ...) higher-is-better.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit → value, e.g. "ns/op", "B/op", "allocs/op",
	// "MB/s" and any b.ReportMetric unit such as "msgs/s".
	Metrics map[string]float64 `json:"metrics"`
}

// Run is one benchmark invocation.
type Run struct {
	Date       string      `json:"date"`
	Go         string      `json:"go,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the on-disk layout of BENCH_*.json records.
type File struct {
	Note     string `json:"note,omitempty"`
	Baseline *Run   `json:"baseline,omitempty"`
	Current  *Run   `json:"current,omitempty"`
	// EndToEnd is a hand-recorded section (paired runs of benchmark/run.sh
	// beside the microbenchmarks they explain); -update carries it over.
	EndToEnd json.RawMessage `json:"end_to_end,omitempty"`
}

func main() {
	update := flag.String("update", "", "rewrite this JSON file, preserving its baseline section")
	note := flag.String("note", "", "free-form note stored in the file (only with -update on a fresh file)")
	compare := flag.String("compare", "", "compare the run on stdin against this JSON file's recorded numbers instead of writing anything")
	threshold := flag.Float64("threshold", 0.20, "blocking regression threshold for -compare (fraction of the recorded value)")
	match := flag.String("match", "StreamThroughput", "substring selecting which benchmarks -compare judges")
	metric := flag.String("metric", "msgs/s", "metric unit -compare judges; units ending in /op are lower-is-better")
	flag.Parse()

	run := &Run{Date: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass output through so failures stay visible
		if strings.HasPrefix(line, "go: ") || strings.HasPrefix(line, "goos:") {
			continue
		}
		if b, ok := parseLine(line); ok {
			run.Benchmarks = append(run.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("read stdin: %v", err)
	}
	if len(run.Benchmarks) == 0 {
		fatalf("no benchmark lines found on stdin")
	}

	if *compare != "" {
		compareRun(run, *compare, *threshold, *match, *metric)
		return
	}
	if *update == "" {
		emit(os.Stdout, &File{Current: run})
		return
	}
	out := &File{Note: *note, Baseline: run, Current: run}
	if data, err := os.ReadFile(*update); err == nil {
		var prev File
		if err := json.Unmarshal(data, &prev); err != nil {
			fatalf("parse %s: %v", *update, err)
		}
		if prev.Baseline != nil {
			out.Baseline = prev.Baseline
		}
		if prev.Note != "" && *note == "" {
			out.Note = prev.Note
		}
		out.EndToEnd = prev.EndToEnd
	}
	f, err := os.Create(*update)
	if err != nil {
		fatalf("%v", err)
	}
	emit(f, out)
	if err := f.Close(); err != nil {
		fatalf("%v", err)
	}
}

// compareRun gates the fresh run against the recorded numbers in path: for
// every benchmark matching the name substring and present on both sides,
// a regression of the chosen metric of at least thresh fails the command;
// smaller regressions warn. Benchmarks missing on either side are skipped
// (new benchmarks must not break the gate). For rate metrics a regression
// is a drop; for /op metrics (time, bytes, allocs) it is an increase.
func compareRun(run *Run, path string, thresh float64, match, metric string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("read %s: %v", path, err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		fatalf("parse %s: %v", path, err)
	}
	ref := f.Current
	if ref == nil {
		ref = f.Baseline
	}
	if ref == nil {
		fatalf("%s has neither current nor baseline numbers", path)
	}
	recorded := make(map[string]float64, len(ref.Benchmarks))
	for _, b := range ref.Benchmarks {
		if v, ok := b.Metrics[metric]; ok {
			recorded[b.Name] = v
		}
	}
	lowerBetter := strings.HasSuffix(metric, "/op")
	checked, failed := 0, false
	for _, b := range run.Benchmarks {
		if !strings.Contains(b.Name, match) {
			continue
		}
		want, ok := recorded[b.Name]
		got, has := b.Metrics[metric]
		if !ok || !has || want <= 0 {
			continue
		}
		checked++
		var reg float64 // fraction of the recorded value lost (or gained, for /op)
		if lowerBetter {
			reg = (got - want) / want
		} else {
			reg = (want - got) / want
		}
		direction := "below"
		if lowerBetter {
			direction = "above"
		}
		switch {
		case reg >= thresh:
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: %.0f %s is %.1f%% %s the recorded %.0f (threshold %.0f%%)\n",
				b.Name, got, metric, reg*100, direction, want, thresh*100)
			failed = true
		case reg > 0:
			fmt.Fprintf(os.Stderr, "benchjson: warn %s: %.0f %s is %.1f%% %s the recorded %.0f\n",
				b.Name, got, metric, reg*100, direction, want)
		default:
			fmt.Printf("benchjson: ok %s: %.0f %s (recorded %.0f)\n", b.Name, got, metric, want)
		}
	}
	if checked == 0 {
		fatalf("no %q benchmarks with a %q metric to compare against %s", match, metric, path)
	}
	if failed {
		os.Exit(1)
	}
}

// parseLine parses one `Benchmark...` result line: a name, an iteration
// count, then (value, unit) pairs.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       strings.TrimSuffix(fields[0], "-"+lastDashSuffix(fields[0])),
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// lastDashSuffix returns the trailing -N GOMAXPROCS suffix digits of a
// benchmark name, or "" when there is none.
func lastDashSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	suf := name[i+1:]
	if _, err := strconv.Atoi(suf); err != nil {
		return ""
	}
	return suf
}

func emit(w *os.File, f *File) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		fatalf("encode: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
