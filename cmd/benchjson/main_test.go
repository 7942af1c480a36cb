package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The command reads the process's flags and stdin and exits through os.Exit,
// so the tests run it as a process: the test binary re-executes itself with
// runMainEnv set and TestMain hands that process to main.
const runMainEnv = "BENCHJSON_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func benchjson(t *testing.T, stdin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errb.String(), exit
}

// benchOutput is a canned `go test -bench` run: a stream benchmark with a
// reported rate and a microbenchmark with only the standard units.
func benchOutput(msgsPerSec, nsPerOp string) string {
	return `goos: linux
goarch: amd64
pkg: stabilizer/internal/transport
BenchmarkStreamThroughputLocal-2   	  200000	      5000 ns/op	  ` + msgsPerSec + ` msgs/s	      64 B/op	       1 allocs/op
BenchmarkQueueAck/advancing/N=8-2  	 2000000	        ` + nsPerOp + ` ns/op	       0 B/op	       0 allocs/op
PASS
ok  	stabilizer/internal/transport	2.0s
`
}

func TestUpdateRecordsTheRunAndKeepsTheBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if _, stderr, exit := benchjson(t, benchOutput("200000", "18.00"), "-update", path, "-note", "first"); exit != 0 {
		t.Fatalf("seeding update: exit %d: %s", exit, stderr)
	}
	if _, stderr, exit := benchjson(t, benchOutput("300000", "16.00"), "-update", path); exit != 0 {
		t.Fatalf("second update: exit %d: %s", exit, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Note != "first" || len(f.Baseline.Benchmarks) != 2 || len(f.Current.Benchmarks) != 2 {
		t.Fatalf("file = %s", data)
	}
	base, cur := f.Baseline.Benchmarks, f.Current.Benchmarks
	if base[0].Name != "BenchmarkStreamThroughputLocal" || base[0].Iterations != 200000 || base[0].Metrics["msgs/s"] != 200000 {
		t.Fatalf("baseline lost the first run (GOMAXPROCS suffix must be trimmed): %+v", base[0])
	}
	if cur[0].Metrics["msgs/s"] != 300000 || cur[1].Name != "BenchmarkQueueAck/advancing/N=8" || cur[1].Metrics["ns/op"] != 16 {
		t.Fatalf("current is not the second run: %+v", cur)
	}
}

func TestCompareExitCodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if _, stderr, exit := benchjson(t, benchOutput("200000", "20.00"), "-update", path); exit != 0 {
		t.Fatalf("recording: exit %d: %s", exit, stderr)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, msgs, ns string
		args           []string
		exit           int
		want           string // on stdout for exit 0, on stderr otherwise
	}{
		{"rate held", "210000", "20.00", nil, 0, "benchjson: ok BenchmarkStreamThroughputLocal"},
		{"rate down 10% warns", "180000", "20.00", nil, 0, ""},
		{"rate down 25% fails", "150000", "20.00", nil, 1, "FAIL BenchmarkStreamThroughputLocal"},
		{"per-op cost up 50% fails", "200000", "30.00", []string{"-match", "QueueAck", "-metric", "ns/op"}, 1, "50.0% above the recorded 20"},
		{"per-op cost down passes", "200000", "10.00", []string{"-match", "QueueAck", "-metric", "ns/op"}, 0, "benchjson: ok BenchmarkQueueAck/advancing/N=8"},
		{"wider threshold passes", "150000", "20.00", []string{"-threshold", "0.5"}, 0, ""},
		{"nothing to compare fails", "200000", "20.00", []string{"-match", "NoSuchBenchmark"}, 1, "no \"NoSuchBenchmark\" benchmarks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, exit := benchjson(t, benchOutput(tc.msgs, tc.ns), append([]string{"-compare", path}, tc.args...)...)
			verdict := stdout
			if tc.exit != 0 {
				verdict = stderr
			}
			if exit != tc.exit || !strings.Contains(verdict, tc.want) {
				t.Fatalf("exit %d, want %d with %q\nstdout: %s\nstderr: %s", exit, tc.exit, tc.want, stdout, stderr)
			}
			if tc.name == "rate down 10% warns" && !strings.Contains(stderr, "warn BenchmarkStreamThroughputLocal") {
				t.Fatalf("a 10%% drop passed without a warning: %s", stderr)
			}
		})
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("-compare rewrote the recorded file")
	}
}

func TestNoBenchmarkLinesIsAnError(t *testing.T) {
	if _, stderr, exit := benchjson(t, "PASS\nok  \tstabilizer\t0.1s\n"); exit != 1 || !strings.Contains(stderr, "no benchmark lines") {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
}
