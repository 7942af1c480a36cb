package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// TestManifestForm checks BENCHMARK.json against the limits its consumers
// enforce and against the workloads this program defines.
func TestManifestForm(t *testing.T) {
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, s metricSpec, bounded bool) {
		if !name.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("%s metric name %q is malformed or used twice", kind, s.Name)
		}
		seen[s.Name] = true
		if !unit.MatchString(s.Unit) {
			t.Errorf("%s: unit %q is malformed", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
		if bounded && (s.Bound <= 0 || s.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, s := range man.EndToEnd {
		check("end-to-end", s, true)
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, s := range man.PerLayer {
		check("per-layer", s, false)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", man.Paths)
	}
}

// TestSmoke runs the whole benchmark in smoke mode, then one workload in
// each single-workload mode, and checks every listed metric comes out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 8-node cluster a dozen times; skipped under -short")
	}
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-smoke exited %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	for _, w := range workloads {
		if !strings.Contains(stdout.String(), "== "+w.name+" ==") {
			t.Errorf("-smoke printed nothing for %s", w.name)
		}
	}
	for trace, specs := range map[string][]metricSpec{"0": man.EndToEnd, "1": man.PerLayer} {
		stdout.Reset()
		stderr.Reset()
		args := []string{"-smoke", "--workload", wlKVSync, "--seed", "3", "--seconds", "1", "--trace", trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d\n%s\n%s", args, code, stderr.String(), stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: correct %v, attempted %d, failed %d", trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(specs) {
			t.Errorf("trace %s: %d metrics in the result, %d listed", trace, len(line.Metrics), len(specs))
		}
		for _, s := range specs {
			if m, ok := line.Metrics[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("trace %s: metric %s missing or in unit %q, want %q", trace, s.Name, m.Unit, s.Unit)
			}
		}
	}
}
