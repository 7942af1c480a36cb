package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The program computes values by name and
// reads everything else about a metric from here.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// locate finds the repository root (the directory holding BENCHMARK.json)
// from the working directory: the root itself, or benchmark/ below it.
func locate() (root string, err error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// contractLine is the last line of standard output in single-workload mode.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract projects res onto specs, the metrics BENCHMARK.json lists for one
// mode, looking each up in values.
func contract(res *result, specs []metricSpec, values ...map[string]float64) (contractLine, error) {
	line := contractLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]contractMetric, len(specs))}
next:
	for _, s := range specs {
		for _, m := range values {
			if v, ok := m[s.Name]; ok {
				line.Metrics[s.Name] = contractMetric{Value: v, Unit: s.Unit}
				continue next
			}
		}
		return line, fmt.Errorf("%s: metric %s listed in BENCHMARK.json was not measured", res.workload, s.Name)
	}
	return line, nil
}

// resultFile is benchmark/out/result-<workload>.json: every number a run
// produced under its name, the figures BENCHMARK.json cannot list included.
type resultFile struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
}

func writeResult(dir string, seed int64, res *result, man *manifest, probes map[string]float64) error {
	out := resultFile{Workload: res.workload, Seed: seed, Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]resultMetric{}}
	for _, s := range append(append([]metricSpec(nil), man.EndToEnd...), man.PerLayer...) {
		for _, values := range []map[string]float64{res.e2e, res.layer, probes} {
			if v, ok := values[s.Name]; ok {
				out.Metrics[s.Name] = resultMetric{Value: v, Unit: s.Unit, Bound: s.Bound}
			}
		}
	}
	for _, f := range res.figures {
		out.Metrics[f.Name] = resultMetric{Value: f.value, Unit: f.Unit, Samples: f.n, Bound: f.Bound}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result-"+res.workload+".json"), append(raw, '\n'), 0o644)
}

// printResult writes everything one workload produced, by name with units.
func printResult(w io.Writer, res *result, man *manifest, probes map[string]float64) {
	fmt.Fprintf(w, "\n== %s ==\n", res.workload)
	fmt.Fprintf(w, "operations: attempted %d, failed %d\n", res.attempted, res.failed)
	if len(res.e2e) > 0 {
		fmt.Fprintln(w, "end to end:")
		for _, s := range man.EndToEnd {
			if v, ok := res.e2e[s.Name]; ok {
				fmt.Fprintf(w, "  %-44s %14.4f %s\n", s.Name, v, s.Unit)
			}
		}
	}
	if len(res.kinds) > 0 {
		fmt.Fprintln(w, "client-side latency by kind of operation (ms):")
		for _, k := range res.kinds {
			fmt.Fprintf(w, "  %-10s n=%-7d p50 %10.4f  %s %10.4f  floor %8.3f  excess %8.4f\n",
				kindNames[k.kind], k.n, k.p50, k.topLabel, k.top, ms(k.floor), excess(k.p50, k.floor))
		}
	}
	for _, f := range res.figures {
		n := ""
		if f.n > 0 {
			n = fmt.Sprintf("  (n=%d)", f.n)
		}
		fmt.Fprintf(w, "  %-44s %14.4f %s%s\n", f.Name, f.value, f.Unit, n)
	}
	if len(res.layer) > 0 || len(probes) > 0 {
		fmt.Fprintln(w, "per layer:")
		for _, s := range man.PerLayer {
			v, ok := res.layer[s.Name]
			if !ok {
				v, ok = probes[s.Name]
			}
			if ok {
				fmt.Fprintf(w, "  %-44s %14.4f %s\n", s.Name, v, s.Unit)
			}
		}
	}
	if t := res.trace; t != nil {
		fmt.Fprintf(w, "traced: %d operations cut into stages, %d left out", t.analyzed, t.incomplete)
		if t.chromePath != "" {
			fmt.Fprintf(w, "; Chrome trace in %s", t.chromePath)
		}
		fmt.Fprintln(w)
		kinds := make([]opKind, 0, len(t.kinds))
		for k := range t.kinds {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			kt := t.kinds[k]
			fmt.Fprintf(w, "  %-8s n=%-4d p50 us:", kindNames[k], kt.ops)
			for _, v := range kt.stageP50 {
				fmt.Fprintf(w, " %9.1f", v)
			}
			fmt.Fprintf(w, " | residual %.2f (%.2f%%) of %.1f\n", kt.residualUS, 100*kt.residualShare, kt.latencyUS)
		}
	}
	for _, f := range res.findings {
		fmt.Fprintln(w, "finding:", f)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}

// worse is how much b is worse than a, as a share of a, given the metric's
// direction; negative when b is better.
func worse(s metricSpec, a, b float64) float64 {
	if s.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints two sets of results side by side and reports whether
// every end-to-end metric, and every figure with a bound, agrees within its
// bound on every workload.
func compareSets(w io.Writer, man *manifest, a, b []*result, probesA, probesB map[string]float64) bool {
	agree := true
	fmt.Fprintf(w, "\n== A/A: two sets of runs of the same build ==\n")
	fmt.Fprintf(w, "%-18s %-40s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	gated := func(workload string, s metricSpec, va, vb float64) {
		diff := worse(s, va, vb)
		verdict := ""
		if !(math.Abs(diff) <= s.Bound) { // a NaN disagrees
			verdict, agree = "  DISAGREE", false
		}
		fmt.Fprintf(w, "%-18s %-40s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", workload, s.Name, va, vb, 100*diff, 100*s.Bound, verdict)
	}
	for i := range a {
		for _, s := range man.EndToEnd {
			gated(a[i].workload, s, a[i].e2e[s.Name], b[i].e2e[s.Name])
		}
		for _, f := range a[i].figures {
			if f.Bound > 0 {
				gated(a[i].workload, f.metricSpec, f.value, b[i].figure(f.Name))
			}
		}
	}
	for i := range a {
		for _, s := range man.PerLayer {
			va, oka := a[i].layer[s.Name]
			vb, okb := b[i].layer[s.Name]
			if !oka || !okb {
				continue
			}
			fmt.Fprintf(w, "%-18s %-40s %14.4f %14.4f\n", a[i].workload, s.Name, va, vb)
		}
	}
	for _, s := range man.PerLayer {
		va, oka := probesA[s.Name]
		vb, okb := probesB[s.Name]
		if oka && okb {
			fmt.Fprintf(w, "%-18s %-40s %14.4f %14.4f\n", "(probe)", s.Name, va, vb)
		}
	}
	return agree
}
