package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompareSetsHoldsMetricsAndFiguresToTheirBounds: -aa disagrees when an
// end-to-end metric or a figure with a bound moves by more than the bound,
// in either direction, and ignores figures without one.
func TestCompareSetsHoldsMetricsAndFiguresToTheirBounds(t *testing.T) {
	man := &manifest{EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.2}}}
	set := func(ops, one, excess float64) []*result {
		return []*result{{workload: wlWANSync, e2e: map[string]float64{"ops_per_s": ops}, figures: []figure{
			{metricSpec{"stab_one_p50_ms", "ms", "lower", 0.1}, one, 100},
			{metricSpec{Name: "stab_one_excess_ms", Unit: "ms", Better: "lower"}, excess, 100},
		}}}
	}
	for _, c := range []struct {
		name  string
		b     []*result
		agree bool
	}{
		{"same", set(100, 4.5, 0.8), true},
		{"within", set(85, 4.9, 0.8), true},
		{"unbounded figure moves", set(100, 4.5, 2.4), true},
		{"metric worse", set(75, 4.5, 0.8), false},
		{"metric better", set(125, 4.5, 0.8), false},
		{"figure worse", set(100, 5.0, 0.8), false},
		{"figure missing", []*result{{workload: wlWANSync, e2e: map[string]float64{"ops_per_s": 100}}}, false},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, man, set(100, 4.5, 0.8), c.b, nil, nil); got != c.agree {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, got, c.agree, out.String())
		}
		if !c.agree && !strings.Contains(out.String(), "DISAGREE") {
			t.Errorf("%s: the table does not mark the disagreement\n%s", c.name, out.String())
		}
	}
}
