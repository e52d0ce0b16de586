package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// around returns n samples alternating v-d and v+d.
func around(v, d float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v - d
		if i%2 == 1 {
			out[i] = v + d
		}
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "lu_per_s", Better: "higher", Bound: 0.05}
	failures := metricDef{Name: "error_rate", Better: "lower", Abs: true, Failure: true}
	points := metricDef{Name: "traffic_reduction_pct", Better: "higher", Bound: 0.3, Abs: true}
	for _, tc := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		want           string
	}{
		{"same", lower, around(100, 0.5, 10), around(100, 0.5, 10), verdictNoWorse},
		{"slower within bound", lower, around(100, 0.5, 10), around(103, 0.5, 10), verdictNoWorse},
		{"slower beyond bound", lower, around(100, 0.5, 10), around(110, 0.5, 10), verdictWorse},
		{"faster in every pair", lower, around(100, 0.5, 10), around(90, 0.5, 10), verdictImproved},
		{"faster but only 9 pairs", lower, around(100, 0.5, 9), around(90, 0.5, 9), verdictNoWorse},
		{"faster in 8 of 10 pairs", lower,
			around(100, 0.5, 10),
			[]float64{90, 90, 90, 90, 90, 90, 90, 90, 101, 101}, verdictNoWorse},
		{"faster by less than the parent's spread", lower,
			around(100, 1, 10), around(99.5, 1, 10), verdictNoWorse},
		{"spread wider than bound", lower, around(100, 20, 10), around(100, 20, 10), verdictUnresolved},
		{"spread wider than bound, every change run better", lower,
			[]float64{100, 140, 100, 140}, []float64{60, 90, 60, 90}, verdictNoWorse},
		{"throughput drop", higher, around(1000, 1, 10), around(900, 1, 10), verdictWorse},
		{"throughput gain", higher, around(1000, 1, 10), around(1100, 1, 10), verdictImproved},
		{"no failures", failures, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictNoWorse},
		{"one failed run", failures, []float64{0, 0, 0}, []float64{0, 1, 0}, verdictWorse},
		{"fewer failures", failures, []float64{0, 1, 0}, []float64{0, 0, 0}, verdictNoWorse},
		{"reduction down 0.2 points", points, []float64{59.7}, []float64{59.5}, verdictNoWorse},
		{"reduction down 0.5 points", points, []float64{59.7}, []float64{59.2}, verdictWorse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, wins, pairs := judge(tc.m, summarize(tc.parent), summarize(tc.change))
			if got != tc.want {
				t.Errorf("verdict %q (wins %d/%d), want %q", got, wins, pairs, tc.want)
			}
		})
	}
}

// TestRunCompare checks the exit status on results files: 1 when any
// metric is worse, 0 otherwise.
func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64) string {
		path := filepath.Join(dir, name)
		res := results{Workloads: map[string]*workloadResult{
			"scale-20k": {EndToEnd: map[string]metricSummary{
				"wall_s":     {Unit: "s", Better: "lower", summary: summarize(wall)},
				"error_rate": {Unit: "ratio", Better: "lower", summary: summarize([]float64{0, 0, 0})},
			}},
		}}
		if err := writeJSONFile(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", []float64{4.0, 4.02, 3.98})
	same := write("same.json", []float64{4.01, 3.99, 4.0})
	slow := write("slow.json", []float64{5.6, 5.62, 5.58})
	slow2 := write("slow2.json", []float64{5.61, 5.59, 5.6})
	var out, errOut bytes.Buffer
	if code := runCompare([]string{parent, same}, &out, &errOut); code != 0 {
		t.Errorf("same: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := runCompare([]string{parent, slow}, &out, &errOut); code != 1 {
		t.Errorf("slow: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if code := runCompare([]string{parent + "," + same, slow + "," + slow2}, &out, &errOut); code != 1 {
		t.Errorf("pooled: exit %d, want 1\n%s", code, out.String())
	}
}
