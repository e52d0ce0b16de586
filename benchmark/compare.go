package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minGainPairs is the fewest parent/change run pairs a gain may rest on.
const minGainPairs = 10

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	Workload, Metric string
	Def              metricDef
	Parent, Change   summary
	Wins, Pairs      int
	Verdict          string
}

// judge applies the rule for a change against its parent on one metric.
// Runs pair up by index (run i of the parent with run i of the change),
// so the two sides should have been run alternately.
//
//   - improved: at least minGainPairs pairs, the change wins at least
//     nine in ten of them (ties count for neither), and the medians
//     differ by more than the parent's quartile spread;
//   - unresolved: the quartile spread of either side exceeds the bound,
//     unless every change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - no worse: otherwise.
//
// The failure share is judged on its mean instead: any rise is worse.
func judge(m metricDef, p, c summary) (verdict string, wins, pairs int) {
	if m.Failure {
		if mean(c.Samples) > mean(p.Samples) {
			return verdictWorse, 0, 0
		}
		return verdictNoWorse, 0, 0
	}
	sign := 1.0 // the sign of a worsening change
	if m.Better == "higher" {
		sign = -1
	}
	tol := m.Bound
	if !m.Abs {
		tol = m.Bound * math.Abs(p.Median)
	}
	worseBy := sign * (c.Median - p.Median)
	pairs = min(len(p.Samples), len(c.Samples))
	for i := 0; i < pairs; i++ {
		if sign*(c.Samples[i]-p.Samples[i]) < 0 {
			wins++
		}
	}
	spread := math.Max(p.Q3-p.Q1, c.Q3-c.Q1)
	switch {
	case pairs >= minGainPairs && 10*wins >= 9*pairs && -worseBy > p.Q3-p.Q1:
		return verdictImproved, wins, pairs
	case spread > tol && !allBetter(sign, p.Samples, c.Samples):
		return verdictUnresolved, wins, pairs
	case worseBy > tol:
		return verdictWorse, wins, pairs
	}
	return verdictNoWorse, wins, pairs
}

// allBetter reports whether every change sample beats every parent one.
func allBetter(sign float64, parent, change []float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				return false
			}
		}
	}
	return true
}

// pooled maps workload → end-to-end metric → run samples, pooled in
// order across one side's results files.
type pooled map[string]map[string][]float64

func loadPooled(paths []string) (pooled, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results file")
	}
	out := pooled{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for w, wr := range res.Workloads {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for m, s := range wr.EndToEnd {
				out[w][m] = append(out[w][m], s.Samples...)
			}
		}
	}
	return out, nil
}

// compareResults judges every (workload, end-to-end metric) both sides
// report, in workload and metric-table order.
func compareResults(parent, change pooled) []comparison {
	var out []comparison
	for _, w := range slices.Sorted(maps.Keys(parent)) {
		cw, ok := change[w]
		if !ok {
			continue
		}
		for _, m := range e2eMetrics {
			ps, ok1 := parent[w][m.Name]
			cs, ok2 := cw[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			p, c := summarize(ps), summarize(cs)
			v, wins, pairs := judge(m, p, c)
			out = append(out, comparison{
				Workload: w, Metric: m.Name, Def: m,
				Parent: p, Change: c, Wins: wins, Pairs: pairs, Verdict: v,
			})
		}
	}
	return out
}

// runCompare implements -compare parent change. Each side is a results
// file or a comma-separated list of them whose runs are pooled in order.
// It exits 1 when any metric is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "benchmark: usage: -compare parent.json[,more.json] change.json[,more.json]")
		return 2
	}
	parent, err := loadPooled(splitList(args[0]))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: parent: %v\n", err)
		return 2
	}
	change, err := loadPooled(splitList(args[1]))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: change: %v\n", err)
		return 2
	}
	rows := compareResults(parent, change)
	fmt.Fprintf(stdout, "%-18s %-22s %-6s %24s %24s %9s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
	worse := 0
	for _, r := range rows {
		delta := r.Change.Median - r.Parent.Median
		change := fmt.Sprintf("%+.4g", delta)
		if !r.Def.Abs && r.Parent.Median != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*delta/math.Abs(r.Parent.Median))
		}
		fmt.Fprintf(stdout, "%-18s %-22s %-6s %24s %24s %9s %6s  %s\n",
			r.Workload, r.Metric, r.Def.Unit, fmtSummary(r.Parent), fmtSummary(r.Change),
			change, fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
		if r.Verdict == verdictWorse {
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than the parent by more than their bound\n", worse)
		return 1
	}
	return 0
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

// splitList splits a comma-separated list of paths.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
