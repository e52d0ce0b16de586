package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/experiment"
)

// defaultHotpathScales are the population scale points the hot-path
// benchmark measures by default: the paper's Table-1 population (140
// nodes) plus the scale-ups. Override with -scales (e.g.
// "140,1k,5k,200k,1m").
const defaultHotpathScales = "140,1k,5k,20k,50k"

// parseScales converts a comma-separated node-count list ("140,1k,5k,1m";
// k = thousand, m = million) into PerGroup values: the population is
// built as groups of 28 (one node per Table-1 (region, pattern, type)
// group and unit of PerGroup), so each requested count rounds up to the
// next multiple of the group count.
func parseScales(s string) ([]int, error) {
	groups := len(campus.PopulationN(campus.New(), 1))
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(strings.ToLower(tok))
		if tok == "" {
			continue
		}
		mult := 1.0
		switch {
		case strings.HasSuffix(tok, "k"):
			mult, tok = 1e3, strings.TrimSuffix(tok, "k")
		case strings.HasSuffix(tok, "m"):
			mult, tok = 1e6, strings.TrimSuffix(tok, "m")
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil || v <= 0 || math.IsInf(v*mult, 0) {
			return nil, fmt.Errorf("bad scale %q (want node counts like 140, 5k, 1m)", tok)
		}
		out = append(out, int(math.Ceil(v*mult/float64(groups))))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -scales list")
	}
	return out, nil
}

// HotpathReport is the -hotpath output: per-scale throughput and
// allocation rate of the per-tick pipeline.
type HotpathReport struct {
	// Meta records the environment the report was produced in.
	Meta            RunMeta `json:"meta"`
	DurationSeconds float64 `json:"duration_seconds"`
	Seed            int64   `json:"seed"`
	DTHFactor       float64 `json:"dth_factor"`
	// Note carries measurement caveats (single-CPU hosts).
	Note string       `json:"note,omitempty"`
	Runs []HotpathRun `json:"runs"`
}

// HotpathRun is one scale sweep, labeled with its random stream class.
type HotpathRun struct {
	RNGMode string         `json:"rng_mode"`
	Scales  []HotpathScale `json:"scales"`
}

// HotpathScale is one population scale point.
type HotpathScale struct {
	// PerGroup is the population scale: nodes per (region, pattern, type)
	// group of Table 1.
	PerGroup int `json:"per_group"`
	experiment.HotpathStats
}

// runHotpath measures the tick pipeline at each scale point and writes
// the JSON report to path (and a per-scale summary to w). A positive
// allocBudget fails the invocation, after writing the report, if any
// scale's steady allocs/tick exceeds it.
func runHotpath(w io.Writer, cfg experiment.Config, path, scales string, allocBudget float64) error {
	perGroups, err := parseScales(scales)
	if err != nil {
		return err
	}
	report := HotpathReport{
		Meta:            runMeta(cfg),
		DurationSeconds: cfg.Duration,
		Seed:            cfg.Seed,
		DTHFactor:       1.0, // MeasureHotpath always runs factor 1.0
	}
	if report.Meta.NumCPU == 1 {
		report.Note = "recorded on a single-CPU host (NumCPU=1): worker parallelism cannot exceed 1, so sharded numbers measure algorithmic cost, not parallel speedup"
	}
	var over []string
	run := HotpathRun{RNGMode: experiment.RNGKeyed}
	for _, pg := range perGroups {
		c := cfg
		c.PerGroup = pg
		stats, err := c.MeasureHotpath()
		if err != nil {
			return fmt.Errorf("per-group %d: %w", pg, err)
		}
		run.Scales = append(run.Scales, HotpathScale{PerGroup: pg, HotpathStats: stats})
		if allocBudget > 0 && stats.SteadyAllocsPerTick > allocBudget {
			over = append(over, fmt.Sprintf("%d nodes: %.2f", stats.Nodes, stats.SteadyAllocsPerTick))
		}
		fmt.Fprintf(w, "%8d nodes: %9.1f ticks/sec, %6.2f allocs/tick, %5.2f steady allocs/tick (%d in %d ticks); build %.1f ms, ticks %.1f ms, finalize %.1f ms\n",
			stats.Nodes, stats.TicksPerSec, stats.AllocsPerTick, stats.SteadyAllocsPerTick,
			stats.SteadyAllocs, stats.Ticks-stats.WarmupTicks,
			stats.BuildMS, stats.TickMS, stats.FinalizeMS)
	}
	report.Runs = []HotpathRun{run}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "wrote %s\n", path); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("steady allocs/tick over budget %.2f: %s", allocBudget, strings.Join(over, "; "))
	}
	return nil
}
